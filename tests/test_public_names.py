"""``crankmex.__all__`` is the three submodule lists, re-exported as is.

The benchmark's tracer rebinds every module global that holds a wrapped
function, so a package name must be the very object its own module holds.
"""

import crankmex
from crankmex import core, maps, verify


def test_package_names_are_the_submodule_names():
    names = crankmex.__all__
    assert len(names) == len(set(names)) == 37
    owners = {name: module for module in (core, maps, verify) for name in module.__all__}
    assert set(names) == owners.keys()
    for name, module in owners.items():
        assert getattr(crankmex, name) is getattr(module, name), name
