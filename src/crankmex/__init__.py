"""Exact integer-partition engine: crank/mex statistics and their bijections.

The package has four layers:

* :mod:`crankmex.core` — the :class:`Partition` value type with its statistics
  (crank, mex above ``j``, shifted Durfee sizes, arm coordinates), the
  Durfee and mex decompositions, and the exhaustive enumeration
  :func:`partitions_of`.
* :mod:`crankmex.maps` — the staircase step maps and every bijection built
  from them, through the composite crank/mex correspondence.
* :mod:`crankmex.verify` — exact counting series, the crank table, and the
  theorem suite that re-proves every identity at desk scale with
  element-by-element witnesses.
* :mod:`crankmex.cli` — the ``crankmex`` command-line frontend.

``import crankmex`` loads ``core`` and ``maps``.  ``crankmex.verify``, its
names and ``__all__`` load on first access (``crankmex.verify``,
``crankmex.run_theorem_suite``, ``from crankmex import *``, ``dir(crankmex)``),
so a process that only builds, enumerates and maps partitions never compiles
it: ``crankmex.partitions_of`` is :mod:`crankmex.core`'s.
"""

import importlib

from . import core, maps
from .core import *
from .maps import *

__version__ = "0.1.0"


def _load_verify():
    """Import :mod:`crankmex.verify` and bind its names and ``__all__`` here."""
    # import_module, not ``from . import verify``: that looks the name up on
    # this package first, which calls __getattr__ again
    verify = importlib.import_module(".verify", __name__)
    namespace = globals()
    namespace.update({name: getattr(verify, name) for name in verify.__all__})
    namespace["__all__"] = [*core.__all__, *maps.__all__, *verify.__all__]
    return namespace


def __getattr__(name):
    # a probe for a missing dunder (``__wrapped__``...) other than __all__ loads nothing
    if name == "__all__" or not name.startswith("__"):
        namespace = _load_verify()
        if name in namespace:
            return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(_load_verify())
