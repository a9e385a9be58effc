"""The names the benchmark's tracer wraps must exist in the library.

``perfbench/tracer.py`` wraps crankmex from outside by name and reads the cap
line of ``maps._iterate``; a change that renames or deletes one of them would
otherwise surface only in the benchmark's slow self-checks.
"""

import importlib.util
import inspect
from pathlib import Path

from crankmex import maps
from crankmex.core import Partition

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    names = [name for names in tracer.LAYERS.values() for name in names]
    assert names
    for name in names:
        owner, attr = name.split(".")
        if owner == "Partition":
            assert attr in Partition.__dict__, name
        else:
            assert hasattr(importlib.import_module(f"crankmex.{owner}"), attr), name


def test_cap_line_is_in_iterate():
    assert _tracer().CAP_LINE in inspect.getsource(maps._iterate)
