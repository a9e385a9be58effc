"""The names the benchmark's tracer wraps must exist in the library.

``perfbench/tracer.py`` wraps crankmex from outside by name and reads the cap
line of ``maps._iterate``; a change that renames or deletes one of them would
otherwise surface only in the benchmark's slow self-checks.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from crankmex import cli, maps
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


def test_traced_maps_reach_the_iterated_maps_through_the_module(monkeypatch):
    # The tracer wraps maps.fold_pair and maps.unfold_pair by name; a traced
    # map that called the iteration another way would lose its maps.iterate
    # spans and its trace-length statistics without any error.
    calls = []

    def counting(name):
        original = getattr(maps, name)

        def wrapper(state):
            calls.append(name)
            return original(state)

        return wrapper

    for name in ("fold_pair", "unfold_pair"):
        monkeypatch.setattr(maps, name, counting(name))
    odd = Partition((9, 7, 2, 1))  # mex above 0 is 3, an odd offset
    even = Partition((9, 7, 3, 2, 1))  # mex above 0 is 4
    for fn, arg, expected in (
        (maps.fold, odd, "fold_pair"),
        (maps.unfold, maps.fold(0, odd)[0], "unfold_pair"),
        (maps.fold_complement, even, "fold_pair"),
        (maps.unfold_complement, maps.fold_complement(0, even)[0], "unfold_pair"),
    ):
        calls.clear()
        fn(0, arg)
        assert calls == [expected], fn.__name__


# (map, arguments, the kernels it runs, in order); each input makes every stage run
_STAGED = (
    (maps.detach_step, (1, Partition((5, 3))), ["_detach"]),
    (maps.unfold_complement, (1, Partition((4, 3, 3, 3))), ["_detach"]),
    (maps.attach_step, (1, Partition((7, 3))), ["_attach"]),
    (maps.fold_complement, (1, Partition((4, 4, 3, 2))), ["_attach"]),
    (maps.to_low_crank, (1, Partition((7, 1))), ["_to_low"]),
    (maps.mex_to_crank, (1, Partition((3, 3, 2, 1))), ["_to_low", "_negated"]),
    (maps.from_low_crank, (1, Partition((6, 1, 1))), ["_from_low"]),
    (maps.crank_to_mex, (1, Partition((4, 4, 1))), ["_negated", "_from_low"]),
    (maps.negate_crank, (Partition((4, 4, 1)),), ["_negated"]),
)


def test_a_kernel_patched_in_maps_reaches_its_map_and_the_composites(monkeypatch):
    # The public maps, the bodies and the composites run each stage kernel by
    # its name in maps, once per stage, so a fault or a wrapper placed there
    # reaches the map of that stage and every composite that runs it.
    calls = []

    def counting(name):
        original = getattr(maps, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    def failing(*args):
        raise ValueError("patched")

    kernels = {name for _, _, names in _STAGED for name in names}
    with monkeypatch.context() as patch:
        for name in kernels:
            patch.setattr(maps, name, counting(name))
        for fn, args, expected in _STAGED:
            calls.clear()
            fn(*args)
            assert calls == expected, fn.__name__
    for name in kernels:
        with monkeypatch.context() as patch:
            patch.setattr(maps, name, failing)
            for fn, args, expected in _STAGED:
                if name in expected:
                    with pytest.raises(ValueError, match="^patched$"):
                        fn(*args)


def test_maps_are_bound_only_in_maps():
    # A wrapper or fault placed on a name in maps reaches every command and
    # suite row only if nothing else holds the function: cli keeps names, and
    # so does the bijection table.
    def of_maps(value):
        return inspect.isfunction(value) and value.__module__ == maps.__name__

    for key, value in vars(cli).items():
        held = value.values() if isinstance(value, dict) else [value]
        assert not any(map(of_maps, held)), key
    for row in maps._BIJECTIONS:
        assert not any(callable(v) for v in row), row


def test_tracer_reads_step_counts_and_cap_from_a_trace():
    tracer = _tracer()
    recorder = tracer.Tracer(lib=None)
    start = maps.PairState(0, 0, Partition((11, 8, 7, 7, 5, 5, 4, 3, 2, 2)))
    result = maps.fold_pair(start)
    recorder._post_hooks()["maps.fold_pair"](result)
    trace = result[1]
    case1 = [step.case for step in trace.steps].count(1)
    assert recorder.traces == [(len(trace), case1, tracer.iteration_cap(start))]
    assert 0 < len(trace) < tracer.iteration_cap(start)
