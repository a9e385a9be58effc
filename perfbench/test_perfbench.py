"""Self-checks of the benchmark itself; run with ``python -m pytest perfbench``."""

import collections
import contextlib
import inspect
import io
import json
import random
import shutil
import subprocess
import sys

import pytest

import oracle
import run
from tracer import CAP_LINE, Tracer


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_sampler_is_uniform():
    sampler = oracle.PartitionSampler(8)
    rng = random.Random(0)
    counts = collections.Counter(sampler.sample(8, rng) for _ in range(22000))
    assert len(counts) == sampler.count(8) == 22
    assert all(oracle.is_partition(p) and sum(p) == 8 for p in counts)
    assert max(counts.values()) < 1.2 * min(counts.values())


def test_expected_suite_cells_count_every_shipped_record():
    assert len(oracle.expected_suite_cells(25, 12)) == 3458


def test_wrong_map_fails_the_run(monkeypatch):
    load = run.load_crankmex

    def load_with_broken_negation():
        lib = load()
        lib.maps.negate_crank = lambda lam: lam
        return lib

    monkeypatch.setattr(run, "load_crankmex", load_with_broken_negation)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "bulk-maps", "--seed", "1", "--seconds", "0.5"])
    result = last_json(out.getvalue())
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


@pytest.fixture
def lib(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    return run.load_crankmex()


def module_state(lib):
    """Every module global, with module-level dicts copied by value."""
    return {
        id(m): {k: dict(v) if isinstance(v, dict) else v for k, v in vars(m).items()}
        for m in lib.modules
    }


def test_uninstall_restores_every_wrapped_name(lib):
    before = module_state(lib)
    methods = dict(vars(lib.core.Partition))
    tracer = Tracer(lib)
    tracer.install()
    assert hasattr(lib.maps.fold, "__wrapped__")
    assert hasattr(lib.cli._TRACED_MAPS["fold"], "__wrapped__")
    assert hasattr(lib.core.Partition.__init__, "__wrapped__")
    tracer.uninstall()
    assert module_state(lib) == before
    assert dict(vars(lib.core.Partition)) == methods


def test_cli_dispatched_maps_are_traced(lib):
    tracer = Tracer(lib)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert lib.cli.main(["trace", "fold", run.RUNNING_EXAMPLE, "--j", "1"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.edges[("cli.main.trace", "maps.fold")][0] == 1


def test_suite_step_times_crankmex_and_the_reference(lib, monkeypatch):
    monkeypatch.setattr(run.Suite, "MAX_N", 12)
    monkeypatch.setattr(run.Suite, "MAX_J", 4)
    monkeypatch.syspath_prepend(str(run.REFERENCE))
    workload = run.Suite()
    states = {"crankmex": workload.setup(lib, 0),
              "reference": workload.setup(run.load_reference(), 0)}
    tallies = {"crankmex": run.Tally(), "reference": run.Tally()}
    step = workload.paired_step(states, 0, tallies)
    assert step["crankmex"] > 0 and step["reference"] > 0
    assert (tallies["crankmex"].attempted, tallies["crankmex"].failed) == (len(workload.expected), 0)
    assert tallies["reference"].attempted >= 1 and tallies["reference"].failed == 0


def test_iteration_cap_matches_the_library(lib):
    assert CAP_LINE in inspect.getsource(lib.maps._iterate)


@pytest.mark.parametrize("workload", ["suite", "bulk-maps", "cli"])
def test_traced_counts_repeat_at_one_seed(workload):
    counted = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = last_json(proc.stdout)["metrics"]
        counted.append({
            name: m["value"] for name, m in metrics.items()
            if name.endswith(".calls") or name.startswith("maps.trace_steps.")
            or name in ("verify.enumerate.partitions", "verify.records")
        })
    assert counted[0] == counted[1]
    assert counted[0]["core.construct.calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "suite", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
