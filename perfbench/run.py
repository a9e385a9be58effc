"""Layered benchmark of crankmex: time to verdict, map throughput, CLI latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {suite,bulk-maps,cli} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout that holds this file;
without it the command exits 2 and prints no result.  Each run is one
process running one closed-loop caller, so RSS and set-up are per workload.

Workloads (the unit of work in brackets):

* ``suite`` [one ``run_theorem_suite(25, 12)``]: the shipped gate, read-heavy
  statistic queries on small partitions, traces discarded.  Its input is
  fixed, so the seed is unused.
* ``bulk-maps`` [one input]: seeded uniform partitions of weight 475..525 and
  ``j`` in 0..3, each through the fold family its mex class selects, both
  ways, through ``mex_to_crank``/``crank_to_mex`` when in domain, and through
  ``negate_crank`` twice.  Builds many long partitions and reads the traces.
* ``cli`` [one ``python -m crankmex.cli`` process]: a fixed mix of four
  ``trace fold`` commands, ``table``, and ``map mex-to-crank`` and ``stats``
  on seeded partitions.  Interpreter start and import dominate.

With ``--trace 0`` the run prints the end-to-end metrics, per operation (the
unit in brackets):

* ``setup_s``: set-up time, a fresh import of crankmex, input generation and
  warm-up, done SETUP_PAIRS times;
* ``op_p50_ms`` and ``op_tail_ms``: median and tail latency.  The tail is p99
  on bulk-maps and p90 on cli; a suite run holds two verdicts, too few for
  any percentile to have ten samples beyond it, so there it is the median;
* ``ops_per_s``: operations over the time spent in them;
* ``peak_rss_mb``: peak RSS of this process (which also holds the reference
  copy below), or of the largest child running crankmex for cli.

Time metrics are corrected for the host's speed, which drifts by up to 1.7x
within minutes on shared machines.  ``reference/crankmex_ref`` is a frozen
copy of ``src/crankmex`` as it was when the benchmark was written; never edit
it, for it is the yardstick.  Every set-up and every operation is run on both
copies, one after the other with the order alternating, or, for the suite,
side by side in two threads (see ``Suite.paired_step``).  An operation metric
is its value measured on crankmex times ``CALIBRATION[metric] / (its value
measured on the reference in this run)``; ``setup_s`` is
``CALIBRATION["setup_s"]`` times the median ratio of the set-ups of a pair.
``CALIBRATION`` holds the reference's values on the calibration host (2 vCPU
Xeon at 2.0 GHz, Python 3.11.7), so the metrics read as measured there at its
calibration speed.  Both measured sets are printed.  The suite's times are
thread CPU times of a verdict that shares the interpreter with the reference.

``failed_frac`` is printed as a line; in the JSON result it is
``failed / attempted``, counting suite cells, bulk-maps inputs and CLI
invocations of crankmex.  The reference's outputs are checked as well, and a
wrong one stops the run without a result.

With ``--trace 1`` the run prints the per-layer metrics; the reference is not
loaded.  A traced run alternates an untraced and a traced in-process unit (a
suite run, a pass over the bulk-maps pool, or one round of the CLI mix
through ``cli.main``) while the time allows; counts are those of the first
traced unit, times the median over units.  Spans are written to
``perfbench/results/``.

Every output is checked against the oracles in ``oracle.py`` and the golden
files, outside the timed regions.  The last line of standard output is the
JSON result; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import oracle
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
GOLDEN = ROOT / "tests" / "golden"
RESULTS = HERE / "results"

SETUP_PAIRS = 9
RUNNING_EXAMPLE = "11,8,7,7,5,5,4,3,2,2"


def load_library(package, root):
    """Import ``package`` afresh from ``root``, so set-up pays its import."""
    for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
        del sys.modules[name]
    top = importlib.import_module(package)
    cli = importlib.import_module(package + ".cli")
    if Path(top.__file__).resolve().parent != root / package:
        raise RuntimeError(f"{package} was imported from {top.__file__}, not {root}")
    core, maps, verify = top.core, top.maps, top.verify
    return types.SimpleNamespace(
        name=package, core=core, maps=maps, verify=verify, cli=cli,
        modules=(top, core, maps, verify, cli),
    )


def load_crankmex():
    return load_library("crankmex", SRC)


def load_reference():
    return load_library("crankmex_ref", REFERENCE)


class Tally:
    """Operations attempted and failed; keeps the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note=""):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 5:
            self.notes.append(note)


# -- suite ---------------------------------------------------------------------


class Suite:
    MAX_N, MAX_J = 25, 12
    # The reference's unit of work, run alongside each verdict (see paired_step).
    REFERENCE_BOUNDS = (16, 8)
    # Two verdicts fit in a run: no percentile has ten samples beyond them, so
    # the tail metric falls back to the median.
    tail_percentile = None
    CALIBRATION = {"setup_s": 0.0770, "op_p50_ms": 627.5, "op_tail_ms": 627.5, "ops_per_s": 1.594}

    def __init__(self):
        self.expected = oracle.expected_suite_cells(self.MAX_N, self.MAX_J)

    def setup(self, lib, seed):
        lib.verify.run_theorem_suite(10, 4)
        return types.SimpleNamespace(lib=lib)

    def unit(self, state, tally, plain=True, clock=time.perf_counter):
        start = clock()
        try:
            report = state.lib.verify.run_theorem_suite(self.MAX_N, self.MAX_J)
        except Exception as exc:  # a crash is a failure of every cell
            elapsed = clock() - start
            tally.add(len(self.expected), len(self.expected), repr(exc))
            return elapsed
        elapsed = clock() - start
        self.check(report, tally)
        return elapsed

    def paired_step(self, states, i, tallies):
        """Thread CPU times of one verdict on crankmex, in this thread, and of
        one reference unit, run over and over in a second thread meanwhile.

        A verdict is too long to alternate with the reference one after the
        other: the host's speed changes within seconds.  The GIL hands over
        between the two threads every few milliseconds instead, so they share
        the host's speed.  The reference's last unit overruns the verdict by at
        most its own length.
        """
        done = threading.Event()
        spent = []

        def reference():
            verify = states["reference"].lib.verify
            while not spent or not done.is_set():
                start = time.thread_time()
                report = verify.run_theorem_suite(*self.REFERENCE_BOUNDS)
                spent.append(time.thread_time() - start)
                tallies["reference"].add(1, not report.all_passed, "reference suite failed")

        helper = threading.Thread(target=reference)
        helper.start()
        try:
            verdict = self.unit(states["crankmex"], tallies["crankmex"], clock=time.thread_time)
        finally:
            done.set()
            helper.join()
        return {"crankmex": verdict, "reference": statistics.fmean(spent)}

    def check(self, report, tally):
        seen = {}
        bad = set()
        for r in report.results:
            key = (r.name, r.n, r.j)
            seen[key] = r.status
            if r.status == "fail":
                bad.add(key)
        bad.update(key for key, status in self.expected.items() if seen.get(key) != status)
        attempted = len(self.expected.keys() | bad)
        tally.add(attempted, len(bad), f"suite cells wrong or missing: {sorted(bad, key=str)[:3]}")


# -- bulk-maps -------------------------------------------------------------------


class BulkMaps:
    WEIGHTS = (475, 525)
    MAX_J = 3
    POOL = 2000
    tail_percentile = 99
    CALIBRATION = {"setup_s": 0.416, "op_p50_ms": 0.4982, "op_tail_ms": 2.180, "ops_per_s": 1619.0}

    def setup(self, lib, seed):
        sampler = oracle.PartitionSampler(self.WEIGHTS[1])
        rng = random.Random(seed)
        pool = []
        for _ in range(self.POOL):
            parts = sampler.sample(rng.randint(*self.WEIGHTS), rng)
            j = rng.randint(0, self.MAX_J)
            odd = oracle.has_odd_mex(parts, j)
            to_crank = odd and (j == 0 or j in parts)
            pool.append((j, lib.core.Partition(parts), parts, odd, to_crank))
        state = types.SimpleNamespace(lib=lib, pool=pool)
        for i in range(50):
            self.op(state, i, Tally())
        return state

    @staticmethod
    def process(maps, item):
        """The timed library calls for one input; the trace lengths are read as a
        caller keeping the traces would, the rest is returned for the checks."""
        j, lam, _, odd, to_crank = item
        if odd:
            image, trace = maps.fold(j, lam)
            back, back_trace = maps.unfold(j, image)
        else:
            image, trace = maps.fold_complement(j, lam)
            back, back_trace = maps.unfold_complement(j, image)
        steps = len(trace.steps) + len(back_trace.steps)
        high = high_back = None
        if to_crank:
            high = maps.mex_to_crank(j, lam)
            high_back = maps.crank_to_mex(j, high)
        neg = maps.negate_crank(lam)
        return image, back, steps, high, high_back, neg, maps.negate_crank(neg)

    @staticmethod
    def correct(item, out):
        j, _, parts, odd, to_crank = item
        image, back, _, high, high_back, neg, neg_back = out
        weight = sum(parts)

        def member(lam):
            return oracle.is_partition(lam.parts) and sum(lam.parts) == weight

        ok = (
            member(image)
            and oracle.has_arm(image.parts, j) != odd
            and back.parts == parts
            and member(neg)
            and oracle.crank(neg.parts) == -oracle.crank(parts)
            and neg_back.parts == parts
        )
        if ok and odd:
            ok = [p for p in image.parts if p <= j] == [p for p in parts if p <= j]
        if ok and to_crank:
            ok = member(high) and oracle.crank(high.parts) >= j and high_back.parts == parts
        return ok

    def op(self, state, i, tally):
        item = state.pool[i % len(state.pool)]
        start = time.perf_counter()
        try:
            out = self.process(state.lib.maps, item)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            tally.add(1, 1, f"j={item[0]} {item[2]}: {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - start
        ok = self.correct(item, out)
        tally.add(1, 0 if ok else 1, f"j={item[0]} {item[2]}: wrong output")
        return elapsed

    def unit(self, state, tally, plain=True):
        start = time.perf_counter()
        for i in range(len(state.pool)):
            self.op(state, i, tally)
        return time.perf_counter() - start


# -- cli -------------------------------------------------------------------------


class Cli:
    WEIGHTS = (20, 40)
    MAX_J = 3
    # A run spawns about a hundred processes, so p90 is the highest percentile
    # with ten samples beyond it.  p95 spread by up to 18% between runs of the
    # same code.
    tail_percentile = 90
    CALIBRATION = {"setup_s": 0.2186, "op_p50_ms": 163.9, "op_tail_ms": 178.1, "ops_per_s": 5.956}

    def setup(self, lib, seed):
        commands = []
        for j in (0, 1, 3, 5):
            golden = (GOLDEN / f"trace_fold_j{j}.txt").read_bytes()
            commands.append((["trace", "fold", RUNNING_EXAMPLE, "--j", str(j)], golden.__eq__))
        golden = (GOLDEN / "table_weight9_j0.txt").read_bytes()
        commands.append((["table", "--weight", "9", "--j", "0"], golden.__eq__))

        rng = random.Random(seed)
        sampler = oracle.PartitionSampler(self.WEIGHTS[1])
        while True:
            parts = sampler.sample(rng.randint(*self.WEIGHTS), rng)
            j = rng.randint(0, self.MAX_J)
            if oracle.has_odd_mex(parts, j) and (j == 0 or j in parts):
                break
        text = ",".join(map(str, parts))
        commands.append((["map", "mex-to-crank", text, "--j", str(j)], self._map_checker(parts, j)))
        parts = sampler.sample(rng.randint(*self.WEIGHTS), rng)
        text = ",".join(map(str, parts))
        commands.append((["stats", text], self._stats_checker(parts)))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), str(REFERENCE), env.get("PYTHONPATH")])
        )
        state = types.SimpleNamespace(
            lib=lib, commands=commands, env=env, peak_rss_kb=0, main_ms={}, probes={}
        )
        self.spawn(state, ["-m", f"{lib.name}.cli", "stats", RUNNING_EXAMPLE])
        return state

    @staticmethod
    def _map_checker(parts, j):
        def check(stdout):
            lines = [line.split() for line in stdout.decode().splitlines()]
            if len(lines) != 3 or len(lines[2]) != 4 or lines[2][0] != "output":
                return False
            _, text, _, crank = lines[2]
            try:
                out = tuple(int(p) for p in text.split(","))
            except ValueError:
                return False
            return (
                oracle.is_partition(out)
                and sum(out) == sum(parts)
                and oracle.crank(out) >= j
                and crank == str(oracle.crank(out))
                and lines[1][:2] == ["input", ",".join(map(str, parts))]
            )

        return check

    @staticmethod
    def _stats_checker(parts):
        def yes(flag):
            return "yes" if flag else "no"

        expected = [
            f"partition {','.join(map(str, parts))}",
            f"weight {sum(parts)}",
            f"length {len(parts)}",
            f"ones {parts.count(1)}",
            f"crank {oracle.crank(parts)}",
        ]
        rows = [
            [str(j), str(oracle.mex(parts, j)), str(oracle.durfee_size(parts, j)),
             yes(oracle.has_odd_mex(parts, j)), yes(not oracle.has_arm(parts, j)),
             yes(j == 0 or j in parts)]
            for j in range(9)
        ]

        def check(stdout):
            lines = stdout.decode().splitlines()
            heads = [line.split()[:1] for line in lines]
            if ["j"] not in heads or not all(line in lines for line in expected):
                return False
            return [line.split() for line in lines[heads.index(["j"]) + 1:]] == rows

        return check

    @staticmethod
    def spawn(state, args):
        """Run ``python args`` to its end: (seconds, exit code, stdout).

        The child is reaped with ``wait4`` so that its own peak RSS is known.
        Its outputs are small, so reading stdout to the end cannot block it.
        """
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=state.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ) as proc:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
        state.peak_rss_kb = max(state.peak_rss_kb, usage.ru_maxrss)
        return elapsed, proc.returncode, stdout

    def op(self, state, i, tally):
        argv, check = state.commands[i % len(state.commands)]
        elapsed, code, stdout = self.spawn(state, ["-m", f"{state.lib.name}.cli", *argv])
        ok = code == 0 and check(stdout)
        tally.add(1, 0 if ok else 1, f"{argv}: exit {code}, wrong output")
        return elapsed

    @staticmethod
    def peak_rss_mb(state):
        return state.peak_rss_kb / 1024

    def unit(self, state, tally, plain=True):
        """One round of the mix through ``cli.main`` in this process.

        Untraced rounds also time each subcommand and probe a bare interpreter
        and ``import crankmex.cli`` in fresh processes.
        """
        total = 0.0
        for argv, check in state.commands:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                try:
                    code = state.lib.cli.main(list(argv))
                except Exception as exc:
                    code = repr(exc)
            elapsed = time.perf_counter() - start
            total += elapsed
            if plain:
                state.main_ms.setdefault(argv[0], []).append(elapsed)
            ok = code == 0 and check(buf.getvalue().encode())
            tally.add(1, 0 if ok else 1, f"{argv}: cli.main returned {code}, wrong output")
        if plain:
            for name, code in (("interp", "pass"), ("import", "import crankmex.cli")):
                elapsed, status, _ = self.spawn(state, ["-c", code])
                tally.add(1, status != 0, f"{code}: exit {status}")
                state.probes.setdefault(name, []).append(elapsed)
        return total

    def extras(self, state):
        interp = statistics.median(state.probes["interp"])
        metrics = {
            "cli.interp_ms": (interp * 1e3, "ms"),
            "cli.import_ms": ((statistics.median(state.probes["import"]) - interp) * 1e3, "ms"),
        }
        for sub, times in state.main_ms.items():
            metrics[f"cli.main_ms.{sub}"] = (statistics.median(times) * 1e3, "ms")
        return metrics


WORKLOADS = {"suite": Suite, "bulk-maps": BulkMaps, "cli": Cli}


# -- metrics -----------------------------------------------------------------------

COUNTED_LAYERS = ("core.construct", "core.stats", "core.durfee_size", "maps.step")
CLI_LAYER_METRICS = ("cli.interp_ms", "cli.import_ms", "cli.main_ms.trace",
                     "cli.main_ms.table", "cli.main_ms.map", "cli.main_ms.stats")


# The two sides of every timed step, in the order used at even and odd steps.
SIDES = (("crankmex", "reference"), ("reference", "crankmex"))


def set_up(workload, seed):
    """Set up crankmex and the reference SETUP_PAIRS times each, alternating."""
    loaders = {"crankmex": load_crankmex, "reference": load_reference}
    states, times = {}, {"crankmex": [], "reference": []}
    for i in range(SETUP_PAIRS):
        for side in SIDES[i % 2]:
            states[side] = None  # so that two set-ups of one side are never alive at once
            start = time.perf_counter()
            states[side] = workload.setup(loaders[side](), seed)
            times[side].append(time.perf_counter() - start)
    return states, times


def sequential_step(workload, states, i, tallies):
    """Operation i on both sides, one after the other: their durations."""
    return {side: workload.op(states[side], i, tallies[side]) for side in SIDES[i % 2]}


def measure(workload, states, seconds, tally):
    """Closed loop of steps, each timing one operation on both sides, until the
    time is up.  The number of steps is even, so that in a sequential step each
    side runs first equally often.  A workload may define its own paired_step.
    """
    tallies = {"crankmex": tally, "reference": Tally()}
    paired_step = getattr(workload, "paired_step", None)
    times = {"crankmex": [], "reference": []}
    deadline = time.perf_counter() + seconds
    i = 0
    while not i or i % 2 or time.perf_counter() < deadline:
        if paired_step:
            step = paired_step(states, i, tallies)
        else:
            step = sequential_step(workload, states, i, tallies)
        for side, elapsed in step.items():
            times[side].append(elapsed)
        i += 1
    if tallies["reference"].failed:
        raise RuntimeError(f"the reference copy failed its checks: {tallies['reference'].notes}")
    return times


OP_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s"}


def op_metrics(workload, times):
    """The operation time metrics of one side, as measured."""
    pct = workload.tail_percentile
    if pct is None or len(times) < 2:
        tail = statistics.median(times)
    else:
        tail = statistics.quantiles(times, n=100)[pct - 1]
    return {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": len(times) / sum(times),
    }


def process_peak_rss_mb(state):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, states, times, setups):
    """The end-to-end metrics, and the operation metrics of each side as measured.

    An operation metric is its value on crankmex times the reference's
    calibration value of that metric over the reference's value in this run.
    ``setup_s`` is the reference's calibration set-up time times the median
    ratio of the two set-ups of a pair, which were run back to back.
    """
    measured = {side: op_metrics(workload, times[side]) for side in times}
    ratios = [c / r for c, r in zip(setups["crankmex"], setups["reference"])]
    metrics = {"setup_s": (workload.CALIBRATION["setup_s"] * statistics.median(ratios), "s")}
    for name, unit in OP_UNITS.items():
        value = measured["crankmex"][name] * workload.CALIBRATION[name] / measured["reference"][name]
        metrics[name] = (value, unit)
    peak_rss_mb = getattr(workload, "peak_rss_mb", process_peak_rss_mb)
    metrics["peak_rss_mb"] = (peak_rss_mb(states["crankmex"]), "MB")
    return metrics, measured


def traced(workload, state, seconds, tally):
    """Alternate untraced and traced units; per-layer metrics from the spans."""
    tracer = Tracer(state.lib)
    plain, with_tracer, units = [], [], []
    start = time.perf_counter()
    # A traced suite pair takes about half a minute: start one only if it fits.
    while not units or (time.perf_counter() - start) * (len(units) + 1) / len(units) <= seconds:
        plain.append(workload.unit(state, tally, plain=True))
        tracer.install()
        try:
            with_tracer.append(workload.unit(state, tally, plain=False))
        finally:
            tracer.uninstall()
        units.append((tracer.by_name(), dict(tracer.items), list(tracer.traces), tracer.spans()))

    def layer_self_ms(layer):
        return statistics.median(
            sum(by_name.get(n, (0, 0, 0))[2] for n in LAYERS[layer]) / 1e6
            for by_name, *_ in units
        )

    by_name, items, traces, spans = units[0]
    metrics = {}
    for layer in LAYERS:
        if layer in COUNTED_LAYERS:
            calls = sum(by_name.get(n, (0,))[0] for n in LAYERS[layer])
            metrics[f"{layer}.calls"] = (calls, "count")
        if layer != "cli.main":
            metrics[f"{layer}.self_ms"] = (layer_self_ms(layer), "ms")
    all_self = statistics.median(sum(v[2] for v in u[0].values()) / 1e6 for u in units)
    metrics["core.construct.self_frac"] = (metrics["core.construct.self_ms"][0] / all_self, "frac")
    steps = [t[0] for t in traces]
    metrics["maps.trace_steps.mean"] = (statistics.fmean(steps) if steps else 0.0, "steps")
    metrics["maps.trace_steps.max"] = (max(steps, default=0), "steps")
    metrics["maps.case1_frac"] = (sum(t[1] for t in traces) / max(sum(steps), 1), "frac")
    metrics["maps.cap_headroom_min"] = (min(((c - s) / c for s, _, c in traces), default=1.0), "frac")
    metrics["verify.enumerate.partitions"] = (items.get("verify.partitions_of", 0), "count")
    metrics["verify.records"] = (items.get("verify.records", 0), "count")
    for name in CLI_LAYER_METRICS:
        metrics[name] = (0.0, "ms")
    metrics.update(getattr(workload, "extras", lambda state: {})(state))
    metrics["trace.overhead_frac"] = (
        statistics.median(with_tracer) / statistics.median(plain), "ratio"
    )
    return metrics, spans, len(units)


# -- entry point ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crankmex" / "__init__.py").is_file():
        print(f"perfbench: no crankmex sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(REFERENCE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)

    workload = WORKLOADS[args.workload]()
    tally = Tally()
    if args.trace:
        state = workload.setup(load_crankmex(), args.seed)
        metrics, spans, units = traced(workload, state, args.seconds, tally)
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "traced_units": units, "first_unit_spans": spans}, indent=1))
        samples = f"{units} traced units, spans in {out.relative_to(ROOT)}"
    else:
        states, setups = set_up(workload, args.seed)
        times = measure(workload, states, args.seconds, tally)
        metrics, measured = end_to_end(workload, states, times, setups)
        tail = f"p{workload.tail_percentile}" if workload.tail_percentile else "median"
        samples = f"{len(times['crankmex'])} operations, tail = {tail}, {SETUP_PAIRS} set-ups"
        for side, values in measured.items():
            print(f"measured on {side}: " + json.dumps(values))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"samples {samples}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"{'failed_frac':28s} {tally.failed / max(tally.attempted, 1):14.6g} ({tally.failed}/{tally.attempted})")
    for note in tally.notes:
        print(f"failure: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
