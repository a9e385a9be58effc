"""Outside-in span tracing of crankmex, installed from the benchmark's files.

``Tracer.install`` swaps the public functions of each crankmex module for
wrappers that record a span per call; ``uninstall`` puts the originals back.
Nothing in ``src/`` is edited, and an untraced run never calls ``install``.

Spans are kept in memory per (parent, name) edge: calls, total time and self
time.  A span's self time is its duration minus the time charged by its
children, where a child is charged for its whole wrapper, bookkeeping
included, so the tracer's own cost is not billed to the parent's self time.
Every name belongs to one layer of the per-layer metrics.
"""

from __future__ import annotations

import time

# layer -> names of wrapped callables.  "Partition.x" is a method on the
# class; any other name is a module-level function of the module it names.
LAYERS = {
    "core.construct": ("Partition.__init__",),
    "core.stats": tuple(
        "Partition." + m
        for m in (
            "crank", "mex", "has_odd_mex", "has_arm", "avoids_arm",
            "has_part", "count", "count_above", "conjugate",
        )
    ),
    "core.durfee_size": ("Partition.durfee_size",),
    "core.mex_split_join": ("core.mex_split", "core.mex_join"),
    "maps.step": ("maps.fold_step", "maps.unfold_step"),
    "maps.iterate": ("maps.fold_pair", "maps.unfold_pair"),
    "maps.bijection": tuple(
        "maps." + f
        for f in (
            "fold", "unfold", "fold_complement", "unfold_complement",
            "detach_step", "attach_step", "to_low_crank", "from_low_crank",
            "negate_crank", "mex_to_crank", "crank_to_mex",
        )
    ),
    "verify.enumerate": ("verify.partitions_of",),
    "verify.series": ("verify.odd_mex_series",),
    "verify.crank_table": ("verify.crank_table",),
    "verify.harness": ("verify.run_theorem_suite",),
    "cli.main": ("cli.main",),
}
_GENERATORS = {"verify.partitions_of"}

# The line of crankmex.maps._iterate that sets its iteration cap, which
# Trace does not expose; the self-checks fail if the library changes it.
CAP_LINE = "cap = 2 * start.pair_weight + 2 * start.k + 4"


def iteration_cap(start):
    """The step cap ``_iterate`` puts on a run from ``start`` (see CAP_LINE)."""
    return 2 * start.pair_weight + 2 * start.k + 4


def _assign(namespace, key, value):
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


class Tracer:
    def __init__(self, lib):
        self._lib = lib
        self._saved = []  # (namespace, attribute, original) to restore
        self._reset()

    def _reset(self):
        self._stack = []  # open spans: [name, ns charged by children]
        self.edges = {}  # (parent name or None, name) -> [calls, total_ns, self_ns]
        self.items = {}  # name -> values yielded (generators) or records returned
        self.traces = []  # (steps, case-1 steps, cap) per fold_pair/unfold_pair

    # -- wrapping ------------------------------------------------------------

    def install(self):
        """Wrap every name in LAYERS and start a fresh recording."""
        self._reset()
        lib = self._lib
        hooks = self._post_hooks()
        for names in LAYERS.values():
            for name in names:
                owner, attr = name.split(".")
                if owner == "Partition":
                    original = lib.core.Partition.__dict__[attr]
                    self._swap(lib.core.Partition, attr, original, self._wrap(name, original))
                    continue
                original = getattr(getattr(lib, owner), attr)
                if name in _GENERATORS:
                    wrapper = self._wrap_generator(name, original)
                else:
                    wrapper = self._wrap(name, original, hooks.get(name))
                # maps imports mex_split by name, crankmex re-exports everything
                # and cli keeps the maps in dispatch tables: rebind every module
                # global, and every value of a module-level dict, that holds it.
                for module in lib.modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._swap(module, key, original, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    self._swap(value, k, original, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._saved):
            _assign(namespace, attr, original)
        self._saved.clear()

    def _swap(self, namespace, attr, original, wrapper):
        self._saved.append((namespace, attr, original))
        _assign(namespace, attr, wrapper)

    def _wrap(self, name, fn, post=None):
        clock = time.perf_counter_ns
        stack = self._stack
        close = self._close
        label = self._cli_label if name == "cli.main" else None

        def wrapper(*args, **kwargs):
            t0 = clock()
            frame = [label(args, kwargs) if label else name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, start, t0)
            if post:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        close = self._close
        items = self.items

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                frame = [name, 0]
                stack.append(frame)
                start = clock()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    close(frame, start, t0)
                items[name] = items.get(name, 0) + 1
                yield value

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, start, t0):
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        key = (parent[0] if parent else None, frame[0])
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0, 0]
        edge[0] += 1
        edge[1] += end - start
        edge[2] += end - start - frame[1]
        if parent is not None:
            parent[1] += time.perf_counter_ns() - t0

    @staticmethod
    def _cli_label(args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return "cli.main." + (argv[0] if argv else "-")

    def _post_hooks(self):
        def read_trace(result):
            trace = result[1]
            case1 = sum(1 for step in trace.steps if step.case == 1)
            self.traces.append((len(trace.steps), case1, iteration_cap(trace.start)))

        def count_records(report):
            self.items["verify.records"] = self.items.get("verify.records", 0) + len(report.results)

        return {
            "maps.fold_pair": read_trace,
            "maps.unfold_pair": read_trace,
            "verify.run_theorem_suite": count_records,
        }

    # -- reading -------------------------------------------------------------

    def by_name(self):
        """name -> [calls, total_ns, self_ns], summed over parents."""
        out = {}
        for (_, name), (calls, total, own) in self.edges.items():
            acc = out.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def spans(self):
        """The span edges as JSON-ready rows, heaviest self time first."""
        rows = [
            {"parent": parent, "span": name, "calls": calls,
             "total_ms": total / 1e6, "self_ms": own / 1e6}
            for (parent, name), (calls, total, own) in self.edges.items()
        ]
        return sorted(rows, key=lambda row: -row["self_ms"])
