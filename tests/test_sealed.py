"""The sorted-buffer constructor ``core._sealed`` against the public one.

The step maps and bijections build their outputs through ``_sealed``, which
sorts the buffer and so leaves out the order check of ``Partition(...)``.
Patching it to "sort, then ``Partition(buf)``" switches every check back on
for every map output and every state of a traced run; the outputs must not
change.  An untraced run (``mex_to_crank``, ``crank_to_mex``, ``crankmex
map``) seals only its end state, so its states in between get only the
smallest-part check.  ``negate_crank`` and ``conjugate`` build their outputs
in order, so they compare the buffer with its sorted copy before ``_sealed``
and name the first misordered part instead of sorting it away; no map output
goes through ``Partition(...)``.  A map output that fails its check is a bug,
so it raises ``IterationLimitError``; only the weight cap, which valid inputs
can reach, stays a ``PartitionError``.
"""

import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import crankmex
from crankmex import (
    MAX_WEIGHT,
    DomainError,
    IterationLimitError,
    Partition,
    PartitionError,
    crank_to_mex,
    fold,
    fold_complement,
    mex_to_crank,
    negate_crank,
    partitions_of,
    run_theorem_suite,
    unfold,
    unfold_complement,
)
from crankmex import cli, core, maps, verify
from crankmex.core import _conjugate_parts, _sealed
from references import ref_negate_crank

_MODULES = (crankmex, core, maps, verify, cli)


def _patch_sealed(monkeypatch, replacement):
    """Rebind ``_sealed`` in every module that binds the name."""
    patched = [m for m in _MODULES if getattr(m, "_sealed", None) is _sealed]
    assert core in patched and maps in patched
    for module in patched:
        monkeypatch.setattr(module, "_sealed", replacement)


def _full_check(buf):
    buf.sort(reverse=True)
    return Partition(buf)


def _map_outputs(max_n):
    out = []
    for n in range(max_n + 1):
        for lam in partitions_of(n):
            for j in range(4):
                for f in (fold, unfold, fold_complement, unfold_complement,
                          mex_to_crank, crank_to_mex):
                    try:
                        result = f(j, lam)
                    except DomainError as exc:
                        out.append(str(exc))
                        continue
                    image, trace = result if isinstance(result, tuple) else (result, None)
                    out.append((image.parts, image.weight, trace))
    return out


def test_sealed_path_matches_the_full_constructor(monkeypatch):
    records = run_theorem_suite(14, 5).to_records()
    outputs = _map_outputs(14)
    _patch_sealed(monkeypatch, _full_check)
    assert run_theorem_suite(14, 5).to_records() == records
    assert _map_outputs(14) == outputs


def test_negate_crank_and_conjugate_seal_each_output_once(monkeypatch):
    # both check the order they built their output in, then seal it once
    # through _sealed; neither pays the public constructor's per-part scan
    inputs = [lam for n in range(2, 10) for lam in partitions_of(n)]
    seals = []

    def counting(buf):
        seals.append(len(buf))
        return _sealed(buf)

    def refuse(self, parts=()):
        raise AssertionError("Partition.__init__ called")

    _patch_sealed(monkeypatch, counting)
    monkeypatch.setattr(Partition, "__init__", refuse)
    for lam in inputs:
        seals.clear()
        image = negate_crank(lam)
        assert image.parts == ref_negate_crank(lam.parts)[1]
        assert negate_crank(image) == lam
        assert seals == [len(image), len(lam)]
        seals.clear()
        conj = lam.conjugate()
        assert conj.conjugate() == lam and conj.weight == lam.weight
        assert seals == [len(conj), len(lam)]


def test_untraced_runs_seal_a_fixed_number_of_times(monkeypatch):
    # the running example at j = 1 and 3 takes 4 and 3 steps; a traced fold
    # seals the mex split and each step, and an untraced fold or unfold only
    # its output
    golden = pathlib.Path(__file__).parent / "golden"
    calls = []

    def counting(buf):
        calls.append(len(buf))
        return _sealed(buf)

    _patch_sealed(monkeypatch, counting)
    lam = Partition.from_text("11,8,7,7,5,5,4,3,2,2")
    for j, steps in ((1, 4), (3, 3)):
        text = (golden / f"trace_fold_j{j}.txt").read_text().splitlines()
        assert sum(line[0].isdigit() for line in text) == steps
        calls.clear()
        image, trace = fold(j, lam)
        assert (len(trace), len(calls)) == (steps, 1 + steps)
        calls.clear()
        assert maps._folded(j, lam, False) == image
        assert len(calls) == 1  # the output, not the split start
        calls.clear()
        assert maps._unfolded(j, image, False) == lam
        assert len(calls) == 1  # the output of the mex join


_UNTRACED = (
    [getattr(maps, name) for name in (
        "detach_step", "attach_step", "to_low_crank", "from_low_crank", "mex_to_crank",
        "crank_to_mex")]
    + [lambda j, lam, odd=odd, body=body: body(j, lam, odd)
       for body in (maps._folded, maps._unfolded) for odd in (False, True)]
    + [lambda j, lam: negate_crank(lam)]
)


def test_every_map_call_seals_its_output_once(monkeypatch):
    # The stages of a map pass sorted parts, so a call seals its output once,
    # and nothing when the output is its input, also when its run steps from
    # a start held as a list (a split, detached or from-low start).  A traced
    # map also seals each state of its trace: its start, if not the input,
    # and the partition of every step.
    seals, stepped = [], []
    iterate = maps._iterate

    def counting(buf):
        seals.append(len(buf))
        return _sealed(buf)

    def watched(start, *args):
        end = iterate(start, *args)
        stepped.append(end is not start and type(start[2]) is list)
        return end

    _patch_sealed(monkeypatch, counting)
    monkeypatch.setattr(maps, "_iterate", watched)
    seen = Counter()
    for n in range(13):
        for lam in partitions_of(n):
            for j in range(4):
                for f in _UNTRACED + [fold, unfold, fold_complement, unfold_complement]:
                    seals.clear()
                    stepped.clear()
                    try:
                        out = f(j, lam)
                    except DomainError:
                        assert seals == [], (f, j, lam)
                        continue
                    if isinstance(out, tuple):  # a traced map
                        out, trace = out
                        states = len(trace) + (trace.start.lam is not lam)
                        expected = states + (out is not trace.end.lam)
                    else:
                        expected = out is not lam
                    assert len(seals) == expected, (f, j, lam)
                    seen["calls"] += 1
                    seen["unmoved"] += out is lam
                    seen["list starts"] += sum(stepped)
                if j + 1 not in lam.parts and not lam.has_arm(j):
                    # unfold has no part j + 1 to absorb: no step, no join
                    assert maps._unfolded(j, lam, False) is lam is unfold(j, lam)[0]
                    seen["unmoved unfolds"] += 1
    # unmoved outputs and runs stepping from a list occur in the scan
    assert min(seen.values()) > 400, seen


@pytest.mark.parametrize(
    "buf, message",
    [
        ([3, 0, 2], "must be positive, got 0"),
        ([3, -1, 2], "must be positive, got -1"),
        ([3, 2.0, 1], "is not an integer: 2.0"),
        ([Fraction(3), 1], "is not an integer"),
        ([MAX_WEIGHT, 1], f"weight {MAX_WEIGHT + 1} exceeds the supported maximum"),
        # the sort itself raises; the part is still named, not a bare TypeError
        ([3, None], "part #1 is not an integer: None"),
    ],
)
def test_sealed_rejects_what_the_sort_cannot_guarantee(buf, message):
    # a bad part is a map bug; only the weight cap can come from valid inputs
    error = PartitionError if message.startswith("weight") else IterationLimitError
    with pytest.raises(error, match=message):
        _sealed(buf)


def test_sealed_sorts_and_recomputes_the_weight():
    parts = [9, 7, 7, 4, 2, 1, 1, 1]
    shuffled = parts[:]
    random.Random(5).shuffle(shuffled)
    lam = _sealed(shuffled)
    assert lam == _sealed(parts[:]) == Partition(parts)
    assert lam.parts == tuple(parts)
    assert lam.weight == sum(parts)
    assert _sealed([]) == Partition()


# the first misordered part of each input's output, as the public constructor
# named it before negate_crank sealed through _sealed_in_order
_FIRST_MISORDERED = {
    (9, 5, 2, 1): "part #4 (2) exceeds part #3 (1)",
    (5, 3, 1, 1, 1): "part #3 (3) exceeds part #2 (2)",
    (4, 2, 2, 1, 1, 1): "part #3 (4) exceeds part #2 (2)",
    (7, 4, 1): "part #3 (2) exceeds part #2 (1)",
}


@pytest.mark.parametrize("parts", list(_FIRST_MISORDERED))
def test_negate_crank_raises_on_a_misordered_conjugate(monkeypatch, parts):
    # a conjugate in ascending order: for these inputs the rebuilt buffer
    # comes out misordered, which a sorting constructor would hide
    def ascending(parts):
        return sorted(core._conjugate_parts(parts))

    monkeypatch.setattr(maps, "_conjugate_parts", ascending)
    lam = Partition(parts)
    assert lam.count(1) and lam.count_above(lam.count(1))  # both 1s and tall parts
    with pytest.raises(IterationLimitError) as info:
        negate_crank(lam)
    assert str(info.value) == (
        "negate_crank broke an internal invariant: parts must be non-increasing: "
        + _FIRST_MISORDERED[parts]
    )


def _none_third(parts):
    conj = _conjugate_parts(parts)
    conj[2] = None
    return conj


def _none_last(parts):
    return [*_conjugate_parts(parts), None]


@pytest.mark.parametrize("module, patched, call, message", [
    (maps, _none_third, negate_crank,
     "negate_crank broke an internal invariant: part #2 is not an integer: None"),
    (core, _none_last, Partition.conjugate,
     "conjugate broke an internal invariant: part #10 is not an integer: None"),
], ids=["negate_crank", "conjugate"])
def test_a_part_that_does_not_compare_names_the_map(monkeypatch, module, patched, call, message):
    # the order check cannot compare None with an int: the part is named as
    # the public constructor named it, not raised as a bare TypeError
    monkeypatch.setattr(module, "_conjugate_parts", patched)
    with pytest.raises(IterationLimitError) as info:
        call(Partition((9, 5, 2, 1)))
    assert str(info.value) == message
