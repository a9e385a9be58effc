"""The step maps, the arm maps and the four traced maps against the references.

The references, in ``references.py``, are written from the definitions on
plain tuples and import nothing from crankmex.  Criterion 9 checks invariants
and round trips only, which a wrong but self-consistent pair of maps would
pass; this compares the exact output of every step, and the image, direction,
start state and every step of each trace of ``fold``, ``unfold``,
``fold_complement`` and ``unfold_complement``.  Each of these maps' bodies,
``_folded`` and ``_unfolded``, also runs without a trace, as ``mex_to_crank``,
``crank_to_mex`` and ``crankmex map`` run it, and must give the same image or
the same ``DomainError``.
"""

from __future__ import annotations

from collections import Counter

from crankmex import DomainError, IterationLimitError, Partition
from crankmex.maps import (
    FIXED_POINT,
    PairState,
    StepResult,
    _fold_move,
    _folded,
    _iterate,
    _unfold_move,
    _unfolded,
    attach_step,
    detach_step,
    fold,
    fold_complement,
    fold_step,
    unfold,
    unfold_complement,
    unfold_step,
)
from references import (
    _partitions,
    ref_attach,
    ref_detach,
    ref_fold,
    ref_folded,
    ref_unfold,
    ref_unfolded,
    seeded_partitions,
)

MAX_PAIR_WEIGHT = 16
MAX_J = 3
MAX_MAP_WEIGHT = 14
MAX_MAP_J = 4


def _states():
    for odd in (False, True):
        for j in range(MAX_J + 1):
            k = 0
            while True:
                m = 2 * k + odd
                stair_weight = m * (m + 1) // 2 + j * m
                if stair_weight > MAX_PAIR_WEIGHT:
                    break
                for w in range(MAX_PAIR_WEIGHT - stair_weight + 1):
                    for parts in _partitions(w):
                        yield j, k, parts, odd
                k += 1


def _outcome(case, d, after, j, odd):
    """A step's ``(case, d, k, parts)``, as the references give it; checks the rest of ``after``."""
    assert (after.j, after.odd, after.lam.weight) == (j, odd, sum(after.lam.parts)), after
    return case, d, after.k, after.lam.parts


def _rejection(call, *args):
    """The message of the DomainError that ``call(*args)`` raises; None if it returns."""
    try:  # a bare try: pytest.raises costs about twice as much per call
        call(*args)
    except DomainError as exc:
        return str(exc)
    return None


def _check_step(step, expected, j, k, parts, odd, accepted):
    """The step's case, checked; a terminal state it accepts goes to ``accepted``."""
    state = PairState(j, k, Partition(parts), odd=odd)
    if expected is None:
        if _rejection(step, state) is None:
            accepted.append((step.__name__, state))
        return "terminal"
    result = step(state)
    assert _outcome(result.case, result.d, result.state, j, odd) == expected, (state, result)
    return result.case


STEPS = (("fold", fold_step, ref_fold), ("unfold", unfold_step, ref_unfold))


def test_fold_and_unfold_steps_match_the_reference():
    cases = Counter()
    accepted = []
    for j, k, parts, odd in _states():
        for direction, step, ref in STEPS:
            expected = ref(j, k, parts, odd)
            cases[direction, _check_step(step, expected, j, k, parts, odd, accepted)] += 1
    assert not accepted
    # both cases, the fixed point and the terminal state all occur in the scan
    for direction in ("fold", "unfold"):
        for case in (1, 2, FIXED_POINT, "terminal"):
            assert cases[direction, case] > 100, (direction, case, cases)


def _run(start, move, direction, steps=None):
    try:
        end = _iterate(start, move, direction, steps)
    except IterationLimitError as exc:
        return str(exc)
    if type(end) is tuple:  # untraced, and stepped or started bare: its sorted parts
        assert steps is None
        j, k, parts, odd = end
        return j, k, Partition(parts), odd
    return end


def test_iterations_with_and_without_a_trace_agree_and_replay():
    # _iterate builds states only when it keeps a trace, from a PairState; the
    # untraced run, from the bare (j, k, parts, odd) tuple that the untraced
    # bodies pass, with the parts as a tuple or a sorted list, must end alike,
    # and every traced step must be what the public step map returns
    ends = Counter()
    for j, k, parts, odd in _states():
        start = PairState(j, k, Partition(parts), odd=odd)
        bare = (j, k, start.lam.parts, odd)
        for direction, move, step in (
            ("fold", _fold_move, fold_step),
            ("unfold", _unfold_move, unfold_step),
        ):
            steps = []
            end = _run(start, move, direction, steps)
            bare_end = _run(bare, move, direction)
            assert bare_end == end, (direction, start)
            listed = (j, k, list(parts), odd)
            assert _run(listed, move, direction) == end, (direction, start)
            if not steps and not isinstance(end, str):
                # no step: the start itself
                assert _iterate(bare, move, direction) is bare, (direction, start)
            for s in steps:
                assert s.direction == direction
                assert step(s.before) == StepResult(s.after, s.case, s.d), (direction, start)
            if isinstance(end, str):
                ends[direction, "fixed"] += 1
                continue
            assert [s.before for s in steps[1:]] == [s.after for s in steps[:-1]]
            assert end == (steps[-1].after if steps else start)
            ends[direction, "moved" if steps else "still"] += 1
    # runs that move, runs that stop at once and runs that hit a fixed state
    # all occur in the scan
    assert min(ends.values()) > 100 and len(ends) == 6, ends


def test_detach_and_attach_match_the_reference():
    seen = Counter()
    accepted = []
    for j in range(MAX_J + 1):
        for w in range(MAX_PAIR_WEIGHT + 1):
            for parts in _partitions(w):
                lam = Partition(parts)
                for name, step, ref in (
                    ("detach", detach_step, ref_detach),
                    ("attach", attach_step, ref_attach),
                ):
                    expected = ref(j, parts)
                    seen[name, expected is None] += 1
                    if expected is None:
                        if _rejection(step, j, lam) is None:
                            accepted.append((name, j, parts))
                        continue
                    out = step(j, lam)
                    assert out.parts == expected, (name, j, parts)
                    assert out.weight == sum(expected)
    assert not accepted
    assert min(seen.values()) > 100, seen


# each traced map: (direction, reference step, composed reference, odd)
TRACED = {
    fold: ("fold", ref_fold, ref_folded, False),
    fold_complement: ("fold", ref_fold, ref_folded, True),
    unfold: ("unfold", ref_unfold, ref_unfolded, False),
    unfold_complement: ("unfold", ref_unfold, ref_unfolded, True),
}


def _check_trace(trace, ref, direction, j, odd):
    """Every step of ``trace`` is the reference step; the reference stops at its end."""
    cur = trace.start
    for step in trace.steps:
        assert (step.direction, step.before) == (direction, cur), (j, step)
        expected = ref(j, cur.k, cur.lam.parts, odd)
        assert _outcome(step.case, step.d, step.after, j, odd) == expected, (j, step)
        cur = step.after
    assert trace.end == cur
    assert ref(j, cur.k, cur.lam.parts, odd) is None, (j, cur)
    return [step.case for step in trace.steps]


def _check_map(fn, j: int, parts: tuple, accepted: list):
    """``fn``'s image and its trace's cases at ``j``, checked; None where it rightly raises.

    ``fn``'s body, run with no pair, must give the same image or the same
    ``DomainError``; an input outside the domain that ``fn`` accepts goes to
    ``accepted``.
    """
    direction, ref_step, ref_map, odd = TRACED[fn]
    body = _folded if direction == "fold" else _unfolded
    lam = Partition(parts)
    expected = ref_map(j, parts, odd)
    if expected is None:
        message = _rejection(fn, j, lam)
        if message is None:
            accepted.append((fn.__name__, j, parts))
        else:
            assert _rejection(body, j, lam, odd) == message, (fn.__name__, j, parts)
        return None
    start, image = expected
    out, trace = fn(j, lam)
    assert body(j, lam, odd).parts == image, (fn.__name__, j, parts)
    first = trace.start
    got = out.parts, trace.direction, (first.j, first.k, first.lam.parts, first.odd)
    assert got == (image, direction, start), (fn.__name__, j, parts)
    assert out.weight == sum(image)
    return out, _check_trace(trace, ref_step, direction, j, odd)


def test_traced_maps_match_the_composed_references():
    # the images, the DomainError sets, and each trace's direction, start,
    # steps and end of all four traced maps
    entered = Counter()
    accepted = []
    for n in range(MAX_MAP_WEIGHT + 1):
        for parts in _partitions(n):
            for j in range(MAX_MAP_J + 1):
                for fn in TRACED:
                    entered[fn.__name__, _check_map(fn, j, parts, accepted) is not None] += 1
    assert not accepted
    assert min(entered.values()) > 200 and len(entered) == 8, entered


def test_every_step_on_long_partitions_matches_the_reference():
    # the states above stop at pair weight MAX_PAIR_WEIGHT; these runs edit
    # partitions of weight 200..1000 step by step, both ways
    cases = Counter()
    accepted = []
    for parts in seeded_partitions():
        for j in range(MAX_J + 1):
            for forward, backward in ((fold, unfold), (fold_complement, unfold_complement)):
                checked = _check_map(forward, j, parts, accepted)
                if checked is None:  # the mex offset's parity picks one of the two
                    continue
                image, fold_cases = checked
                back, unfold_cases = _check_map(backward, j, image.parts, accepted)
                assert back.parts == parts, (forward.__name__, j, parts)
                cases[forward.__name__] += 1
                cases.update(("fold", case) for case in fold_cases)
                cases.update(("unfold", case) for case in unfold_cases)
    assert not accepted
    assert cases["fold"] + cases["fold_complement"] == 160 and cases["fold_complement"], cases
    for direction in ("fold", "unfold"):
        for case in (1, 2):
            assert cases[direction, case] > 20, cases
