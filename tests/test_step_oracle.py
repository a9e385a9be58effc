"""Single steps of the staircase maps against a reference written from their docstrings.

The reference works on plain tuples: ``d`` comes from the definition of the
shifted Durfee size (the unique ``i`` with ``part(i) - i >= j > part(i+1) -
(i+1)``, where ``part(0)`` is infinite and ``part(i)`` is 0 past the last
part), and every delete, insert and shift is done on a ``collections.Counter``
of the parts.  Criterion 9 checks invariants and round trips only, which a
wrong but self-consistent pair of maps would pass; this compares the exact
output of every step.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from crankmex import DomainError, IterationLimitError, Partition
from crankmex.maps import (
    FIXED_POINT,
    PairState,
    StepResult,
    _fold_move,
    _iterate,
    _unfold_move,
    attach_step,
    detach_step,
    fold,
    fold_complement,
    fold_step,
    unfold,
    unfold_complement,
    unfold_step,
)
from test_large_weights import seeded_partitions

MAX_PAIR_WEIGHT = 16
MAX_J = 3


def _partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for head in range(min(n, cap), 0, -1):
        for tail in _partitions(n - head, head):
            yield (head,) + tail


def _part(parts: tuple, i: int):
    if i == 0:
        return math.inf
    return parts[i - 1] if i <= len(parts) else 0


def _durfee(parts: tuple, j: int) -> int:
    i = 0
    while not (_part(parts, i) - i >= j > _part(parts, i + 1) - (i + 1)):
        i += 1
    return i


def _has_arm(parts: tuple, j: int) -> bool:
    d = _durfee(parts, j)
    return d >= 1 and _part(parts, d) - d == j


def _moved(parts: tuple, shift_top: tuple[int, int], delete=(), insert=()) -> tuple:
    """``parts`` with the ``count`` largest shifted by ``delta``, then deletes and inserts."""
    count, delta = shift_top
    bag = Counter(parts)
    for i in range(1, count + 1):
        bag[_part(parts, i)] -= 1
        bag[_part(parts, i) + delta] += 1
    for value in delete:
        bag[value] -= 1
    for value in insert:
        bag[value] += 1
    assert all(c >= 0 for c in bag.values()), "deleted a part that is not there"
    return tuple(sorted(bag.elements(), reverse=True))


def ref_fold(j: int, k: int, parts: tuple, odd: bool):
    """``(case, d, k, parts)`` of one fold step, or None on a terminal state."""
    s = j + 2 * k + odd
    d = _durfee(parts, s)
    if _has_arm(parts, s):
        if d == 1:
            return FIXED_POINT, d, k, parts
        return 1, d, k, _moved(parts, (d - 1, +1), delete=[_part(parts, d)], insert=[s + 1])
    if k == 0:
        return None
    return 2, d, k - 1, _moved(parts, (d, -1), insert=[d + s, s - 1])


def ref_unfold(j: int, k: int, parts: tuple, odd: bool):
    """``(case, d, k, parts)`` of one unfold step, or None on a terminal state."""
    target = j + 2 * k + odd + 1
    if target not in parts:
        return None
    d = _durfee(parts, target)
    if _has_arm(parts, target):
        return 1, d, k + 1, _moved(parts, (d - 1, +1), delete=[_part(parts, d), target])
    if d == 0:
        return FIXED_POINT, d, k, parts
    return 2, d, k, _moved(parts, (d, -1), delete=[target], insert=[d + target])


def ref_detach(j: int, parts: tuple):
    if not _has_arm(parts, j):
        return None
    d = _durfee(parts, j)
    return _moved(parts, (d - 1, +1), delete=[_part(parts, d)])


def ref_attach(j: int, parts: tuple):
    if _has_arm(parts, j + 1):
        return None
    d = _durfee(parts, j + 1)
    return _moved(parts, (d, -1), insert=[j + 1 + d])


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


def _check_step(step, expected, j, k, parts, odd):
    state = PairState(j, k, Partition(parts), odd=odd)
    if expected is None:
        with pytest.raises(DomainError):
            step(state)
        return "terminal"
    case, d, k_after, parts_after = expected
    result = step(state)
    assert (result.case, result.d) == (case, d), (state, result)
    after = result.state
    assert (after.j, after.k, after.odd) == (j, k_after, odd), (state, result)
    assert after.lam.parts == parts_after, (state, result)
    assert after.lam.weight == sum(parts_after)
    return case


def test_fold_and_unfold_steps_match_the_reference():
    cases = Counter()
    for j, k, parts, odd in _states():
        cases["fold", _check_step(fold_step, ref_fold(j, k, parts, odd), j, k, parts, odd)] += 1
        cases["unfold", _check_step(unfold_step, ref_unfold(j, k, parts, odd), j, k, parts, odd)] += 1
    # both cases, the fixed point and the terminal state all occur in the scan
    for direction in ("fold", "unfold"):
        for case in (1, 2, FIXED_POINT, "terminal"):
            assert cases[direction, case] > 100, (direction, case, cases)


def _run(start, move, direction, steps=None):
    try:
        return _iterate(start, move, direction, steps)
    except IterationLimitError as exc:
        return str(exc)


def test_iterations_with_and_without_a_trace_agree_and_replay():
    # _iterate builds states only when it keeps a trace; both runs must end
    # alike, and every traced step must be what the public step map returns
    ends = Counter()
    for j, k, parts, odd in _states():
        start = PairState(j, k, Partition(parts), odd=odd)
        for direction, move, step in (
            ("fold", _fold_move, fold_step),
            ("unfold", _unfold_move, unfold_step),
        ):
            steps = []
            end = _run(start, move, direction, steps)
            assert _run(start, move, direction) == end, (direction, start)
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
                        with pytest.raises(DomainError):
                            step(j, lam)
                        continue
                    out = step(j, lam)
                    assert out.parts == expected, (name, j, parts)
                    assert out.weight == sum(expected)
    assert min(seen.values()) > 100, seen


def _check_trace(trace, ref, j, odd):
    """Every step of ``trace`` is the reference step; the reference stops at its end."""
    cur = trace.start
    for step in trace.steps:
        assert step.before == cur
        before = step.before
        expected = ref(j, before.k, before.lam.parts, odd)
        assert expected is not None, (j, before)
        case, d, k_after, parts_after = expected
        assert (step.case, step.d) == (case, d), (j, before, step)
        after = step.after
        assert (after.j, after.k, after.odd) == (j, k_after, odd), (j, before, step)
        assert after.lam.parts == parts_after, (j, before)
        assert after.lam.weight == sum(parts_after)
        cur = after
    assert trace.end == cur
    assert ref(j, cur.k, cur.lam.parts, odd) is None, (j, cur)
    return [step.case for step in trace.steps]


def test_every_step_on_long_partitions_matches_the_reference():
    # the states above stop at pair weight MAX_PAIR_WEIGHT; these runs edit
    # partitions of weight 200..1000 step by step, both ways
    cases = Counter()
    runs = 0
    for parts in seeded_partitions():
        lam = Partition(parts)
        for j in range(MAX_J + 1):
            odd = not lam.has_odd_mex(j)  # an even mex offset folds onto an odd staircase
            forward, backward = (fold_complement, unfold_complement) if odd else (fold, unfold)
            cases[forward.__name__] += 1
            image, trace = forward(j, lam)
            for case in _check_trace(trace, ref_fold, j, odd):
                cases["fold", case] += 1
            back, trace = backward(j, image)
            assert back == lam, (j, parts)
            for case in _check_trace(trace, ref_unfold, j, odd):
                cases["unfold", case] += 1
            runs += 1
    assert runs == 160 and cases["fold"] and cases["fold_complement"], cases
    for direction in ("fold", "unfold"):
        for case in (1, 2):
            assert cases[direction, case] > 20, cases
