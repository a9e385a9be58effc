"""Exact images of ``negate_crank``, the low-crank pair and the composites against references.

The references are written from the docstrings and work on plain tuples; they
import nothing from crankmex.  ``negate_crank``'s third case reads the column
lengths of the Young diagram, counted cell by cell; the low-crank pair goes
through the shifted Durfee size ``d`` at ``j`` from its definition.  The other
tests of these maps check a few reference rows and properties (weight, crank,
involution, Durfee size) that a different map with the same properties would
also pass; this compares every image.  ``mex_to_crank`` and ``crank_to_mex``
are compared with compositions of these references, the mex split written
from its definition and the reference fold and unfold steps of
``test_step_oracle``, so their images rest on no crankmex code.
"""

from __future__ import annotations

from collections import Counter

import pytest

from crankmex import (
    DomainError,
    Partition,
    crank_to_mex,
    from_low_crank,
    mex_to_crank,
    negate_crank,
    to_low_crank,
)
from test_large_weights import seeded_partitions
from test_step_oracle import (
    _durfee,
    _has_arm,
    _moved,
    _part,
    _partitions,
    ref_fold,
    ref_unfold,
)

MAX_WEIGHT = 20
MAX_J = 8


def ref_crank(parts: tuple) -> int:
    w = parts.count(1)
    if w == 0:
        return parts[0] if parts else 0
    return sum(1 for p in parts if p > w) - w


def _columns(parts: tuple) -> Counter:
    """Column lengths of the Young diagram of ``parts``, counted cell by cell."""
    cols = Counter()
    for row in parts:
        for i in range(1, row + 1):
            cols[i] += 1
    return cols


def ref_negate_crank(parts: tuple):
    """``(case, image)`` with ``w`` the number of 1s and ``t`` the parts above ``w``."""
    w = parts.count(1)
    if w == 0:
        return "w=0", parts[1:] + (1,) * parts[0]
    t = sum(1 for p in parts if p > w)
    if t == 0:
        return "t=0", (w,) + tuple(p for p in parts if p != 1)
    c = _columns(parts)
    assert c[w + 1] == t
    r = max(w, _part(parts, 2) - 1)
    image = [c[2] + _part(parts, 1) - r]
    image += [c[i] + 1 for i in range(2, w + 1)]
    image += [c[i] for i in range(w + 2, r + 2)]
    image += [1] * t
    return "t>0", tuple(image)


def ref_to_low_crank(j: int, parts: tuple):
    """None outside the domain: weight below 2, no part ``j >= 1``, or arm ``j``."""
    if sum(parts) < 2 or (j and j not in parts) or _has_arm(parts, j):
        return None
    d = _durfee(parts, j)
    return _moved(parts, (d, -1), delete=[j] if j else [], insert=[1] * (d + j))


def ref_from_low_crank(j: int, parts: tuple):
    """None outside the domain: weight below 2 or crank above ``-j``."""
    if sum(parts) < 2 or ref_crank(parts) > -j:
        return None
    d = _durfee(parts, j)
    ones = d + j
    assert parts[len(parts) - ones :] == (1,) * ones  # the guaranteed trailing 1s
    return _moved(parts[: len(parts) - ones], (d, +1), insert=[j] if j else [])


def ref_mex_split(j: int, parts: tuple) -> tuple[int, tuple]:
    """``(run, rest)``: the parts ``j + 1, ..., j + run`` all occur, ``j + run + 1`` does not."""
    run = 0
    while j + run + 1 in parts:
        run += 1
    return run, _moved(parts, (0, 0), delete=range(j + 1, j + run + 1))


def ref_run(step, j: int, k: int, parts: tuple) -> tuple[int, tuple]:
    """The end ``(k, parts)`` of the reference steps from the staircase of length ``2k``.

    Bounded by the pair weight plus 1, and failing on a fixed state.
    """
    m = 2 * k
    for _ in range(m * (m + 1) // 2 + j * m + sum(parts) + 1):
        moved = step(j, k, parts, False)
        if moved is None:
            return k, parts
        case, _, k, parts = moved
        assert case in (1, 2), ("fixed state", step.__name__, j, k, parts)
    raise AssertionError(("reference run did not stop", step.__name__, j, parts))


def ref_mex_to_crank(j: int, parts: tuple):
    """None outside the domain: weight below 2, no part ``j >= 1``, or an even mex offset."""
    if sum(parts) < 2 or (j and j not in parts):
        return None
    run, rest = ref_mex_split(j, parts)
    if run % 2:  # the mex offset is run + 1
        return None
    _, folded = ref_run(ref_fold, j, run // 2, rest)
    low = ref_to_low_crank(j, folded)
    assert low is not None, (j, parts, folded)  # arm-free, with the part j kept
    return ref_negate_crank(low)[1]


def ref_crank_to_mex(j: int, parts: tuple):
    """None outside the domain: weight below 2 or crank below ``j``."""
    if sum(parts) < 2 or ref_crank(parts) < j:
        return None
    low = ref_from_low_crank(j, ref_negate_crank(parts)[1])
    assert low is not None and not _has_arm(low, j), (j, parts, low)
    k, rest = ref_run(ref_unfold, j, 0, low)
    return _moved(rest, (0, 0), insert=range(j + 1, j + 2 * k + 1))


def _check_negation(parts: tuple) -> str:
    case, expected = ref_negate_crank(parts)
    # the reference itself keeps the weight and negates the crank
    assert sum(expected) == sum(parts) and ref_crank(expected) == -ref_crank(parts)
    assert negate_crank(Partition(parts)).parts == expected, parts
    return case


LOW_CRANK = ((to_low_crank, ref_to_low_crank), (from_low_crank, ref_from_low_crank))
COMPOSITES = ((mex_to_crank, ref_mex_to_crank), (crank_to_mex, ref_crank_to_mex))


def _check_pair(pair, j: int, parts: tuple) -> tuple[bool, bool]:
    """Compare both maps of ``pair`` at ``j`` with their references; which ones entered."""
    lam = Partition(parts)
    entered = []
    for fn, ref in pair:
        expected = ref(j, parts)
        entered.append(expected is not None)
        if expected is None:
            with pytest.raises(DomainError):
                fn(j, lam)
        else:
            assert fn(j, lam).parts == expected, (fn.__name__, j, parts)
    return tuple(entered)


def test_negate_crank_matches_the_reference():
    cases = Counter(
        _check_negation(parts) for n in range(2, MAX_WEIGHT + 1) for parts in _partitions(n)
    )
    assert min(cases.values()) > 100 and len(cases) == 3, cases


def test_low_crank_pair_matches_the_reference():
    entered = Counter()
    for n in range(MAX_WEIGHT + 1):
        for parts in _partitions(n):
            for j in range(MAX_J + 1):
                to_low, from_low = _check_pair(LOW_CRANK, j, parts)
                entered["to_low_crank", to_low] += 1
                entered["from_low_crank", from_low] += 1
    assert min(entered.values()) > 1000, entered


def test_the_references_hold_at_large_weight():
    cases = Counter()
    for parts in seeded_partitions():
        cases[_check_negation(parts)] += 1
        for j in range(MAX_J + 1):
            cases["low", _check_pair(LOW_CRANK, j, parts)] += 1
        for j in range(4):
            cases["composite", _check_pair(COMPOSITES, j, parts)] += 1
    assert cases["t>0"] and cases["low", (True, False)] and cases["low", (False, True)], cases
    assert cases["composite", (True, False)] and cases["composite", (False, True)], cases


def test_composites_match_the_composed_references():
    entered = Counter()
    for n in range(MAX_WEIGHT + 1):
        for parts in _partitions(n):
            for j in range(MAX_J + 1):
                to_crank, to_mex = _check_pair(COMPOSITES, j, parts)
                entered["mex_to_crank", to_crank] += 1
                entered["crank_to_mex", to_mex] += 1
    assert min(entered.values()) > 1000, entered
