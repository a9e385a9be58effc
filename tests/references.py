"""Crankmex-free references for every map, written from the definitions.

A partition is a plain tuple of parts in non-increasing order.  ``d`` is the
shifted Durfee size from its definition (the unique ``i`` with ``part(i) - i
>= j > part(i+1) - (i+1)``, ``part(0)`` infinite and ``part(i)`` 0 past the
last part), and every edit is done on a ``collections.Counter`` of the parts.
A map reference returns None outside the map's domain.  Nothing here imports
crankmex, so a wrong answer from the library cannot also change its oracle.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import random
from collections import Counter
from pathlib import Path

FIXED_POINT = 0  # the case tag of a step that leaves its state unchanged


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


def ref_run(step, j: int, k: int, parts: tuple, odd: bool) -> list[tuple[int, tuple]]:
    """The states ``(k, parts)`` the reference steps pass through, the start first.

    Bounded by the pair weight plus 1, and failing on a fixed state.
    """
    states = [(k, parts)]
    m = 2 * k + odd
    for _ in range(m * (m + 1) // 2 + j * m + sum(parts) + 1):
        moved = step(j, k, parts, odd)
        if moved is None:
            return states
        case, _, k, parts = moved
        assert case in (1, 2), ("fixed state", step.__name__, j, k, parts)
        states.append((k, parts))
    raise AssertionError(("reference run did not stop", step.__name__, j, parts))


def ref_folded(j: int, parts: tuple, odd: bool):
    """``(start, image)`` of fold, or of fold_complement if ``odd``; None off the domain."""
    run, rest = ref_mex_split(j, parts)
    if run % 2 != odd:  # the mex offset run + 1 has the wrong parity
        return None
    _, end = ref_run(ref_fold, j, run // 2, rest, odd)[-1]
    image = ref_attach(j, end) if odd else end
    assert image is not None, (j, parts, end)  # the run leaves no arm j + 1
    return (j, run // 2, rest, odd), image


def ref_unfolded(j: int, parts: tuple, odd: bool):
    """``(start, image)`` of unfold, or of unfold_complement if ``odd``; None off the domain."""
    if odd:
        lam = ref_detach(j, parts)  # None without arm j
    else:
        lam = None if _has_arm(parts, j) else parts
    if lam is None:
        return None
    k, rest = ref_run(ref_unfold, j, 0, lam, odd)[-1]
    return (j, 0, lam, odd), _moved(rest, (0, 0), insert=range(j + 1, j + 2 * k + odd + 1))


def ref_mex_to_crank(j: int, parts: tuple):
    """None outside the domain: weight below 2, no part ``j >= 1``, or an even mex offset."""
    if sum(parts) < 2 or (j and j not in parts):
        return None
    folded = ref_folded(j, parts, False)
    if folded is None:  # an even mex offset
        return None
    low = ref_to_low_crank(j, folded[1])
    assert low is not None, (j, parts, folded)  # arm-free, with the part j kept
    return ref_negate_crank(low)[1]


def ref_crank_to_mex(j: int, parts: tuple):
    """None outside the domain: weight below 2 or crank below ``j``."""
    if sum(parts) < 2 or ref_crank(parts) < j:
        return None
    low = ref_from_low_crank(j, ref_negate_crank(parts)[1])
    assert low is not None and not _has_arm(low, j), (j, parts, low)
    return ref_unfolded(j, low, False)[1]


def load_oracle():
    """``perfbench/oracle.py``, which imports no crankmex either."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def seeded_partitions():
    """40 seeded uniform partitions of weight 200..1000.

    Built once per session (the sampler's tables take a few tenths of a
    second) and returned as a tuple of tuples, so no caller can change them.
    """
    sampler = load_oracle().PartitionSampler(1000)
    rng = random.Random(20221)
    return tuple(sampler.sample(rng.randint(200, 1000), rng) for _ in range(40))
