"""Reference statistics, a uniform partition sampler and the expected suite cells.

Nothing here imports ``crankmex``: these are the benchmark's own oracles, so a
wrong answer from the library cannot also change what it is checked against.
A partition is a tuple of positive integers in non-increasing order.
"""

from __future__ import annotations

import bisect
import random


def is_partition(parts) -> bool:
    return all(type(p) is int and p >= 1 for p in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


def crank(parts) -> int:
    """Largest part if there are no 1s, else (#parts above the #1s) minus the #1s."""
    if not parts:
        return 0
    ones = parts.count(1)
    if ones == 0:
        return parts[0]
    return sum(1 for p in parts if p > ones) - ones


def mex(parts, j: int) -> int:
    """Smallest integer above ``j`` that is not a part."""
    present = set(parts)
    m = j + 1
    while m in present:
        m += 1
    return m


def has_odd_mex(parts, j: int) -> bool:
    return (mex(parts, j) - j) % 2 == 1


def durfee_size(parts, j: int) -> int:
    """Number of 1-based indices ``i`` with ``parts[i] - i >= j``."""
    return sum(1 for i, p in enumerate(parts, 1) if p - i >= j)


def has_arm(parts, j: int) -> bool:
    """Whether some 1-based index ``i`` has ``parts[i] - i == j``."""
    return any(p - i == j for i, p in enumerate(parts, 1))


class PartitionSampler:
    """Uniform sampler of partitions of ``n`` for every ``n <= max_n``.

    ``bounded[m][k]`` is the exact number of partitions of ``m`` into parts of
    size at most ``k`` (``k <= m``).  A sample picks its largest part first,
    each value weighted by the number of partitions that start with it, then
    recurses on the remainder with that part as the new bound.  Row ``m`` is
    the cumulative sum of those weights, so the pick is a bisection.
    """

    def __init__(self, max_n: int):
        bounded = [[1]]
        for m in range(1, max_n + 1):
            row = [0] * (m + 1)
            for k in range(1, m + 1):
                rest = m - k
                row[k] = row[k - 1] + bounded[rest][min(k, rest)]
            bounded.append(row)
        self._bounded = bounded

    def count(self, n: int) -> int:
        return self._bounded[n][n]

    def sample(self, n: int, rng: random.Random) -> tuple[int, ...]:
        parts = []
        cap = n
        while n:
            row = self._bounded[n]
            cap = min(cap, n)
            top = bisect.bisect_right(row, rng.randrange(row[cap]), 0, cap + 1)
            parts.append(top)
            n -= top
            cap = top
        return tuple(parts)


# Checks of the theorem suite that need weight at least 2 and are reported as
# "skip" below it; the others pass at every weight.
_PER_J_ALWAYS = (
    "count-odd-mex-vs-arm-free",
    "count-even-mex-vs-arm-bearing",
    "series-vs-enumeration",
    "low-crank-criterion",
    "bijection-fold",
    "bijection-fold-complement",
)
_PER_J_WEIGHT_2 = (
    "count-arm-free-vs-low-crank",
    "count-odd-mex-vs-high-crank",
    "bijection-low-crank",
    "bijection-mex-to-crank",
)


def expected_suite_cells(max_n: int, max_j: int) -> dict[tuple, str]:
    """Every ``(name, n, j)`` cell the theorem suite must report, with its status.

    All identities hold, so every cell passes, except the crank identities at
    weights 0 and 1, which the suite reports as skipped.
    """
    cells = {}
    for n in range(max_n + 1):
        cells[("crank-negation", n, None)] = "pass" if n >= 2 else "skip"
        cells[("crank-symmetry", n, None)] = "pass"
        cells[("crank-row-sum", n, None)] = "pass"
        for j in range(max_j + 1):
            for name in _PER_J_ALWAYS:
                cells[(name, n, j)] = "pass"
            for name in _PER_J_WEIGHT_2:
                cells[(name, n, j)] = "pass" if n >= 2 else "skip"
    return cells
