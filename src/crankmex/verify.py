"""Counting oracles, the crank table, and the theorem suite.

All series arithmetic is exact integer arithmetic; enumeration order is fixed
(lexicographically decreasing) so that reports and golden files are stable.
The enumeration, :func:`~crankmex.core.partitions_of`, is defined in
:mod:`crankmex.core` and imported here: the suite and the crank table call it
as this module's global ``partitions_of``.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    ENUMERATION_LIMIT, DomainError, Partition, _check_nonnegative, _durfee_size, partitions_of,
)
from . import maps

__all__ = [
    "crank_table",
    "partition_series",
    "odd_mex_series",
    "CheckResult",
    "VerificationReport",
    "run_theorem_suite",
]


def _check_max_weight(max_weight: int) -> None:
    """Reject a ``max_weight`` bound before anything is enumerated."""
    _check_nonnegative("max_weight", max_weight)
    if max_weight > ENUMERATION_LIMIT:
        raise DomainError(f"max_weight is capped at {ENUMERATION_LIMIT}")


def _crank_row(n: int, cranks) -> dict[int, int]:
    """Count ``cranks``, those of the partitions of ``n``, by value.

    The weight-1 row is the Andrews-Garvan convention ``{1: 1, 0: -1, -1: 1}``
    (its one negative count), which keeps the row sum ``p(1) = 1`` and the
    symmetry ``row[m] == row[-m]``; ``cranks`` is then never read, so a lazy
    enumeration is not started.
    """
    if n == 1:
        return {1: 1, 0: -1, -1: 1}
    row: dict[int, int] = {}
    for crank in cranks:
        row[crank] = row.get(crank, 0) + 1
    return row


def crank_table(max_weight: int) -> dict[int, dict[int, int]]:
    """The crank rows ``{n: {m: count}}`` for all weights ``0..max_weight``.

    Each row is built by :func:`_crank_row`, weight-1 convention included;
    a crank no partition has is absent from its row.

    >>> crank_table(4)[1] == {1: 1, 0: -1, -1: 1}
    True

    A ``max_weight`` above ``ENUMERATION_LIMIT`` raises :class:`DomainError`
    before anything is enumerated.
    """
    _check_max_weight(max_weight)
    return {
        n: _crank_row(n, (lam.crank() for lam in partitions_of(n)))
        for n in range(max_weight + 1)
    }


def partition_series(order: int) -> list[int]:
    """Coefficients of the inverse Euler product, i.e. the counts p(0..order).

    Computed by the textbook dynamic programme over part sizes; exact
    integers throughout.
    """
    _check_nonnegative("order", order)
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            coeffs[n] += coeffs[n - part]
    return coeffs


def odd_mex_series(j: int, order: int) -> list[int]:
    """Counting series of the odd-mex-offset class at ``j``, up to ``order``.

    The inverse Euler product convolved with the sparse alternating series
    whose exponents are ``k*(k+1)//2 + j*k``.  Coefficient ``n`` equals the
    number of partitions of ``n`` whose mex offset at ``j`` is odd, and also
    the number avoiding arm ``j``.
    """
    _check_nonnegative("j", j)
    base = partition_series(order)
    out = [0] * (order + 1)
    k = 0
    while True:
        exponent = k * (k + 1) // 2 + j * k
        if exponent > order:
            break
        sign = -1 if k % 2 else 1
        for n in range(exponent, order + 1):
            out[n] += sign * base[n - exponent]
        k += 1
    return out


class CheckResult(NamedTuple):
    name: str
    n: int
    j: int | None
    status: str  # "pass" | "fail" | "skip"
    counterexample: str | None = None
    note: str = ""

    def to_record(self) -> dict:
        return self._asdict()


class VerificationReport:
    __slots__ = ("max_weight", "max_j", "results")

    def __init__(self, max_weight: int, max_j: int, results: list[CheckResult] | None = None):
        self.max_weight = max_weight
        self.max_j = max_j
        self.results = [] if results is None else results

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_records(self) -> list[dict]:
        return [r.to_record() for r in self.results]

    def summary_lines(self) -> list[str]:
        lines = [f"theorem suite: weights 0..{self.max_weight}, j 0..{self.max_j}"]
        tally: dict[str, dict[str, int]] = {}
        for r in self.results:
            cell = tally.setdefault(r.name, {"pass": 0, "fail": 0, "skip": 0})
            cell[r.status] += 1
        width = max(len(name) for name in tally) if tally else 4
        lines.append(f"{'check'.ljust(width)}  pass  fail  skip")
        for name in sorted(tally):
            cell = tally[name]
            lines.append(
                f"{name.ljust(width)}  {cell['pass']:4d}  {cell['fail']:4d}  {cell['skip']:4d}"
            )
        for r in self.failures:
            where = f"n={r.n}" + (f", j={r.j}" if r.j is not None else "")
            extra = f" counterexample={r.counterexample!r}" if r.counterexample else ""
            lines.append(f"FAIL {r.name} [{where}]{extra} {r.note}")
        lines.append("all checks passed" if self.all_passed else f"{len(self.failures)} check(s) failed")
        return lines


class _Weight(NamedTuple):  # what the per-weight checks read
    n: int
    classified: list  # (lam, crank, part_bits, arm_bits) for every partition of n
    row: dict[int, int]  # crank -> count, from the cranks in classified
    p: int  # coefficient n of partition_series, independent of the enumeration


class _Cell(NamedTuple):  # what the per-(n, j) checks read
    j: int
    classified: list
    series: int  # coefficient n of odd_mex_series(j)
    classes: dict[str, list[Partition]]


def _classes(classified, j):
    """The eight classes of the ``(n, j)`` cell, each listed in enumeration order."""
    odd_mex, even_mex, arm_free, arm_bearing = [], [], [], []
    odd_mex_with_part, arm_free_with_part, low_crank, high_crank = [], [], [], []
    bit = 1 << j
    for lam, crank, part_bits, arm_bits in classified:
        # bits j+1..j+run of part_bits are set and bit j+run+1 is not, so
        # above ^ (above + 1) is run + 1 low ones, and mex(j) - j = run + 1
        above = part_bits >> (j + 1)
        with_part = part_bits & bit
        if (above ^ (above + 1)).bit_length() & 1:
            odd_mex.append(lam)
            if with_part:
                odd_mex_with_part.append(lam)
        else:
            even_mex.append(lam)
        if arm_bits & bit:
            arm_bearing.append(lam)
        else:
            arm_free.append(lam)
            if with_part:
                arm_free_with_part.append(lam)
        if crank <= -j:
            low_crank.append(lam)
        if crank >= j:
            high_crank.append(lam)
    return dict(
        odd_mex=odd_mex, even_mex=even_mex, arm_free=arm_free, arm_bearing=arm_bearing,
        odd_mex_with_part=odd_mex_with_part, arm_free_with_part=arm_free_with_part,
        low_crank=low_crank, high_crank=high_crank,
    )


# -- the checks: each returns None or (counterexample or None, note) ----------


def _negation(weight):
    for lam, crank, _, _ in weight.classified:
        image = maps.negate_crank(lam)
        if image.weight != lam.weight:
            return lam.to_text(), "weight not preserved"
        if image.crank() != -crank:
            return lam.to_text(), "crank not negated"
        if maps.negate_crank(image) != lam:
            return lam.to_text(), "not an involution"
    return None


def _symmetry(weight):
    n, row = weight.n, weight.row
    for m in range(1, n + 1):
        if row.get(m, 0) != row.get(-m, 0):
            return None, f"count({m},{n}) != count({-m},{n})"
    return None


def _row_sum(weight):
    total, pn = sum(weight.row.values()), weight.p
    return None if total == pn else (None, f"row sum {total} != p({weight.n}) = {pn}")


def _series(cell):
    odd, free = len(cell.classes["odd_mex"]), len(cell.classes["arm_free"])
    if cell.series == odd == free:
        return None
    return None, f"series {cell.series}, classes {odd}/{free}"


def _crank_criterion(cell):
    j = cell.j
    for lam, crank, _, _ in cell.classified:
        if (crank <= -j) != (lam.count(1) >= _durfee_size(lam._parts, j) + j):
            return lam.to_text(), "crank/ones criterion mismatch"
    return None


def _count(a, b):
    """Check that classes ``a`` and ``b`` of the cell are equinumerous."""

    def check(cell):
        x, y = len(cell.classes[a]), len(cell.classes[b])
        return None if x == y else (None, f"{x} != {y}")

    return check


def _bijection(name, pair, classes, min_weight, odd, carried):
    """The suite row (name, minimum weight, check) of one ``maps._BIJECTIONS`` pair.

    The check looks its maps and ``carried`` up by name in ``maps`` when it
    runs, so a patched or wrapped one is the one checked.  A traced pair
    (``odd`` not None) runs its bodies ``_folded``/``_unfolded`` with that
    flag, as ``crankmex map`` does, and builds no trace.  Past the count row's
    size test, each domain element must keep its weight and ``carried(parts,
    j)``, map into the codomain and come back under the backward map: with
    equal finite sizes, a bijection and its inverse.  ``carried`` is compared
    only on an image that is a new object: an image that is its input itself
    (a fold run that takes no step) carries all of it.
    """
    (forward, backward), (domain, codomain), traced = pair, classes, odd is not None
    if traced:  # the bodies that the traced maps and the composites share
        forward, backward = "_folded", "_unfolded"
    sizes = _count(domain, codomain)

    def check(cell):
        if failure := sizes(cell):
            return failure
        j, keep = cell.j, carried and getattr(maps, carried)
        fwd_map, bwd_map = getattr(maps, forward), getattr(maps, backward)
        # fields read directly, part tuples hashed in C: this loop sees every element
        targets = {nu._parts for nu in cell.classes[codomain]}
        for lam in cell.classes[domain]:
            image = fwd_map(j, lam, odd) if traced else fwd_map(j, lam)
            if image._weight != lam._weight:
                return lam.to_text(), "weight not preserved"
            if keep and image is not lam and keep(lam._parts, j) != keep(image._parts, j):
                return lam.to_text(), "conserved quantity broken"
            if image._parts not in targets:
                return lam.to_text(), "image outside the stated codomain"
            back = bwd_map(j, image, odd) if traced else bwd_map(j, image)
            if back._parts != lam._parts:
                return lam.to_text(), "backward map does not invert the forward map"
        return None

    return f"bijection-{name}", min_weight, check


# The suite's table: (name, minimum weight, check).  Below its minimum weight
# a cell is recorded as skipped; the bijection rows come from maps._BIJECTIONS.
_WEIGHT_CHECKS = (
    ("crank-negation", 2, _negation),
    ("crank-symmetry", 0, _symmetry),
    ("crank-row-sum", 0, _row_sum),
)
_CELL_CHECKS = (
    ("count-odd-mex-vs-arm-free", 0, _count("odd_mex", "arm_free")),
    ("count-even-mex-vs-arm-bearing", 0, _count("even_mex", "arm_bearing")),
    ("series-vs-enumeration", 0, _series),
    ("low-crank-criterion", 0, _crank_criterion),
    *(_bijection(*entry) for entry in maps._BIJECTIONS[:2]),  # the two fold pairs
    ("count-arm-free-vs-low-crank", 2, _count("arm_free_with_part", "low_crank")),
    ("count-odd-mex-vs-high-crank", 2, _count("odd_mex_with_part", "high_crank")),
    *(_bijection(*entry) for entry in maps._BIJECTIONS[2:]),  # the two crank pairs
)


def _run_check(name, n, j, min_weight, fn, arg) -> CheckResult:
    """The cell ``(name, n, j)``: skipped below ``min_weight``, else ``fn(arg)``."""
    if n < min_weight:
        status, failure = "skip", (None, f"needs weight at least {min_weight}")
    else:
        try:
            failure = fn(arg)
        except Exception as exc:  # a crashing check is a failed cell, not an aborted run
            failure = None, f"raised {type(exc).__name__}: {exc}"
        status = "pass" if failure is None else "fail"
    return CheckResult(name, n, j, status, *(failure or ()))


def _class_masks(lam: Partition) -> tuple[int, int]:
    """Bitmasks of the parts and of the arms of ``lam``, for the suite's cells.

    Bit ``v`` of the first is set when ``v`` is a part; bit 0 is always set,
    since :meth:`Partition.has_part` counts 0 as a part of everything.  Bit
    ``a`` of the second is set when ``a = part(i) - i >= 0`` for some
    ``i >= 1``, so it holds ``has_arm(a)`` for every ``a``.
    """
    part_bits, arm_bits = 1, 0
    for i, p in enumerate(lam.parts, 1):
        part_bits |= 1 << p
        if p >= i:
            arm_bits |= 1 << (p - i)
    return part_bits, arm_bits


def run_theorem_suite(max_weight: int = 25, max_j: int = 12) -> VerificationReport:
    """Run every counting identity and bijective witness up to the given bounds.

    Weight-below-2 cells of the crank identities are reported as skipped (the
    identities assume weight at least 2).  Failures become report content,
    never exceptions; each failing check carries a concrete counterexample
    where one exists, as every bijection failure but a size mismatch does.  A
    bound that is not a non-negative ``int`` (a ``bool`` included), or a
    ``max_weight`` above ``ENUMERATION_LIMIT``, raises :class:`DomainError`.
    """
    _check_max_weight(max_weight)
    _check_nonnegative("max_j", max_j)
    report = VerificationReport(max_weight, max_j)
    results = report.results
    series = {j: odd_mex_series(j, max_weight) for j in range(max_j + 1)}
    counts = partition_series(max_weight)
    for n in range(max_weight + 1):
        # classified once per weight; its crank row and each (n, j) cell read it
        classified = [(lam, lam.crank(), *_class_masks(lam)) for lam in partitions_of(n)]
        row = _crank_row(n, (crank for _, crank, _, _ in classified))
        weight = _Weight(n, classified, row, counts[n])
        for name, min_weight, fn in _WEIGHT_CHECKS:
            results.append(_run_check(name, n, None, min_weight, fn, weight))
        for j in range(max_j + 1):
            cell = _Cell(j, classified, series[j][n], _classes(classified, j))
            for name, min_weight, fn in _CELL_CHECKS:
                results.append(_run_check(name, n, j, min_weight, fn, cell))
    return report
