"""Exhaustive enumeration, counting oracles, and the theorem suite.

All series arithmetic is exact integer arithmetic; enumeration order is fixed
(lexicographically decreasing) so that reports and golden files are stable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator, NamedTuple

from .core import DomainError, Partition, _check_nonnegative, _durfee_size
from . import maps

__all__ = [
    "ENUMERATION_LIMIT",
    "partitions_of",
    "CrankTable",
    "crank_table",
    "partition_series",
    "odd_mex_series",
    "CheckResult",
    "VerificationReport",
    "run_theorem_suite",
]

ENUMERATION_LIMIT = 60


def _raw_partitions(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for head in range(min(n, cap), 0, -1):
        for tail in _raw_partitions(n - head, head):
            yield (head,) + tail


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield every partition of ``n`` once, in lexicographically decreasing order.

    A weight above ``ENUMERATION_LIMIT`` raises :class:`DomainError`.
    """
    _check_nonnegative("n", n)
    if n > ENUMERATION_LIMIT:
        raise DomainError(f"enumeration limit is {ENUMERATION_LIMIT}, got weight {n}")
    for raw in _raw_partitions(n, n):
        yield Partition(raw)


class CrankTable:
    """Exact counts of partitions by weight and crank, with the weight-1 quirk.

    For ``n != 1``, ``count(m, n)`` is the plain number of partitions of ``n``
    with crank ``m``.  The weight-1 row is defined by convention as
    ``count(1,1) = count(-1,1) = 1`` and ``count(0,1) = -1`` (the only
    negative entry), which keeps both the row sum ``p(1) = 1`` and the
    symmetry ``count(m, n) == count(-m, n)`` intact.
    """

    def __init__(self, max_weight: int, counts: dict[tuple[int, int], int]):
        self.max_weight = max_weight
        self._counts = counts

    def count(self, m: int, n: int) -> int:
        return self._counts.get((m, n), 0)

    def row(self, n: int) -> dict[int, int]:
        return {m: self.count(m, n) for m in range(-n, n + 1)}

    def row_sum(self, n: int) -> int:
        return sum(self.row(n).values())

    def symmetry_failures(self) -> list[tuple[int, int]]:
        bad = []
        for n in range(self.max_weight + 1):
            for m in range(1, n + 1):
                if self.count(m, n) != self.count(-m, n):
                    bad.append((m, n))
        return bad


def _crank_row(n: int, cranks) -> dict[int, int]:
    """Count ``cranks``, those of the partitions of ``n``, by value.

    The weight-1 row is the convention ``{1: 1, 0: -1, -1: 1}``; ``cranks``
    is then never read, so a lazy enumeration is not started.
    """
    if n == 1:
        return {1: 1, 0: -1, -1: 1}
    row: dict[int, int] = {}
    for crank in cranks:
        row[crank] = row.get(crank, 0) + 1
    return row


def crank_table(max_weight: int) -> CrankTable:
    """Tabulate crank counts for all weights up to ``max_weight``."""
    _check_nonnegative("max_weight", max_weight)
    counts: dict[tuple[int, int], int] = {}
    for n in range(max_weight + 1):
        row = _crank_row(n, (lam.crank() for lam in partitions_of(n)))
        counts.update(((m, n), count) for m, count in row.items())
    return CrankTable(max_weight, counts)


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


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    n: int
    j: int | None
    status: str  # "pass" | "fail" | "skip"
    counterexample: str | None = None
    note: str = ""

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    max_weight: int
    max_j: int
    results: list[CheckResult] = field(default_factory=list)

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


def _bijection(domain, codomain, forward, backward, preserved=None):
    """Element-by-element check that ``forward`` matches two classes perfectly.

    ``forward(j, lam)`` and ``backward(j, nu)`` return partitions.  Verifies
    weight and ``preserved(j, lam)``, injectivity, codomain membership via the
    image sets, and round trips from the codomain.
    """

    def check(cell):
        j = cell.j
        # keyed by part tuples, which hash and compare in C; the fields are
        # read directly, as this loop touches every element of every class
        fwd = {}
        for lam in cell.classes[domain]:
            image = forward(j, lam)
            if image._weight != lam._weight:
                return lam.to_text(), "weight not preserved"
            if preserved is not None and preserved(j, lam) != preserved(j, image):
                return lam.to_text(), "conserved quantity broken"
            fwd[lam._parts] = image._parts
        images = set(fwd.values())
        if len(images) != len(fwd):
            return None, "forward map is not injective"
        targets = cell.classes[codomain]
        if images != {nu._parts for nu in targets}:
            return None, "forward image differs from the stated codomain"
        for nu in targets:
            if fwd.get(backward(j, nu)._parts) != nu._parts:
                return nu.to_text(), "backward map does not invert the forward map"
        return None

    return check


# The suite's table: (name, minimum weight, check).  Below its minimum weight
# a cell is recorded as skipped.  Maps are looked up in ``maps`` at call time,
# so a patched or wrapped map is the one checked.
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
    ("bijection-fold", 0, _bijection(
        "odd_mex", "arm_free",
        lambda j, lam: maps.fold(j, lam)[0],
        lambda j, nu: maps.unfold(j, nu)[0],
        preserved=lambda j, lam: lam.parts[lam.count_above(j):],  # the parts <= j
    )),
    ("bijection-fold-complement", 0, _bijection(
        "even_mex", "arm_bearing",
        lambda j, lam: maps.fold_complement(j, lam)[0],
        lambda j, nu: maps.unfold_complement(j, nu)[0],
    )),
    ("count-arm-free-vs-low-crank", 2, _count("arm_free_with_part", "low_crank")),
    ("count-odd-mex-vs-high-crank", 2, _count("odd_mex_with_part", "high_crank")),
    ("bijection-low-crank", 2, _bijection(
        "arm_free_with_part", "low_crank",
        lambda j, lam: maps.to_low_crank(j, lam),
        lambda j, mu: maps.from_low_crank(j, mu),
        preserved=lambda j, lam: _durfee_size(lam._parts, j),
    )),
    ("bijection-mex-to-crank", 2, _bijection(
        "odd_mex_with_part", "high_crank",
        lambda j, lam: maps.mex_to_crank(j, lam),
        lambda j, mu: maps.crank_to_mex(j, mu),
    )),
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
    where one exists.  A bound that is not a non-negative ``int`` (a ``bool``
    included), or a ``max_weight`` above ``ENUMERATION_LIMIT``, raises
    :class:`DomainError`.
    """
    _check_nonnegative("max_weight", max_weight)
    _check_nonnegative("max_j", max_j)
    if max_weight > ENUMERATION_LIMIT:
        raise DomainError(f"max_weight is capped at {ENUMERATION_LIMIT}")
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
