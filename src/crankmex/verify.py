"""Exhaustive enumeration, counting oracles, and the theorem suite.

All series arithmetic is exact integer arithmetic; enumeration order is fixed
(lexicographically decreasing) so that reports and golden files are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core import DomainError, Partition
from . import maps

__all__ = [
    "ENUMERATION_LIMIT",
    "partitions_of",
    "count_matching",
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


def partitions_of(n: int, *, limit: int = ENUMERATION_LIMIT) -> Iterator[Partition]:
    """Yield every partition of ``n`` once, in lexicographically decreasing order."""
    if n < 0:
        raise DomainError(f"cannot enumerate partitions of {n}")
    if n > limit:
        raise DomainError(f"enumeration limit is {limit}, got weight {n}")
    for raw in _raw_partitions(n, n):
        yield Partition(raw)


def count_matching(n: int, predicate: Callable[[Partition], bool]) -> int:
    """Number of partitions of ``n`` satisfying ``predicate``."""
    return sum(1 for lam in partitions_of(n) if predicate(lam))


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


def crank_table(max_weight: int, *, limit: int = ENUMERATION_LIMIT) -> CrankTable:
    """Tabulate crank counts for all weights up to ``max_weight``."""
    counts: dict[tuple[int, int], int] = {}
    for n in range(max_weight + 1):
        if n == 1:
            counts[(1, 1)] = 1
            counts[(0, 1)] = -1
            counts[(-1, 1)] = 1
            continue
        for lam in partitions_of(n, limit=limit):
            key = (lam.crank(), n)
            counts[key] = counts.get(key, 0) + 1
    return CrankTable(max_weight, counts)


def partition_series(order: int) -> list[int]:
    """Coefficients of the inverse Euler product, i.e. the counts p(0..order).

    Computed by the textbook dynamic programme over part sizes; exact
    integers throughout.
    """
    if order < 0:
        raise DomainError("order must be non-negative")
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
    if j < 0:
        raise DomainError("j must be non-negative")
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
        return {
            "name": self.name,
            "n": self.n,
            "j": self.j,
            "status": self.status,
            "counterexample": self.counterexample,
            "note": self.note,
        }


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


class _Suite:
    """One run of the theorem suite; collects per-cell results in a fixed order."""

    def __init__(self, max_weight: int, max_j: int):
        self.max_weight = max_weight
        self.max_j = max_j
        self.report = VerificationReport(max_weight, max_j)

    def record(self, name, n, j, status, counterexample=None, note=""):
        self.report.results.append(CheckResult(name, n, j, status, counterexample, note))

    def check(self, name, n, j, fn):
        """Run ``fn``; it returns a failure description or None."""
        try:
            failure = fn()
        except Exception as exc:  # a crashing check is a failed cell, not an aborted run
            self.record(name, n, j, "fail", note=f"raised {type(exc).__name__}: {exc}")
            return
        if failure is None:
            self.record(name, n, j, "pass")
        else:
            counterexample, note = failure
            self.record(name, n, j, "fail", counterexample, note)

    # -- individual witnesses ------------------------------------------------

    @staticmethod
    def _match_bijection(forward, backward, domain, codomain, preserve=None):
        """Element-by-element perfect-matching check between two listed sets.

        Verifies round-trips in both directions, codomain membership via the
        image sets, injectivity, and any extra per-element predicate.
        """
        fwd = {}  # keyed by part tuples, which hash and compare in C
        for lam in domain:
            image = forward(lam)
            if image.weight != lam.weight:
                return lam.to_text(), "weight not preserved"
            if preserve is not None and not preserve(lam, image):
                return lam.to_text(), "conserved quantity broken"
            fwd[lam.parts] = image.parts
        images = set(fwd.values())
        if len(images) != len(fwd):
            return None, "forward map is not injective"
        if images != {nu.parts for nu in codomain}:
            return None, "forward image differs from the stated codomain"
        for nu in codomain:
            if fwd.get(backward(nu).parts) != nu.parts:
                return nu.to_text(), "backward map does not invert the forward map"
        return None

    def run(self):
        series = {j: odd_mex_series(j, self.max_weight) for j in range(self.max_j + 1)}
        table = crank_table(self.max_weight)
        asymmetric = {}  # weight -> its smallest m with count(m, n) != count(-m, n)
        for m, n in table.symmetry_failures():
            asymmetric.setdefault(n, m)

        for n in range(self.max_weight + 1):
            plist = list(partitions_of(n))
            # classified once per weight; each (n, j) cell reads it in one loop
            classified = [(lam, lam.crank(), *_class_masks(lam)) for lam in plist]

            # crank-negating involution, weight fixed (j-independent)
            if n < 2:
                self.record("crank-negation", n, None, "skip", note="needs weight at least 2")
            else:
                self.check("crank-negation", n, None, lambda: self._lambda_witness(classified))

            m = asymmetric.get(n)
            self.check(
                "crank-symmetry", n, None,
                lambda: None if m is None else (None, f"count({m},{n}) != count({-m},{n})"),
            )
            self.check("crank-row-sum", n, None, lambda: self._row_sum(table, n, len(plist)))

            for j in range(self.max_j + 1):
                self._run_cell(n, j, classified, series[j][n])

    def _lambda_witness(self, classified):
        for lam, crank, _, _ in classified:
            image = maps.negate_crank(lam)
            if image.weight != lam.weight:
                return lam.to_text(), "weight not preserved"
            if image.crank() != -crank:
                return lam.to_text(), "crank not negated"
            if maps.negate_crank(image) != lam:
                return lam.to_text(), "not an involution"
        return None

    @staticmethod
    def _row_sum(table, n, pn):
        if table.row_sum(n) != pn:
            return None, f"row sum {table.row_sum(n)} != p({n}) = {pn}"
        return None

    def _run_cell(self, n, j, classified, series_value):
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

        self.check(
            "count-odd-mex-vs-arm-free", n, j,
            lambda: None if len(odd_mex) == len(arm_free)
            else (None, f"{len(odd_mex)} != {len(arm_free)}"),
        )
        self.check(
            "count-even-mex-vs-arm-bearing", n, j,
            lambda: None if len(even_mex) == len(arm_bearing)
            else (None, f"{len(even_mex)} != {len(arm_bearing)}"),
        )
        self.check(
            "series-vs-enumeration", n, j,
            lambda: None if series_value == len(odd_mex) == len(arm_free)
            else (None, f"series {series_value}, classes {len(odd_mex)}/{len(arm_free)}"),
        )
        self.check(
            "low-crank-criterion", n, j,
            lambda: self._crank_criterion(classified, j),
        )
        self.check(
            "bijection-fold", n, j,
            lambda: self._match_bijection(
                lambda lam: maps.fold(j, lam)[0],
                lambda nu: maps.unfold(j, nu)[0],
                odd_mex, arm_free,
                preserve=lambda lam, image: self._small_parts(lam, j) == self._small_parts(image, j),
            ),
        )
        self.check(
            "bijection-fold-complement", n, j,
            lambda: self._match_bijection(
                lambda lam: maps.fold_complement(j, lam)[0],
                lambda nu: maps.unfold_complement(j, nu)[0],
                even_mex, arm_bearing,
            ),
        )

        if n < 2:
            self.record("count-arm-free-vs-low-crank", n, j, "skip", note="needs weight at least 2")
            self.record("count-odd-mex-vs-high-crank", n, j, "skip", note="needs weight at least 2")
            self.record("bijection-low-crank", n, j, "skip", note="needs weight at least 2")
            self.record("bijection-mex-to-crank", n, j, "skip", note="needs weight at least 2")
            return

        self.check(
            "count-arm-free-vs-low-crank", n, j,
            lambda: None if len(arm_free_with_part) == len(low_crank)
            else (None, f"{len(arm_free_with_part)} != {len(low_crank)}"),
        )
        self.check(
            "count-odd-mex-vs-high-crank", n, j,
            lambda: None if len(odd_mex_with_part) == len(high_crank)
            else (None, f"{len(odd_mex_with_part)} != {len(high_crank)}"),
        )
        self.check(
            "bijection-low-crank", n, j,
            lambda: self._match_bijection(
                lambda lam: maps.to_low_crank(j, lam),
                lambda mu: maps.from_low_crank(j, mu),
                arm_free_with_part, low_crank,
                preserve=lambda lam, image: lam.durfee_size(j) == image.durfee_size(j),
            ),
        )
        self.check(
            "bijection-mex-to-crank", n, j,
            lambda: self._match_bijection(
                lambda lam: maps.mex_to_crank(j, lam),
                lambda mu: maps.crank_to_mex(j, mu),
                odd_mex_with_part, high_crank,
            ),
        )

    @staticmethod
    def _small_parts(lam, j):
        return lam.parts[lam.count_above(j):]

    @staticmethod
    def _crank_criterion(classified, j):
        for lam, crank, _, _ in classified:
            if (crank <= -j) != (lam.count(1) >= lam.durfee_size(j) + j):
                return lam.to_text(), "crank/ones criterion mismatch"
        return None


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
    where one exists.
    """
    if max_weight > ENUMERATION_LIMIT:
        raise DomainError(f"max_weight is capped at {ENUMERATION_LIMIT}")
    if max_weight < 0 or max_j < 0:
        raise DomainError("bounds must be non-negative")
    suite = _Suite(max_weight, max_j)
    suite.run()
    return suite.report
