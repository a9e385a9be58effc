"""Exact integer-partition machinery: representation, statistics, decompositions.

A partition is a finite non-increasing sequence of positive integers.  All
values here are immutable and every operation is a pure function, so they can
be shared freely between concurrent workers.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

__all__ = [
    "MAX_WEIGHT",
    "PartitionError",
    "DomainError",
    "IterationLimitError",
    "Partition",
    "DurfeeTriple",
    "MexDecomposition",
    "staircase",
    "mex_split",
    "mex_join",
]

# Everything in this package runs at desk scale; the cap only guards against
# absurd inputs reaching the O(weight) routines.
MAX_WEIGHT = 10**6


class PartitionError(ValueError):
    """A sequence does not describe a valid partition."""


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class IterationLimitError(RuntimeError):
    """An iterated map exceeded its hard step cap.

    The cap is deliberately loose; hitting it means an implementation bug,
    never a bad input.
    """


def _check_nonnegative(name: str, value: int) -> None:
    if type(value) is int and value >= 0:
        return
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


def _checked_weight(seq: tuple) -> int:
    """Weight of ``seq`` validated part by part; raises at the first bad part."""
    total = 0
    prev = None
    for pos, value in enumerate(seq, 1):
        if not isinstance(value, int) or isinstance(value, bool):
            raise PartitionError(f"part #{pos} is not an integer: {value!r}")
        if value < 1:
            raise PartitionError(f"part #{pos} must be positive, got {value}")
        if prev is not None and value > prev:
            raise PartitionError(
                f"parts must be non-increasing: part #{pos} ({value}) "
                f"exceeds part #{pos - 1} ({prev})"
            )
        prev = value
        total += value
    return total


def _durfee_size(parts: tuple[int, ...], j: int) -> int:
    """Unchecked :meth:`Partition.durfee_size` for a validated ``j``."""
    d = 0
    for p in parts:
        if p - d <= j:
            break
        d += 1
    return d


class Partition:
    """A finite non-increasing sequence of positive integers.

    The empty partition is allowed.  Equality is sequence equality and
    instances are hashable, so partitions can be set members and dict keys.

    ``part(i)`` indexes 1-based and extends the stored parts with virtual
    sentinels: ``part(0)`` is positive infinity and ``part(i)`` is 0 for every
    index beyond the last part, so the extended sequence is still
    non-increasing.  The sentinels are never stored.

    >>> Partition((5, 3, 2, 2)).weight
    12
    >>> Partition.from_text("5,3,2,2").mex(1)
    4
    """

    __slots__ = ("_parts", "_weight")

    def __init__(self, parts: Iterable[int] = ()):
        seq = tuple(parts)
        # One tight pass accepts the common case: exact ints, positive and
        # non-increasing.  Anything else is handed to _checked_weight, which
        # accepts int subclasses and raises the exact message for a bad part.
        total = 0
        prev = seq[0] if seq else 0
        for value in seq:
            if type(value) is not int or not 1 <= value <= prev:
                total = _checked_weight(seq)
                break
            prev = value
            total += value
        if total > MAX_WEIGHT:
            raise PartitionError(f"weight {total} exceeds the supported maximum {MAX_WEIGHT}")
        self._parts = seq
        self._weight = total

    # -- basic structure ---------------------------------------------------

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return self._weight

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: "Partition") -> bool:
        return self._parts < other._parts

    def __le__(self, other: "Partition") -> bool:
        return self._parts <= other._parts

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"

    def __str__(self) -> str:
        return self.to_text()

    def part(self, i: int):
        """1-based part accessor with the virtual sentinels at both ends."""
        if i < 0:
            raise IndexError(f"part index must be non-negative, got {i}")
        if i == 0:
            return math.inf
        if i <= len(self._parts):
            return self._parts[i - 1]
        return 0

    # -- text form (the CLI and golden-file currency) ----------------------

    def to_text(self) -> str:
        """Comma-separated parts; the empty string denotes the empty partition."""
        return ",".join(str(p) for p in self._parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        text = text.strip()
        if not text:
            return cls()
        parts = []
        for pos, item in enumerate(text.split(","), 1):
            item = item.strip()
            try:
                parts.append(int(item))
            except ValueError:
                raise PartitionError(f"entry #{pos} is not an integer: {item!r}") from None
        return cls(parts)

    # -- multiplicities ----------------------------------------------------

    def count(self, value: int) -> int:
        """Multiplicity of ``value`` among the parts."""
        return self._parts.count(value)

    def count_above(self, value: int) -> int:
        """Number of parts strictly greater than ``value``."""
        lo, hi = 0, len(self._parts)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._parts[mid] > value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def has_part(self, value: int) -> bool:
        """Whether ``value`` occurs as a part; 0 counts as a part of everything."""
        _check_nonnegative("part value", value)
        return value == 0 or value in self._parts

    # -- statistics ----------------------------------------------------------

    def crank(self) -> int:
        """The crank statistic.

        With ``w`` the number of 1s: the largest part when ``w`` is zero
        (0 for the empty partition), otherwise the number of parts greater
        than ``w``, minus ``w``.  Always lies in ``[-weight, weight]``.
        """
        if not self._parts:
            return 0
        ones = self._parts.count(1)
        if ones == 0:
            return self._parts[0]
        return self.count_above(ones) - ones

    def mex(self, j: int = 0) -> int:
        """Smallest integer greater than ``j`` that is not a part.

        ``mex(0)`` is the classical minimal excludant; for the empty
        partition ``mex(j) == j + 1``.
        """
        _check_nonnegative("j", j)
        values = set(self._parts)
        candidate = j + 1
        while candidate in values:
            candidate += 1
        return candidate

    def has_odd_mex(self, j: int = 0) -> bool:
        """Whether ``mex(j) - j`` is odd (the mex parity differs from ``j``)."""
        return (self.mex(j) - j) % 2 == 1

    def durfee_size(self, j: int = 0) -> int:
        """The unique index ``i`` with ``part(i) - i >= j > part(i+1) - (i+1)``.

        ``durfee_size(0)`` is the classical Durfee-square size; the shifted
        variants generalise it.  ``i - part(i)`` is strictly increasing, so
        the index is well defined; it is 0 for the empty partition.
        """
        _check_nonnegative("j", j)
        return _durfee_size(self._parts, j)

    def has_arm(self, j: int) -> bool:
        """Whether some index ``i >= 1`` has ``part(i) - i == j``.

        The values ``part(i) - i`` for ``i`` up to the Durfee size are the arm
        lengths of the Durfee decomposition, hence the name.
        """
        _check_nonnegative("j", j)
        d = _durfee_size(self._parts, j)
        return d > 0 and self._parts[d - 1] - d == j

    def avoids_arm(self, j: int) -> bool:
        """Complement of :meth:`has_arm`."""
        return not self.has_arm(j)

    # -- conjugation and the Durfee decomposition --------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram; an involution preserving weight."""
        if not self._parts:
            return Partition()
        width = self._parts[0]
        mult = [0] * (width + 1)
        for p in self._parts:
            mult[p] += 1
        cols = []
        running = 0
        for value in range(width, 0, -1):
            running += mult[value]
            cols.append(running)
        cols.reverse()
        return Partition(cols)

    def durfee_triple(self) -> "DurfeeTriple":
        """Durfee decomposition ``(size, arms, legs)``.

        ``arms[i] = part(i+1) - (i+1)`` and ``legs`` are the same lengths of
        the conjugate, both for rows inside the Durfee square.  The weight
        identity ``weight == size + sum(arms) + sum(legs)`` always holds.
        """
        size = self.durfee_size(0)
        arms = tuple(self._parts[i] - (i + 1) for i in range(size))
        conj = self.conjugate().parts
        legs = tuple(conj[i] - (i + 1) for i in range(size))
        return DurfeeTriple(size, arms, legs)

    @classmethod
    def from_durfee(cls, triple: "DurfeeTriple") -> "Partition":
        """Rebuild the unique partition with the given Durfee decomposition.

        Rejects triples whose arms or legs are not strictly decreasing
        sequences of ``size`` non-negative integers.
        """
        size, arms, legs = triple
        _check_nonnegative("durfee size", size)
        for label, seq in (("arms", arms), ("legs", legs)):
            if len(seq) != size:
                raise PartitionError(f"{label} must have exactly {size} entries, got {len(seq)}")
            for value in seq:
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise PartitionError(f"{label} entries must be non-negative integers")
            if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
                raise PartitionError(f"{label} must be strictly decreasing")
        if size == 0:
            return cls()
        length = legs[0] + 1
        buf = [arms[i] + (i + 1) for i in range(size)]
        for i in range(size + 1, length + 1):
            buf.append(sum(1 for u in range(size) if legs[u] + (u + 1) >= i))
        return cls(buf)


class DurfeeTriple(NamedTuple):
    """Durfee decomposition of a partition: square size plus arm/leg lengths."""

    size: int
    arms: tuple[int, ...]
    legs: tuple[int, ...]


class MexDecomposition(NamedTuple):
    """Split of a partition determined by its mex above ``j``.

    ``rest`` carries the parts of the original partition minus one copy each
    of ``j+1, ..., j+run``; it never contains the part ``j + run + 1``, and
    ``mex_join`` reassembles the original partition exactly.
    """

    j: int
    run: int
    rest: Partition


def staircase(j: int, length: int) -> Partition:
    """The run of consecutive parts ``(j+length, ..., j+1)``; empty when length is 0.

    Its weight is ``length*(length+1)//2 + j*length``.
    """
    _check_nonnegative("j", j)
    _check_nonnegative("length", length)
    return Partition(range(j + length, j, -1))


def mex_split(j: int, lam: Partition) -> MexDecomposition:
    """Remove the maximal run of consecutive parts ``j+1, ..., j+run``.

    ``run == lam.mex(j) - j - 1``; total on all partitions.
    """
    run = lam.mex(j) - j - 1
    if run == 0:
        return MexDecomposition(j, 0, lam)
    pending = set(range(j + 1, j + run + 1))
    buf = []
    for p in lam.parts:
        if p in pending:
            pending.remove(p)
        else:
            buf.append(p)
    return MexDecomposition(j, run, Partition(buf))


def mex_join(j: int, run: int, rest: Partition) -> Partition:
    """Inverse of :func:`mex_split`: re-insert one copy each of ``j+1..j+run``.

    Rejects a ``rest`` that already contains the excluded part ``j+run+1``.
    """
    _check_nonnegative("j", j)
    _check_nonnegative("run", run)
    if rest.count(j + run + 1):
        raise DomainError(
            f"rest must not contain the part {j + run + 1} excluded by the mex split"
        )
    if run == 0:
        return rest
    buf = sorted(rest.parts + tuple(range(j + 1, j + run + 1)), reverse=True)
    return Partition(buf)
