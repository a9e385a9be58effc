"""Exact integer-partition machinery: representation, statistics, decompositions.

A partition is a finite non-increasing sequence of positive integers.  All
values here are immutable and every operation is a pure function, so they can
be shared freely between concurrent workers.  The enumeration
:func:`partitions_of` lives here too, so that ``crankmex table`` and
``crankmex.partitions_of`` run without compiling :mod:`crankmex.verify`.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import countOf, neg
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "MAX_WEIGHT",
    "PartitionError",
    "DomainError",
    "IterationLimitError",
    "Partition",
    "DurfeeTriple",
    "MexDecomposition",
    "mex_split",
    "mex_join",
    "ENUMERATION_LIMIT",
    "partitions_of",
]

# Everything in this package runs at desk scale; the cap only guards against
# absurd inputs reaching the O(weight) routines.
MAX_WEIGHT = 10**6


class PartitionError(ValueError):
    """A sequence does not describe a valid partition."""


class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class IterationLimitError(RuntimeError):
    """A broken internal invariant: an implementation bug, never a bad input.

    Raised when an iterated map exceeds its loose step cap or reaches a fixed
    state, when a later stage of a map rejects what its entry checks let in,
    and when a map's output fails its own check (all but the weight cap).
    """


def _check_nonnegative(name: str, value: int) -> None:
    if type(value) is int and value >= 0:
        return
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


def _parse_int(text: str) -> int:
    """``text`` read as an optional sign followed by ASCII digits; else ``ValueError``.

    ``int`` alone would also take ``_`` separators, surrounding whitespace and
    non-ASCII digits (``1_0``, ``٣``).
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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
    if type(total) is not int:  # an int subclass may add to something else
        raise PartitionError(f"parts do not sum to an integer: {total!r}")
    return total


def _too_heavy(total: int) -> PartitionError:
    return PartitionError(f"weight {total} exceeds the supported maximum {MAX_WEIGHT}")


def _invariant_broken(where: str, exc: ValueError) -> IterationLimitError:
    """The error for a check that fails after ``where``'s entry checks passed."""
    return IterationLimitError(f"{where} broke an internal invariant: {exc}")


def _durfee_size(parts: Sequence[int], j: int) -> int:
    """Unchecked :meth:`Partition.durfee_size` for a validated ``j``."""
    d = 0
    for p in parts:
        if p - d <= j:
            break
        d += 1
    return d


def _has_arm(parts: tuple[int, ...], j: int) -> bool:
    """Unchecked :meth:`Partition.has_arm` for a validated ``j``."""
    d = _durfee_size(parts, j)
    return d > 0 and parts[d - 1] - d == j


def _conjugate_parts(parts: tuple[int, ...]) -> list[int]:
    """Parts of the conjugate of the non-increasing ``parts``, as a list.

    Built from run lengths: walking up from the smallest part, with ``i``
    counting down from the number of parts, the ``i`` largest parts are
    exactly those at least ``v`` for every ``v`` in ``(part(i+1), part(i)]``.
    """
    cols: list[int] = []
    below = 0
    i = len(parts)
    for p in reversed(parts):
        if p > below:
            cols += [i] * (p - below)
            below = p
        i -= 1
    return cols


def _text(parts: Sequence[int]) -> str:
    """:meth:`Partition.to_text` of the sorted ``parts``."""
    return ",".join(map(str, parts))


class Partition:
    """A finite non-increasing sequence of positive integers.

    The empty partition is allowed.  Equality is sequence equality and
    instances are hashable, so partitions can be set members and dict keys.

    >>> Partition((5, 3, 2, 2)).weight
    12
    >>> Partition.from_text("5,3,2,2").mex(1)
    4
    """

    __slots__ = ("_parts", "_weight")

    def __init__(self, parts: Iterable[int] = ()):
        seq = tuple(parts)
        # Exact ints, positive and non-increasing, pass checks that all run in
        # C at any length; anything else goes to _checked_weight, which accepts
        # int subclasses and raises the exact message for a bad part.
        if (
            countOf(map(type, seq), int) == len(seq)
            and (not seq or seq[-1] >= 1)
            and list(seq) == sorted(seq, reverse=True)
        ):
            total = sum(seq)
        else:
            total = _checked_weight(seq)
        if total > MAX_WEIGHT:
            raise _too_heavy(total)
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
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts < other._parts

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"

    def __str__(self) -> str:
        return self.to_text()

    # -- text form (the CLI and golden-file currency) ----------------------

    def to_text(self) -> str:
        """Comma-separated parts; the empty string denotes the empty partition."""
        return _text(self._parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        text = text.strip()
        if not text:
            return cls()
        parts = []
        for pos, item in enumerate(text.split(","), 1):
            item = item.strip()
            try:
                parts.append(_parse_int(item))
            except ValueError:
                raise PartitionError(f"entry #{pos} is not an integer: {item!r}") from None
        return cls(parts)

    # -- multiplicities ----------------------------------------------------

    def count(self, value: int) -> int:
        """Multiplicity of ``value`` among the parts."""
        return self._parts.count(value)

    def count_above(self, value: int) -> int:
        """Number of parts strictly greater than ``value``."""
        return bisect_left(self._parts, -value, key=neg)

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

        ``mex(0)`` is the classical minimal excludant.  It is ``j + 1`` plus
        the run of :func:`mex_split`, so ``j + 1`` for the empty partition.
        """
        _check_nonnegative("j", j)
        return j + 1 + _mex_split(j, self._parts)[0]

    def has_odd_mex(self, j: int = 0) -> bool:
        """Whether ``mex(j) - j`` is odd (the mex parity differs from ``j``)."""
        return (self.mex(j) - j) % 2 == 1

    def durfee_size(self, j: int = 0) -> int:
        """The unique index ``i`` with ``part(i) - i >= j > part(i+1) - (i+1)``.

        Here ``part(i)`` is the ``i``-th largest part, with ``part(0)``
        infinite and ``part(i)`` 0 past the last part.  ``durfee_size(0)`` is
        the classical Durfee-square size; the shifted variants generalise it.
        ``i - part(i)`` is strictly increasing, so the index is well defined;
        it is 0 for the empty partition.
        """
        _check_nonnegative("j", j)
        return _durfee_size(self._parts, j)

    def has_arm(self, j: int) -> bool:
        """Whether some index ``i >= 1`` has ``part(i) - i == j``.

        The values ``part(i) - i`` for ``i`` up to the Durfee size are the arm
        lengths of the Durfee decomposition, hence the name.
        """
        _check_nonnegative("j", j)
        return _has_arm(self._parts, j)

    def avoids_arm(self, j: int) -> bool:
        """Complement of :meth:`has_arm`."""
        return not self.has_arm(j)

    # -- conjugation and the Durfee decomposition --------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram; an involution preserving weight."""
        return _sealed(_in_order(_conjugate_parts(self._parts), "conjugate"))

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


def _sealed(buf: list) -> Partition:
    """Partition of the parts in ``buf``, which is sorted here in place.

    Builds every map output, once per call, from integer arithmetic on valid
    parts, new ones at the head of ``buf`` (the reversed sort finds the others as
    one run).  It checks what the sort leaves open: a positive smallest part and an
    exact ``int`` weight, whose failure is a map bug (:class:`IterationLimitError`,
    naming the part), and the weight cap, which valid inputs reach (:class:`PartitionError`).
    """
    try:
        buf.sort(reverse=True)
        total = sum(buf)
    except TypeError:  # a part that does not compare with int; the failed sort
        # may leave the others out of order, so only such parts are passed on
        buf, total = [part for part in buf if not isinstance(part, int)], None
    if type(total) is not int or (buf and buf[-1] < 1):
        try:
            _checked_weight(tuple(buf))
        except PartitionError as exc:
            raise _invariant_broken("a map output", exc) from exc
    if total > MAX_WEIGHT:
        raise _too_heavy(total)
    lam = object.__new__(Partition)
    lam._parts = tuple(buf)
    lam._weight = total
    return lam


def _sorted(buf: list) -> list:
    """``buf`` sorted in place and its smallest part checked, as :func:`_sealed` does."""
    try:
        buf.sort(reverse=True)
        if buf and buf[-1] < 1:
            _sealed(buf)  # raises, naming the first bad part
    except TypeError:  # a part that does not compare with int
        _sealed(buf)  # raises, naming it
    return buf


def _in_order(buf: list, where: str) -> list:
    """``buf``, built in order by ``where``: a misordered part, which a sort hides, is named."""
    try:
        ordered = buf == sorted(buf, reverse=True)
    except TypeError:  # a part that does not compare with int: named below
        ordered = False
    if not ordered:
        try:
            _checked_weight(tuple(buf))
        except PartitionError as exc:
            raise _invariant_broken(where, exc) from exc
    return buf


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


def mex_split(j: int, lam: Partition) -> MexDecomposition:
    """Remove the maximal run of consecutive parts ``j+1, ..., j+run``.

    ``run == lam.mex(j) - j - 1``; total on all partitions.  A run of 0
    leaves ``lam`` itself as the rest, as :func:`mex_join` of run 0 returns it.
    """
    _check_nonnegative("j", j)
    run, rest = _mex_split(j, lam._parts)
    return MexDecomposition(j, run, lam if rest is lam._parts else _sealed(rest))


def _mex_split(j: int, parts: Sequence[int]) -> tuple[int, Sequence[int]]:
    """Unchecked :func:`mex_split` of sorted ``parts``: ``run`` and ``rest``, sorted.

    No part ``j + 1`` gives run 0 and ``parts`` itself.  Else, from the small end:
    the parts ``j+1, j+2, ...`` sit just above the parts ``<= j``, so one list copy
    plus a bisection per run part finds and deletes them, O(len(parts) + run * log(len(parts))).
    """
    if j + 1 not in parts:
        return 0, parts
    rest = list(parts)
    end = bisect_left(rest, -j, key=neg)  # the first part <= j
    v = j + 1
    while end and rest[end - 1] == v:
        end = bisect_left(rest, -v, 0, end, key=neg)  # the first copy of v
        del rest[end]
        v += 1
    return v - j - 1, rest


def mex_join(j: int, run: int, rest: Partition) -> Partition:
    """Inverse of :func:`mex_split`: re-insert one copy each of ``j+1..j+run``.

    Rejects a ``rest`` that already contains the excluded part ``j+run+1``.
    """
    _check_nonnegative("j", j)
    _check_nonnegative("run", run)
    parts = _mex_join(j, run, rest._parts)
    return rest if parts is rest._parts else _sealed(parts)


def _mex_join(j: int, run: int, parts: Sequence[int]) -> Sequence[int]:
    """Unchecked :func:`mex_join` on sorted ``parts``, its domain checked; run 0 returns them."""
    if j + run + 1 in parts:
        raise DomainError(
            f"rest must not contain the part {j + run + 1} excluded by the mex split"
        )
    if run == 0:
        return parts
    return [*range(j + 1, j + run + 1), *parts]


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
