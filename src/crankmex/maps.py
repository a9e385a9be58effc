"""Weight-preserving partition bijections built from staircase moves.

The central objects are pairs (staircase, partition).  A staircase of length
``m`` over ``j`` is the run of consecutive parts ``(j+m, ..., j+1)``.  Two
single-step moves, :func:`fold_step` and :func:`unfold_step`, rearrange such a
pair without changing its total weight or total number of parts; iterating
them gives mutually inverse bijections between

* partitions whose mex above ``j`` has an odd offset (entered through the mex
  decomposition, staircase of even length), and
* partitions with no arm length equal to ``j``,

together with the analogous odd-staircase bijection for the complementary
classes.  On top of these sit :func:`to_low_crank` / :func:`from_low_crank`
(trading the guaranteed part ``j`` and the Durfee slack for a batch of 1s,
which forces the crank down to ``-j`` or below), the crank-negating involution
:func:`negate_crank`, and the composite :func:`mex_to_crank` /
:func:`crank_to_mex` that carries the odd-mex class with a part ``j`` onto the
partitions of crank at least ``j``.

Every function is pure; traces are freshly allocated per call.  States
(:class:`PairState`) and trace steps (:class:`TraceStep`) are named tuples,
so they compare and hash by their fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import (
    DomainError,
    IterationLimitError,
    Partition,
    _check_nonnegative,
    mex_join,
    mex_split,
    staircase,
)

__all__ = [
    "FIXED_POINT",
    "PairState",
    "StepResult",
    "TraceStep",
    "Trace",
    "fold_step",
    "unfold_step",
    "fold_pair",
    "unfold_pair",
    "fold",
    "unfold",
    "detach_step",
    "attach_step",
    "fold_complement",
    "unfold_complement",
    "to_low_crank",
    "from_low_crank",
    "negate_crank",
    "mex_to_crank",
    "crank_to_mex",
]

# Case tag returned by the step maps for a state they leave unchanged.  The
# iterated maps never accept it: a fixed state inside a legal run is a bug.
FIXED_POINT = 0


class _PairFields(NamedTuple):
    j: int
    k: int
    lam: Partition
    odd: bool = False


class PairState(_PairFields):
    """A pair (staircase, partition) acted on by the step maps.

    ``k`` is the half-length index: the staircase has length ``2k`` in even
    mode and ``2k + 1`` in odd mode.  The staircase itself is implied by
    ``(j, k, odd)`` and never materialised unless asked for.

    A named tuple of ``(j, k, lam, odd)``: immutable, hashable and equal to
    any tuple with the same fields.  Construction rejects a ``j`` or ``k``
    that is not a non-negative integer with :class:`DomainError`.
    """

    __slots__ = ()

    def __new__(cls, j: int, k: int, lam: Partition, odd: bool = False):
        _check_nonnegative("j", j)
        _check_nonnegative("k", k)
        return tuple.__new__(cls, (j, k, lam, odd))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so both go through the checks above
        return cls(*iterable)

    @property
    def staircase_len(self) -> int:
        return 2 * self.k + (1 if self.odd else 0)

    @property
    def top(self) -> int:
        """Largest staircase part, or ``j`` itself when the staircase is empty."""
        return self.j + self.staircase_len

    @property
    def staircase(self) -> Partition:
        return staircase(self.j, self.staircase_len)

    @property
    def pair_weight(self) -> int:
        m = self.staircase_len
        return m * (m + 1) // 2 + self.j * m + self.lam.weight

    @property
    def pair_length(self) -> int:
        return self.staircase_len + len(self.lam)


class StepResult(NamedTuple):
    state: PairState
    case: int  # 1, 2, or FIXED_POINT
    d: int  # the shifted Durfee size the dispatch used


class TraceStep(NamedTuple):
    direction: str  # "fold" or "unfold"
    case: int
    d: int
    before: PairState
    after: PairState


@dataclass(frozen=True, slots=True)
class Trace:
    direction: str
    start: PairState
    end: PairState
    steps: tuple[TraceStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


def fold_step(state: PairState) -> StepResult:
    """One move toward a shorter staircase.

    With ``s`` the current staircase top and ``d`` the partition's shifted
    Durfee size at ``s``:

    * case 1 (arm ``s`` present, so ``part(d) == d + s``): delete that part,
      add 1 to each of the ``d - 1`` largest parts, insert a part ``s + 1``;
      the staircase is untouched.
    * case 2 (arm ``s`` absent, staircase non-empty): shorten the staircase by
      two, subtract 1 from each of the ``d`` largest parts, insert parts
      ``d + s`` and ``s - 1``.

    Pair weight and pair length are conserved, and parts at most ``j`` are
    never touched.  A case-1 state whose largest part is ``s + 1`` maps to
    itself; it is returned unchanged with the ``FIXED_POINT`` tag.  Calling
    this on a terminal state (empty staircase, arm absent) is a domain error.
    """
    lam = state.lam
    s = state.top
    d = lam.durfee_size(s)
    parts = lam.parts
    if d and parts[d - 1] - d == s:
        if d == 1:
            # largest part is exactly s + 1: the move would reproduce lam
            return StepResult(state, FIXED_POINT, d)
        buf = [p + 1 for p in parts[: d - 1]]
        buf.extend(parts[d:])
        buf.append(s + 1)
        buf.sort(reverse=True)
        return StepResult(
            PairState(state.j, state.k, Partition(buf), state.odd), 1, d
        )
    if state.k == 0:
        raise DomainError(
            "cannot fold a terminal state: staircase exhausted and no arm "
            f"{s} present in {lam.to_text()!r}"
        )
    buf = [p - 1 for p in parts[:d]]
    buf.extend(parts[d:])
    buf.append(d + s)
    buf.append(s - 1)
    buf.sort(reverse=True)
    return StepResult(
        PairState(state.j, state.k - 1, Partition(buf), state.odd), 2, d
    )


def unfold_step(state: PairState) -> StepResult:
    """One move toward a longer staircase; the exact inverse of :func:`fold_step`.

    The partition must contain the part ``s + 1`` (``s`` the staircase top);
    its absence marks the terminal state and is a domain error here.  With
    ``d`` the shifted Durfee size at ``s + 1``:

    * case 1 (arm ``s + 1`` present): grow the staircase by two, add 1 to each
      of the ``d - 1`` largest parts, delete the part ``part(d) == d + s + 1``
      and one copy of ``s + 1``.
    * case 2 (arm ``s + 1`` absent, ``d >= 1``): delete one copy of ``s + 1``,
      subtract 1 from each of the ``d`` largest parts, insert ``d + s + 1``.

    When ``d == 0`` the largest part equals ``s + 1`` and the state is fixed;
    it is returned unchanged with the ``FIXED_POINT`` tag.
    """
    lam = state.lam
    target = state.top + 1
    if not lam.count(target):
        raise DomainError(
            f"cannot unfold a terminal state: no part {target} in {lam.to_text()!r}"
        )
    d = lam.durfee_size(target)
    parts = lam.parts
    if d and parts[d - 1] - d == target:
        buf = [p + 1 for p in parts[: d - 1]]
        tail = list(parts[d:])
        tail.remove(target)
        buf.extend(tail)
        buf.sort(reverse=True)
        return StepResult(
            PairState(state.j, state.k + 1, Partition(buf), state.odd), 1, d
        )
    if d == 0:
        return StepResult(state, FIXED_POINT, d)
    buf = [p - 1 for p in parts[:d]]
    tail = list(parts[d:])
    tail.remove(target)
    buf.extend(tail)
    buf.append(d + target)
    buf.sort(reverse=True)
    return StepResult(
        PairState(state.j, state.k, Partition(buf), state.odd), 2, d
    )


def _iterate(
    start: PairState,
    stepper: Callable[[PairState], StepResult],
    finished: Callable[[PairState], bool],
    direction: str,
) -> tuple[PairState, Trace]:
    if finished(start):
        return start, Trace(direction, start, start, ())
    # Loose cap; legal runs finish far earlier, so exceeding it is a bug.
    cap = 2 * start.pair_weight + 2 * start.k + 4
    cur = start
    steps: list[TraceStep] = []
    while True:
        result = stepper(cur)
        if result.case == FIXED_POINT:
            raise IterationLimitError(
                f"{direction} iteration reached a fixed state outside the stop set"
            )
        steps.append(TraceStep(direction, result.case, result.d, cur, result.state))
        if len(steps) > cap:
            raise IterationLimitError(f"{direction} iteration exceeded the cap of {cap} steps")
        cur = result.state
        if finished(cur):
            return cur, Trace(direction, start, cur, tuple(steps))


def _fold_finished(state: PairState) -> bool:
    return state.k == 0 and not state.lam.has_arm(state.top)


def _unfold_finished(state: PairState) -> bool:
    return not state.lam.count(state.top + 1)


def fold_pair(state: PairState) -> tuple[PairState, Trace]:
    """Iterate :func:`fold_step` until the staircase index hits 0 and no arm remains."""
    return _iterate(state, fold_step, _fold_finished, "fold")


def unfold_pair(state: PairState) -> tuple[PairState, Trace]:
    """Iterate :func:`unfold_step` until the partition lacks the absorbable part."""
    return _iterate(state, unfold_step, _unfold_finished, "unfold")


def fold(j: int, lam: Partition) -> tuple[Partition, Trace]:
    """Map a partition with odd mex offset at ``j`` to one avoiding arm ``j``.

    The partition enters through its mex decomposition (staircase of even
    length ``run``), the pair is folded down, and the surviving partition is
    returned together with the full step trace.  Weight is preserved, parts at
    most ``j`` are conserved, and :func:`unfold` is the exact inverse.
    """
    dec = mex_split(j, lam)
    if dec.run % 2:
        raise DomainError(f"{lam.to_text()!r} does not have an odd mex offset at j={j}")
    end, trace = fold_pair(PairState(j, dec.run // 2, dec.rest))
    return end.lam, trace


def unfold(j: int, lam: Partition) -> tuple[Partition, Trace]:
    """Inverse of :func:`fold`: rebuild the odd-mex partition from an arm-free one."""
    if lam.has_arm(j):
        raise DomainError(f"{lam.to_text()!r} has arm {j}; unfolding requires it absent")
    end, trace = unfold_pair(PairState(j, 0, lam))
    return mex_join(j, 2 * end.k, end.lam), trace


def detach_step(j: int, lam: Partition) -> Partition:
    """Peel a single staircase step off a partition with arm ``j``.

    Deletes the witness part ``part(d) == d + j`` and adds 1 to the ``d - 1``
    larger parts.  The result avoids arm ``j + 1`` and weighs ``j + 1`` less;
    pairing it with the one-part staircase ``(j+1,)`` restores the weight.
    Exact inverse of :func:`attach_step`.
    """
    if lam.avoids_arm(j):
        raise DomainError(f"{lam.to_text()!r} has no arm {j} to detach")
    d = lam.durfee_size(j)
    parts = lam.parts
    buf = [p + 1 for p in parts[: d - 1]]
    buf.extend(parts[d:])
    buf.sort(reverse=True)
    return Partition(buf)


def attach_step(j: int, lam: Partition) -> Partition:
    """Inverse of :func:`detach_step`: absorb the one-part staircase ``(j+1,)``."""
    if lam.has_arm(j + 1):
        raise DomainError(f"{lam.to_text()!r} has arm {j + 1}; attaching requires it absent")
    d = lam.durfee_size(j + 1)
    parts = lam.parts
    buf = [p - 1 for p in parts[:d]]
    buf.append(j + 1 + d)
    buf.extend(parts[d:])
    buf.sort(reverse=True)
    return Partition(buf)


def fold_complement(j: int, lam: Partition) -> tuple[Partition, Trace]:
    """Even-mex-offset companion of :func:`fold`.

    A partition whose mex offset at ``j`` is even decomposes onto a staircase
    of odd length; folding the pair down to the one-part staircase and
    absorbing that step via :func:`attach_step` lands on a partition **with**
    arm ``j``.  Weight preserved; inverse :func:`unfold_complement`.
    """
    dec = mex_split(j, lam)
    if dec.run % 2 == 0:
        raise DomainError(f"{lam.to_text()!r} has an odd mex offset at j={j}; expected even")
    end, trace = fold_pair(PairState(j, (dec.run - 1) // 2, dec.rest, odd=True))
    return attach_step(j, end.lam), trace


def unfold_complement(j: int, lam: Partition) -> tuple[Partition, Trace]:
    """Inverse of :func:`fold_complement`, entered from a partition with arm ``j``."""
    if lam.avoids_arm(j):
        raise DomainError(f"{lam.to_text()!r} lacks arm {j}; cannot unfold the complement map")
    mu = detach_step(j, lam)
    end, trace = unfold_pair(PairState(j, 0, mu, odd=True))
    return mex_join(j, 2 * end.k + 1, end.lam), trace


def to_low_crank(j: int, lam: Partition) -> Partition:
    """Send an arm-free partition with a part ``j`` to one of crank at most ``-j``.

    Subtract 1 from the ``d`` largest parts (``d`` the shifted Durfee size at
    ``j``), delete one part ``j`` (skipped for ``j == 0``, where the part is
    the fictitious 0), and append ``d + j`` parts equal to 1.  Weight and the
    shifted Durfee size at ``j`` are preserved.  Defined for weight above 1;
    exact inverse :func:`from_low_crank`.
    """
    if lam.weight <= 1:
        raise DomainError("defined only for partitions of weight at least 2")
    if not lam.has_part(j):
        raise DomainError(f"{lam.to_text()!r} has no part {j}")
    if lam.has_arm(j):
        raise DomainError(f"{lam.to_text()!r} has arm {j}")
    d = lam.durfee_size(j)
    parts = lam.parts
    buf = [p - 1 for p in parts[:d]]
    tail = list(parts[d:])
    if j:
        tail.remove(j)
    buf.extend(tail)
    buf.extend([1] * (d + j))
    buf.sort(reverse=True)
    return Partition(buf)


def from_low_crank(j: int, lam: Partition) -> Partition:
    """Inverse of :func:`to_low_crank`, defined on cranks at most ``-j`` (weight > 1).

    Removes ``d + j`` trailing 1s, adds 1 to the ``d`` largest parts and
    re-inserts the part ``j`` (for ``j >= 1``).  The 1s are guaranteed to
    exist: crank at most ``-j`` forces at least ``d + j`` of them.
    """
    if lam.weight <= 1:
        raise DomainError("defined only for partitions of weight at least 2")
    if lam.crank() > -j:
        raise DomainError(f"{lam.to_text()!r} has crank {lam.crank()} > {-j}")
    d = lam.durfee_size(j)
    parts = lam.parts
    buf = [p + 1 for p in parts[:d]]
    buf.extend(parts[d:])
    for _ in range(d + j):
        if not buf or buf[-1] != 1:
            raise IterationLimitError("missing guaranteed trailing 1s (bug)")
        buf.pop()
    if j:
        buf.append(j)
    buf.sort(reverse=True)
    return Partition(buf)


def negate_crank(lam: Partition) -> Partition:
    """Crank-negating, weight-preserving involution on partitions of weight > 1.

    Three cases on ``w`` (number of 1s) and ``t`` (number of parts larger
    than ``w``):

    * ``w == 0``: drop the largest part and append that many 1s.
    * ``w > 0, t == 0``: prepend a part ``w`` and drop all the 1s.
    * ``w > 0, t > 0``: rebuild from the conjugate, splitting its first column
      at ``r = max(w, part(2) - 1)`` and appending ``t`` trailing 1s.
    """
    if lam.weight <= 1:
        raise DomainError("defined only for partitions of weight at least 2")
    parts = lam.parts
    ones = lam.count(1)
    if ones == 0:
        return Partition(parts[1:] + (1,) * parts[0])
    tall = lam.count_above(ones)
    if tall == 0:
        return Partition((ones,) + parts[: len(parts) - ones])
    r = max(ones, parts[1] - 1)
    conj = lam.conjugate().parts
    buf = [conj[1] + parts[0] - r]
    buf.extend(1 + conj[i - 1] for i in range(2, ones + 1))
    buf.extend(conj[i] for i in range(ones + 1, r + 1))
    buf.extend([1] * tall)
    return Partition(buf)


def mex_to_crank(j: int, lam: Partition) -> Partition:
    """Carry a partition with part ``j`` and odd mex offset to crank at least ``j``.

    Composition of :func:`fold`, :func:`to_low_crank`, and
    :func:`negate_crank`; weight-preserving, with inverse
    :func:`crank_to_mex`.
    """
    if lam.weight <= 1:
        raise DomainError("defined only for partitions of weight at least 2")
    if not lam.has_part(j):
        raise DomainError(f"{lam.to_text()!r} has no part {j}")
    nu, _ = fold(j, lam)
    return negate_crank(to_low_crank(j, nu))


def crank_to_mex(j: int, lam: Partition) -> Partition:
    """Inverse of :func:`mex_to_crank`, defined on cranks at least ``j`` (weight > 1)."""
    if lam.crank() < j:
        raise DomainError(f"{lam.to_text()!r} has crank {lam.crank()} < {j}")
    mu = negate_crank(lam)
    out, _ = unfold(j, from_low_crank(j, mu))
    return out
