"""Weight-preserving partition bijections built from staircase moves.

The central objects are pairs (staircase, partition).  A staircase of length
``m`` over ``j`` is the run of consecutive parts ``(j+m, ..., j+1)``.  Two
single-step moves, :func:`fold_step` and :func:`unfold_step`, rearrange such a
pair without changing its total weight or total number of parts; iterating
them gives mutually inverse bijections between

* partitions whose mex above ``j`` has an odd offset (entered through the mex
  decomposition, staircase of even length), and
* partitions with no arm length equal to ``j``.

The complement maps :func:`fold_complement` / :func:`unfold_complement`, between
even offsets and partitions with arm ``j``, are the odd-staircase case of the
same run: they run the bodies of :func:`fold` and :func:`unfold` with
``odd=True``, which add one :func:`attach_step` or :func:`detach_step`.
On top of these sit :func:`to_low_crank` / :func:`from_low_crank`
(trading the guaranteed part ``j`` and the Durfee slack for a batch of 1s,
which forces the crank down to ``-j`` or below), the crank-negating involution
:func:`negate_crank`, and the composite :func:`mex_to_crank` /
:func:`crank_to_mex` that carries the odd-mex class with a part ``j`` onto the
partitions of crank at least ``j``.

Every function is pure.  Each direction has one start, ``_fold_start`` or
``_unfold_start``, and one body on it, ``_folded`` or ``_unfolded``, which only
the four traced maps run through :func:`fold_pair` or :func:`unfold_pair`; the
suite's fold rows and the CLI's ``map`` and ``table`` run it untraced, and
:func:`mex_to_crank` and :func:`crank_to_mex` run the start alone.  States
(:class:`PairState`), trace steps (:class:`TraceStep`) and traces
(:class:`Trace`) are named tuples: they compare and hash by their fields and
equal the plain tuple of them; ``len(trace)`` counts the steps.

Every public map checks its ``j`` once, first; the bodies, the moves and the
stage kernels (``_detach``, ``_attach``, ``_to_low``, ``_from_low``, ``_negated``,
core's ``_mex_split``, ``_mex_join``) check none and pass sorted parts on.

Each direction has one move, ``_fold_move`` and ``_unfold_move``, on the bare
fields ``(j, k, odd, parts)`` of a state.  One Durfee scan (fold) or one
binary search for the part ``s + 1`` (unfold) decides whether the state is
terminal and, for a fold, its case.  Each edit deletes parts where they stand
and puts new ones at the head of its buffer (see ``core._sealed``).
:func:`fold_step` and :func:`unfold_step` wrap a move in a :class:`StepResult`;
``_iterate`` loops on the move itself.  ``_BIJECTIONS`` declares the four pairs
once, with their classes and what they carry, for the suite, CLI and tests.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import neg
from typing import Callable, NamedTuple, Sequence

from .core import (
    DomainError,
    IterationLimitError,
    Partition,
    _check_nonnegative,
    _conjugate_parts,
    _durfee_size,
    _has_arm,
    _in_order,
    _invariant_broken,
    _mex_join,
    _mex_split,
    _sealed,
    _sorted,
    _text,
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
    ``(j, k, odd)`` and never materialised: it is
    ``Partition(range(top, j, -1))``.

    A named tuple of ``(j, k, lam, odd)``: immutable, hashable and equal to
    any tuple with the same fields.  Construction rejects with
    :class:`DomainError` a ``j`` or ``k`` that is not a non-negative integer,
    a ``lam`` that is not a :class:`Partition` and an ``odd`` that is not a
    ``bool``.
    """

    __slots__ = ()

    def __new__(cls, j: int, k: int, lam: Partition, odd: bool = False):
        _check_nonnegative("j", j)
        _check_nonnegative("k", k)
        if not isinstance(lam, Partition):
            raise DomainError(f"lam must be a Partition, got {type(lam).__name__}")
        if type(odd) is not bool:
            raise DomainError(f"odd must be a bool, got {odd!r}")
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
        return self.j + 2 * self.k + (1 if self.odd else 0)

    @property
    def pair_weight(self) -> int:
        m = self.staircase_len
        return m * (m + 1) // 2 + self.j * m + self.lam.weight


class _BareStart(_PairFields):  # an untraced run's (j, k, parts, odd), read for its cap
    __slots__ = ()

    @property
    def pair_weight(self) -> int:  # as PairState's, with the parts' sum
        m = 2 * self.k + self.odd
        return m * (m + 1) // 2 + self.j * m + sum(self.lam)


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


class _TraceFields(NamedTuple):
    direction: str  # "fold" or "unfold"
    start: PairState
    end: PairState
    steps: tuple[TraceStep, ...]


class Trace(_TraceFields):
    """The run of an iterated map: its direction, end states and every step.

    A named tuple of ``(direction, start, end, steps)``: immutable, hashable
    and equal to any tuple with the same fields.  ``len(trace)`` is the
    number of steps, not the number of fields.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace builds through, checks the field
        # count with len(), and len() here counts steps
        result = tuple.__new__(cls, iterable)
        if tuple.__len__(result) != 4:
            raise TypeError(f"Expected 4 arguments, got {tuple.__len__(result)}")
        return result


# Every edit on the Durfee arms shifts rows first, which keeps them in order,
# then deletes parts of the list this returns and inserts new ones at its head.
def _shifted(parts: Sequence[int], d: int, by: int) -> list[int]:
    """The parts as a list, with ``by`` added to each of the ``d`` largest."""
    buf = list(parts)
    for i in range(d):  # no comprehension: before Python 3.12 it builds a closure per call
        buf[i] += by
    return buf


# The moves (see the module docstring).  A move returns None at the terminal
# state, else (case, d, new_k, buf) with buf its edit buffer, or None with
# FIXED_POINT when the state maps to itself.
def _fold_move(j: int, k: int, odd: bool, parts: Sequence[int]):
    s = j + 2 * k + (1 if odd else 0)  # the staircase top
    d = _durfee_size(parts, s)
    if d and parts[d - 1] - d == s:
        if d == 1:
            # largest part is exactly s + 1: the move would reproduce lam
            return FIXED_POINT, d, k, None
        buf = _shifted(parts, d - 1, 1)
        del buf[d - 1]  # part(d)
        buf.insert(0, s + 1)
        return 1, d, k, buf
    if not k:
        return None
    buf = _shifted(parts, d, -1)
    buf[:0] = (d + s, s - 1)
    return 2, d, k - 1, buf


def _unfold_move(j: int, k: int, odd: bool, parts: Sequence[int]):
    target = j + 2 * k + (2 if odd else 1)  # the staircase top + 1
    at = bisect_left(parts, -target, key=neg)  # the first copy of target, if any
    if at == len(parts) or parts[at] != target:
        return None
    # Each of the d largest parts exceeds target (part(i) >= i + target), so
    # at >= d: the row shift leaves buf[at] == target.
    d = _durfee_size(parts, target)
    if d and parts[d - 1] - d == target:
        buf = _shifted(parts, d - 1, 1)
        del buf[at]  # at > d - 1, so part(d) keeps its index
        del buf[d - 1]  # part(d)
        return 1, d, k + 1, buf
    if d == 0:
        return FIXED_POINT, d, k, None
    buf = _shifted(parts, d, -1)
    del buf[at]
    buf.insert(0, d + target)
    return 2, d, k, buf


def _stepped(state: PairState, move) -> StepResult:
    """The :class:`StepResult` of a move from ``state`` that is not terminal."""
    case, d, k, buf = move
    if case == FIXED_POINT:
        return StepResult(state, case, d)
    # built without the checks of PairState.__new__: j and odd come from a
    # state already checked, and a move returns k, k + 1 or, when k > 0, k - 1
    after = tuple.__new__(PairState, (state.j, k, _sealed(buf), state.odd))
    return StepResult(after, case, d)


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
    j, k, lam, odd = state
    move = _fold_move(j, k, odd, lam._parts)
    if move is None:
        raise DomainError(
            "cannot fold a terminal state: staircase exhausted and no arm "
            f"{state.top} present in {lam.to_text()!r}"
        )
    return _stepped(state, move)


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
    j, k, lam, odd = state
    move = _unfold_move(j, k, odd, lam._parts)
    if move is None:
        raise DomainError(
            f"cannot unfold a terminal state: no part {state.top + 1} in {lam.to_text()!r}"
        )
    return _stepped(state, move)


def _iterate(
    start: tuple,
    move: Callable,
    direction: str,
    steps: list[TraceStep] | None = None,
) -> tuple:
    """Apply ``move`` from ``start`` until it reports the terminal state.

    ``steps`` picks the mode, and a run that takes no step returns ``start``.  Traced, ``start``
    is a :class:`PairState`, each step is sealed and appended to the list ``steps`` as a
    :class:`TraceStep`, and the end is the last one's :class:`PairState`.  Untraced (``steps``
    None), ``start`` is a bare ``(j, k, parts, odd)`` with sorted parts, made a ``_BareStart``
    for the cap if it steps; each buffer goes through ``core._sorted``, unsealed as lam only
    gains weight along a fold and loses it along an unfold, and the end is ``(j, k, buf, odd)``.
    """
    j, k, lam, odd = start
    result = move(j, k, odd, lam if steps is None else lam._parts)
    if result is None:
        return start
    if steps is None:
        start = tuple.__new__(_BareStart, start)
    # Loose cap; legal runs finish far earlier, so exceeding it is a bug.
    cap = 2 * start.pair_weight + 2 * start.k + 4
    cur = start
    for _ in range(cap):
        case, d, k, buf = result
        if case == FIXED_POINT:
            raise IterationLimitError(
                f"{direction} iteration reached a fixed state outside the stop set"
            )
        if steps is None:
            _sorted(buf)
        else:
            after = tuple.__new__(PairState, (j, k, _sealed(buf), odd))
            steps.append(tuple.__new__(TraceStep, (direction, case, d, cur, after)))
            cur, buf = after, after.lam._parts
        result = move(j, k, odd, buf)
        if result is None:
            return cur if steps is not None else (j, k, buf, odd)
    raise IterationLimitError(f"{direction} iteration exceeded the cap of {cap} steps")


def fold_pair(state: PairState) -> tuple[PairState, Trace]:
    """Iterate :func:`fold_step` until the staircase index hits 0 and no arm remains."""
    steps: list[TraceStep] = []
    end = _iterate(state, _fold_move, "fold", steps)
    return end, tuple.__new__(Trace, ("fold", state, end, tuple(steps)))


def unfold_pair(state: PairState) -> tuple[PairState, Trace]:
    """Iterate :func:`unfold_step` until the partition lacks the absorbable part."""
    steps: list[TraceStep] = []
    end = _iterate(state, _unfold_move, "unfold", steps)
    return end, tuple.__new__(Trace, ("unfold", state, end, tuple(steps)))


# The stage kernels, on sorted parts and a validated j: each raises DomainError outside
# its domain or returns its edit buffer, for its map to seal or a composite to _sorted.
def _detach(j: int, parts: Sequence[int]) -> list[int]:
    d = _durfee_size(parts, j)
    if not (d and parts[d - 1] - d == j):
        raise DomainError(f"{_text(parts)!r} has no arm {j} to detach")
    buf = _shifted(parts, d - 1, 1)
    del buf[d - 1]  # part(d)
    return buf


def _attach(j: int, parts: Sequence[int]) -> list[int]:
    s = j + 1
    d = _durfee_size(parts, s)
    if d and parts[d - 1] - d == s:
        raise DomainError(f"{_text(parts)!r} has arm {s}; attaching requires it absent")
    buf = _shifted(parts, d, -1)
    buf.insert(0, d + s)
    return buf


def _to_low(j: int, parts: Sequence[int]) -> list[int]:
    if len(parts) < 2 and sum(parts) <= 1:  # weight at most 1
        raise DomainError("defined only for partitions of weight at least 2")
    if j and j not in parts:
        raise DomainError(f"{_text(parts)!r} has no part {j}")
    d = _durfee_size(parts, j)
    if d and parts[d - 1] - d == j:
        raise DomainError(f"{_text(parts)!r} has arm {j}")
    buf = _shifted(parts, d, -1)
    if j:
        buf.remove(j)  # any copy: the buffer is sorted later
    buf += [1] * (d + j)
    return buf


def _from_low(j: int, parts: Sequence[int], crank: int) -> list[int]:  # crank of parts
    if len(parts) < 2 and sum(parts) <= 1:
        raise DomainError("defined only for partitions of weight at least 2")
    if crank > -j:
        raise DomainError(f"{_text(parts)!r} has crank {crank} > {-j}")
    d = _durfee_size(parts, j)
    ones = d + j  # at least 1: weight above 1 makes d >= 1 when j == 0
    if parts[d:].count(1) < ones:  # the 1s lie below the d rows to shift
        raise IterationLimitError("missing guaranteed trailing 1s (bug)")
    buf = _shifted(parts, d, 1)
    del buf[-ones:]
    if j:
        buf.insert(0, j)
    return buf


def _negated(parts: Sequence[int]) -> list[int]:
    if len(parts) < 2 and sum(parts) <= 1:
        raise DomainError("defined only for partitions of weight at least 2")
    ones = parts.count(1)
    if ones == 0:
        out = [*parts[1:]] + [1] * parts[0]
    elif parts[0] <= ones:  # t == 0
        out = [ones, *parts[: len(parts) - ones]]
    else:
        r = max(ones, parts[1] - 1)
        conj = _conjugate_parts(parts[: len(parts) - ones])  # the 1s add only to conj[0]
        out = [conj[1] + parts[0] - r]
        out += map((1).__add__, conj[1:ones])  # no comprehension, as in _shifted
        out += conj[ones + 1 : r + 1]
        out += [1] * conj[ones]  # t == c(w + 1)
    return _in_order(out, "negate_crank")  # built in order: checked, not sorted


# The bodies of the maps below, which check j first: each runs the moves from its start, through
# ``pair`` or untraced, then its last kernel, and seals the output unless it is lam or the
# trace's end.  A later DomainError is a bug, re-raised as IterationLimitError naming the map.
def _fold_start(j: int, parts: Sequence[int], odd: bool) -> tuple:
    """A fold's bare start from the mex split; a run of 0 keeps ``parts`` itself."""
    run, rest = _mex_split(j, parts)
    if run % 2 != odd:
        parity = "even" if odd else "odd"
        raise DomainError(f"{_text(parts)!r} does not have an {parity} mex offset at j={j}")
    return j, run // 2, rest, odd


def _unfold_start(j: int, parts: Sequence[int], odd: bool) -> tuple:
    """An unfold's bare start: ``parts`` detached if ``odd``, else ``parts`` with no arm ``j``."""
    if odd:
        parts = _sorted(_detach(j, parts))
    elif _has_arm(parts, j):
        raise DomainError(f"{_text(parts)!r} has arm {j}; unfolding requires it absent")
    return j, 0, parts, odd


def _folded(j: int, lam: Partition, odd: bool, pair=None):
    start, out = _fold_start(j, lam._parts, odd), lam
    if pair is None:
        end = _iterate(start, _fold_move, "fold")[2]
    else:
        start = (j, start[1], lam if start[2] is lam._parts else _sealed(start[2]), odd)
        (_, _, out, _), trace = pair(tuple.__new__(PairState, start))
        end = out._parts
    try:
        end = _attach(j, end) if odd else end
    except DomainError as exc:
        raise _invariant_broken("fold_complement", exc) from exc
    out = out if end is out._parts else _sealed(end)
    return out if pair is None else (out, trace)


def _unfolded(j: int, lam: Partition, odd: bool, pair=None):
    start, out = _unfold_start(j, lam._parts, odd), lam
    if pair is None:
        _, k, end, _ = _iterate(start, _unfold_move, "unfold")
    else:
        start = (j, 0, lam if start[2] is lam._parts else _sealed(start[2]), odd)
        (_, k, out, _), trace = pair(tuple.__new__(PairState, start))
        end = out._parts
    try:
        end = _mex_join(j, 2 * k + odd, end)  # a join of run 0 returns its parts
    except DomainError as exc:
        raise _invariant_broken("unfold_complement" if odd else "unfold", exc) from exc
    out = out if end is out._parts else _sealed(end)
    return out if pair is None else (out, trace)


def fold(j: int, lam: Partition) -> tuple[Partition, Trace]:
    """Map a partition with odd mex offset at ``j`` to one avoiding arm ``j``.

    The partition enters through its mex decomposition (staircase of even
    length ``run``), the pair is folded down, and the surviving partition is
    returned together with the full step trace.  Weight is preserved, parts at
    most ``j`` are conserved, and :func:`unfold` is the exact inverse.
    """
    _check_nonnegative("j", j)
    return _folded(j, lam, False, fold_pair)


def unfold(j: int, lam: Partition) -> tuple[Partition, Trace]:
    """Inverse of :func:`fold`: rebuild the odd-mex partition from an arm-free one."""
    _check_nonnegative("j", j)
    return _unfolded(j, lam, False, unfold_pair)


def detach_step(j: int, lam: Partition) -> Partition:
    """Peel a single staircase step off a partition with arm ``j``.

    Deletes the witness part ``part(d) == d + j`` and adds 1 to the ``d - 1``
    larger parts.  The result avoids arm ``j + 1`` and weighs ``j + 1`` less;
    pairing it with the one-part staircase ``(j+1,)`` restores the weight.
    Exact inverse of :func:`attach_step`.
    """
    _check_nonnegative("j", j)
    return _sealed(_detach(j, lam._parts))


def attach_step(j: int, lam: Partition) -> Partition:
    """Inverse of :func:`detach_step`: absorb the one-part staircase ``(j+1,)``."""
    _check_nonnegative("j", j)
    return _sealed(_attach(j, lam._parts))


def fold_complement(j: int, lam: Partition) -> tuple[Partition, Trace]:
    """Even-mex-offset companion of :func:`fold`.

    A partition whose mex offset at ``j`` is even decomposes onto a staircase
    of odd length; folding the pair down to the one-part staircase and
    absorbing that step via :func:`attach_step` lands on a partition **with**
    arm ``j``.  Weight preserved; inverse :func:`unfold_complement`.
    """
    _check_nonnegative("j", j)
    return _folded(j, lam, True, fold_pair)


def unfold_complement(j: int, lam: Partition) -> tuple[Partition, Trace]:
    """Inverse of :func:`fold_complement`, entered from a partition with arm ``j``."""
    _check_nonnegative("j", j)
    return _unfolded(j, lam, True, unfold_pair)


def to_low_crank(j: int, lam: Partition) -> Partition:
    """Send an arm-free partition with a part ``j`` to one of crank at most ``-j``.

    Subtract 1 from the ``d`` largest parts (``d`` the shifted Durfee size at
    ``j``), delete one part ``j`` (skipped for ``j == 0``, where the part is
    the fictitious 0), and append ``d + j`` parts equal to 1.  Weight and the
    shifted Durfee size at ``j`` are preserved.  Defined for weight above 1;
    exact inverse :func:`from_low_crank`.
    """
    _check_nonnegative("j", j)
    return _sealed(_to_low(j, lam._parts))


def from_low_crank(j: int, lam: Partition) -> Partition:
    """Inverse of :func:`to_low_crank`, defined on cranks at most ``-j`` (weight > 1).

    Removes ``d + j`` trailing 1s, adds 1 to the ``d`` largest parts and
    re-inserts the part ``j`` (for ``j >= 1``).  The 1s are guaranteed to
    exist: crank at most ``-j`` forces at least ``d + j`` of them.
    """
    _check_nonnegative("j", j)
    return _sealed(_from_low(j, lam._parts, lam.crank()))


def negate_crank(lam: Partition) -> Partition:
    """Crank-negating, weight-preserving involution on partitions of weight > 1.

    Three cases on ``w`` (number of 1s) and ``t`` (number of parts larger
    than ``w``):

    * ``w == 0``: drop the largest part and append that many 1s.
    * ``w > 0, t == 0``: prepend a part ``w`` and drop all the 1s.
    * ``w > 0, t > 0``: with ``c(i)`` the length of column ``i`` of the Young
      diagram and ``r = max(w, part(2) - 1)``, the parts ``c(2) + part(1) - r``,
      ``c(i) + 1`` for ``2 <= i <= w`` and ``c(i)`` for ``w + 2 <= i <= r + 1``,
      then ``t == c(w + 1)`` trailing 1s.  The columns come from the conjugate
      of the parts above 1 (the 1s add only to ``c(1)``), and ``t`` is read
      from it as ``c(w + 1)``.
    """
    return _sealed(_negated(lam._parts))


def mex_to_crank(j: int, lam: Partition) -> Partition:
    """Carry a partition with part ``j`` and odd mex offset to crank at least ``j``.

    Composition of :func:`fold`, :func:`to_low_crank`, and
    :func:`negate_crank`; weight-preserving, with inverse
    :func:`crank_to_mex`.
    """
    _check_nonnegative("j", j)
    if lam._weight <= 1:
        raise DomainError("defined only for partitions of weight at least 2")
    if j and j not in lam._parts:
        raise DomainError(f"{lam.to_text()!r} has no part {j}")
    end = _iterate(_fold_start(j, lam._parts, False), _fold_move, "fold")[2]
    try:
        return _sealed(_negated(_sorted(_to_low(j, end))))
    except DomainError as exc:
        raise _invariant_broken("mex_to_crank", exc) from exc


def crank_to_mex(j: int, lam: Partition) -> Partition:
    """Inverse of :func:`mex_to_crank`, defined on cranks at least ``j`` (weight > 1)."""
    _check_nonnegative("j", j)
    crank = lam.crank()
    if crank < j:
        raise DomainError(f"{lam.to_text()!r} has crank {crank} < {j}")
    low = _sorted(_negated(lam._parts))  # of crank -crank
    try:
        start = _unfold_start(j, _sorted(_from_low(j, low, -crank)), False)
        _, k, end, _ = _iterate(start, _unfold_move, "unfold")
        return _sealed(_mex_join(j, 2 * k, end))
    except DomainError as exc:
        raise _invariant_broken("crank_to_mex", exc) from exc


def _fold_carries(parts: Sequence[int], j: int) -> tuple:
    # a fold run keeps the pair's length and the parts <= j (fold_step) from the mex
    # split on, and ends with no staircase part or one that attach_step absorbs as a part
    return len(parts), parts[bisect_left(parts, -j, key=neg):]


# The paper's bijections in suite order, each map by its name in maps: (suite name,
# (forward, backward) maps, (domain, codomain) of verify._classes, minimum weight, the
# odd flag of _folded/_unfolded or None if untraced, what the forward map keeps or None).
_BIJECTIONS = (
    ("fold", ("fold", "unfold"), ("odd_mex", "arm_free"), 0, False, "_fold_carries"),
    ("fold-complement", ("fold_complement", "unfold_complement"),
     ("even_mex", "arm_bearing"), 0, True, "_fold_carries"),
    ("low-crank", ("to_low_crank", "from_low_crank"),
     ("arm_free_with_part", "low_crank"), 2, None, "_durfee_size"),
    ("mex-to-crank", ("mex_to_crank", "crank_to_mex"),
     ("odd_mex_with_part", "high_crank"), 2, None, None),
)
