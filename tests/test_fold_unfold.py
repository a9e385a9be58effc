import pytest

from crankmex import (
    FIXED_POINT,
    DomainError,
    IterationLimitError,
    PairState,
    Partition,
    Trace,
    TraceStep,
    attach_step,
    detach_step,
    fold,
    fold_complement,
    fold_step,
    mex_join,
    mex_split,
    partitions_of,
    unfold,
    unfold_complement,
    unfold_step,
)
from crankmex import maps

import golden_data


def P(text):
    return Partition.from_text(text)


RUNNING = P(golden_data.RUNNING_EXAMPLE)


# -- single steps --------------------------------------------------------------


@pytest.mark.parametrize(
    "j,k,lam,expect_k,expect_lam,case,d",
    [
        (0, 0, "11,8,7,7,5,5,4,3,2,2", 0, "12,9,8,8,5,4,3,2,2,1", 1, 5),
        (1, 2, "11,8,7,7,5,2", 1, "10,7,7,7,7,5,4,2", 2, 2),
        (3, 1, "11,8,7,7,5,3,2,2", 0, "10,7,7,7,7,5,4,3,2,2", 2, 2),
    ],
)
def test_fold_step_examples(j, k, lam, expect_k, expect_lam, case, d):
    result = fold_step(PairState(j, k, P(lam)))
    assert result.case == case
    assert result.d == d
    assert result.state == PairState(j, expect_k, P(expect_lam))


@pytest.mark.parametrize(
    "j,k,lam,expect_k,expect_lam,case",
    [
        (0, 0, "13,10,9,9,4,3,2,2,1,1", 0, "12,9,8,8,5,4,3,2,2,1", 2),
        (1, 1, "10,7,7,7,7,5,4,2", 2, "11,8,7,7,5,2", 1),
    ],
)
def test_unfold_step_examples(j, k, lam, expect_k, expect_lam, case):
    result = unfold_step(PairState(j, k, P(lam)))
    assert result.case == case
    assert result.state == PairState(j, expect_k, P(expect_lam))


def test_fold_step_rejects_terminal_state():
    # empty staircase with the arm absent is the stop set
    with pytest.raises(DomainError):
        fold_step(PairState(0, 0, P("13,10,9,9,4,3,2,2,1,1")))


def test_unfold_step_rejects_terminal_state():
    with pytest.raises(DomainError):
        unfold_step(PairState(1, 2, P("11,8,7,7,5,2")))  # no part 6


@pytest.mark.parametrize(
    "j,k,message",
    [
        (-1, 0, "j must be a non-negative integer, got -1"),
        (0, True, "k must be a non-negative integer, got True"),
        (1.0, -1, "j must be a non-negative integer, got 1.0"),
        (0, -1, "k must be a non-negative integer, got -1"),
    ],
)
def test_pair_state_rejects_bad_indices(j, k, message):
    with pytest.raises(DomainError) as info:
        PairState(j, k, P(""))
    assert str(info.value) == message
    with pytest.raises(DomainError) as info:
        PairState(0, 0, P(""))._replace(j=j, k=k)
    assert str(info.value) == message


def test_states_and_steps_are_immutable_values():
    state = PairState(1, 2, P("3,1"), odd=True)
    assert state == PairState(1, 2, P("3,1"), True) == (1, 2, P("3,1"), True)
    assert state != PairState(1, 2, P("3,1"))
    assert hash(state) == hash(PairState(1, 2, P("3,1"), odd=True))
    step = TraceStep("fold", 1, 2, state, state)
    assert step == TraceStep("fold", 1, 2, state, state)
    assert len({step, TraceStep("fold", 1, 2, state, state)}) == 1
    for value, field in ((state, "k"), (step, "case")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)


def test_traces_are_named_tuples_whose_length_counts_steps():
    _, trace = fold(0, RUNNING)
    fields = (trace.direction, trace.start, trace.end, trace.steps)
    assert type(trace) is Trace and trace == fields and hash(trace) == hash(fields)
    assert len(trace) == len(trace.steps) == len(golden_data.FOLD_TRACES[0][0])
    assert Trace(*fields) == trace
    # _replace goes through _make, which must count fields, not steps
    empty = trace._replace(steps=())
    assert type(empty) is Trace and empty == fields[:3] + ((),) and len(empty) == 0
    assert trace._replace(direction="unfold") == ("unfold",) + fields[1:]
    with pytest.raises(TypeError):
        Trace._make(fields[:3])
    for field in ("steps", "start", "other"):
        with pytest.raises(AttributeError):
            setattr(trace, field, None)
    # what the benchmark's tracer reads: the steps' cases and the start state
    assert trace.start == PairState(0, 0, RUNNING)
    assert trace.steps[0].before == trace.start and trace.steps[-1].after == trace.end
    assert all(step.case in (1, 2) for step in trace.steps)


def test_fixed_points_are_tagged():
    # largest part exactly one above the staircase top, arm present
    assert fold_step(PairState(0, 1, P("3"))).case == FIXED_POINT
    assert unfold_step(PairState(0, 0, P("1"))).case == FIXED_POINT


# -- iterated maps on the running example ---------------------------------------


@pytest.mark.parametrize("j", sorted(golden_data.FOLD_TRACES))
def test_fold_scans_once_per_step(monkeypatch, j):
    # one Durfee scan decides both "stop" and "which case": one per step
    # taken and one for the terminal state
    calls = []
    durfee = maps._durfee_size

    def counting(parts, s):
        calls.append(s)
        return durfee(parts, s)

    monkeypatch.setattr(maps, "_durfee_size", counting)
    _, trace = fold(j, RUNNING)
    assert len(calls) == len(trace) + 1


@pytest.mark.parametrize("j", sorted(golden_data.FOLD_TRACES))
def test_unfold_inverts_fold(j):
    out, _ = fold(j, RUNNING)
    back, _ = unfold(j, out)
    assert back == RUNNING


def test_mex_membership_of_running_example():
    for j, member in golden_data.ODD_MEX_MEMBERSHIP.items():
        assert RUNNING.has_odd_mex(j) == member


def test_mex_splits_of_running_example():
    for j, (run, rest) in golden_data.MEX_SPLITS.items():
        dec = mex_split(j, RUNNING)
        assert (dec.run, dec.rest) == (run, P(rest))


# -- staircase family ------------------------------------------------------------


@pytest.mark.parametrize("j", [0, 1, 3])
@pytest.mark.parametrize("k", [0, 1])
def test_fold_fixes_short_staircases(j, k):
    # joining the even staircase with the empty partition gives the staircase
    # itself; for runs of length up to 2 it is its own image
    lam = mex_join(j, 2 * k, Partition())
    assert lam == Partition(range(j + 2 * k, j, -1))
    out, _ = fold(j, lam)
    assert out == lam


def test_fold_of_longer_staircase():
    # hand-computed: the run-4 staircase over 0 folds to (4,4,1,1), not to itself
    out, trace = fold(0, P("4,3,2,1"))
    assert out == P("4,4,1,1")
    assert len(trace) == 3
    back, _ = unfold(0, out)
    assert back == P("4,3,2,1")
    # and (4,3,2,1) is instead the image of (5,2,2,1)
    assert fold(0, P("5,2,2,1"))[0] == P("4,3,2,1")


# -- complementary classes ---------------------------------------------------------


def test_detach_attach_example():
    assert detach_step(2, P("4,4,2,2")) == P("5,2,2")
    assert attach_step(2, P("5,2,2")) == P("4,4,2,2")


def test_detach_attach_round_trip():
    for n in range(14):
        for lam in partitions_of(n):
            for j in (0, 1, 2, 4):
                if lam.avoids_arm(j):
                    continue
                mu = detach_step(j, lam)
                assert mu.avoids_arm(j + 1)
                assert mu.weight == n - (j + 1)
                assert attach_step(j, mu) == lam


def test_fold_complement_example():
    out, _ = fold_complement(2, P("5,3,2,2"))
    assert out == P("4,4,2,2")
    assert out.weight == 12
    assert out.has_arm(2)
    back, _ = unfold_complement(2, out)
    assert back == P("5,3,2,2")


def test_complement_domain_errors():
    with pytest.raises(DomainError):
        fold_complement(0, Partition())  # empty partition has odd mex offset
    with pytest.raises(DomainError):
        unfold_complement(0, P("9"))  # no arm 0


@pytest.mark.parametrize(
    "lam, odd, message",
    [
        ((5, 3), False, "lam must be a Partition, got tuple"),
        ("5,3", False, "lam must be a Partition, got str"),
        (None, False, "lam must be a Partition, got NoneType"),
        (P("5,3"), "no", "odd must be a bool, got 'no'"),
        (P("5,3"), 1, "odd must be a bool, got 1"),
        (P("5,3"), None, "odd must be a bool, got None"),
    ],
)
def test_pair_state_rejects_a_bad_partition_or_mode(lam, odd, message):
    with pytest.raises(DomainError) as info:
        PairState(0, 1, lam, odd)
    assert str(info.value) == message
    with pytest.raises(DomainError) as info:
        PairState(0, 1, P(""))._replace(lam=lam, odd=odd)
    assert str(info.value) == message


def test_complement_domain_error_messages():
    with pytest.raises(DomainError) as info:
        fold_complement(0, Partition())
    assert str(info.value) == "'' does not have an even mex offset at j=0"
    with pytest.raises(DomainError) as info:
        unfold_complement(0, P("9"))
    assert str(info.value) == "'9' has no arm 0 to detach"


def _steps(trace):
    # a step as the moves see it: (case, d) and the (k, partition) either side
    return [(s.case, s.d, s.before.k, s.before.lam, s.after.k, s.after.lam) for s in trace.steps]


def _with_part(lam, part):
    return Partition(sorted(lam.parts + (part,), reverse=True))


def _without_part(lam, part):
    parts = list(lam.parts)
    parts.remove(part)
    return Partition(parts)


def test_complement_maps_run_as_the_plain_maps_one_step_up():
    # A move reads only the staircase top j + 2k + odd, so the odd staircase
    # over j runs step for step like the even one over j + 1: fold_complement
    # at j is fold at j + 1 on lam less one part j + 1, then attach_step, and
    # unfold_complement is detach_step, then unfold at j + 1, plus a part j + 1.
    folds = unfolds = 0
    for n in range(19):
        for lam in partitions_of(n):
            for j in range(6):
                s = j + 1
                try:
                    out, trace = fold_complement(j, lam)
                except DomainError:
                    if lam.has_part(s):
                        with pytest.raises(DomainError):
                            fold(s, _without_part(lam, s))
                else:
                    image, plain = fold(s, _without_part(lam, s))
                    assert out == attach_step(j, image), (j, lam)
                    assert _steps(trace) == _steps(plain), (j, lam)
                    folds += 1
                try:
                    out, trace = unfold_complement(j, lam)
                except DomainError:
                    with pytest.raises(DomainError):
                        detach_step(j, lam)
                else:
                    image, plain = unfold(s, detach_step(j, lam))
                    assert out == _with_part(image, s), (j, lam)
                    assert _steps(trace) == _steps(plain), (j, lam)
                    unfolds += 1
    assert folds == unfolds == 2885


# -- the step cap ------------------------------------------------------------------


@pytest.mark.parametrize("keep_trace", [False, True])
@pytest.mark.parametrize("extra", [0, 1])
def test_iteration_cap_boundary(keep_trace, extra):
    # A fake move that steps `cap + extra` times and then reports the
    # terminal state: exactly `cap` steps end normally, one more is an error
    # raised after `cap + 1` move calls.  A traced run starts from a PairState,
    # an untraced one from a bare (j, k, parts, odd), as the untraced bodies
    # pass it, and gets the same cap once it steps.
    state = PairState(1, 2, P("2,1"))  # staircase (5,4,3,2): pair weight 17
    cap = 2 * 17 + 2 * 2 + 4
    start, steps = (state, []) if keep_trace else ((1, 2, (2, 1), False), None)
    calls = []

    def move(j, k, odd, parts):
        calls.append(parts)
        if len(calls) > cap + extra:
            return None
        return 1, 0, k, list(parts)

    if extra:
        with pytest.raises(IterationLimitError) as info:
            maps._iterate(start, move, "fold", steps)
        assert str(info.value) == f"fold iteration exceeded the cap of {cap} steps"
    else:
        # an untraced run ends around the sorted list of its last step
        j, k, lam, odd = maps._iterate(start, move, "fold", steps)
        assert (j, k, tuple(lam), odd) == (1, 2, (2, 1), False)
        assert steps is None or len(steps) == cap
    assert len(calls) == cap + 1


def test_zero_run_starts_never_split():
    # a run of 0 splits off nothing: with no part j + 1, the split returns
    # lam's own parts object, and fold starts from (empty staircase, lam)
    cases = [
        (j, lam)
        for n in range(11)
        for lam in partitions_of(n)
        for j in range(4)
        if not lam.has_part(j + 1)
    ]
    for j, lam in cases:
        run, rest = maps._mex_split(j, lam.parts)
        assert run == 0 and rest is lam.parts
        assert mex_split(j, lam).rest is lam
        assert fold(j, lam)[1].start.lam is lam
    # the odd entry rejects them all, with the parity message
    for j, lam in cases:
        with pytest.raises(DomainError) as info:
            fold_complement(j, lam)
        assert str(info.value) == f"{lam.to_text()!r} does not have an even mex offset at j={j}"
