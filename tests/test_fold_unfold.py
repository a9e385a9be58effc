import pytest

from crankmex import (
    FIXED_POINT,
    DomainError,
    PairState,
    Partition,
    TraceStep,
    attach_step,
    detach_step,
    fold,
    fold_complement,
    fold_step,
    mex_join,
    mex_split,
    partitions_of,
    staircase,
    unfold,
    unfold_complement,
    unfold_step,
)

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


def test_fixed_points_are_tagged():
    # largest part exactly one above the staircase top, arm present
    assert fold_step(PairState(0, 1, P("3"))).case == FIXED_POINT
    assert unfold_step(PairState(0, 0, P("1"))).case == FIXED_POINT


# -- iterated maps on the running example ---------------------------------------


@pytest.mark.parametrize("j", sorted(golden_data.FOLD_TRACES))
def test_fold_reproduces_reference_traces(j):
    steps, stop = golden_data.FOLD_TRACES[j]
    out, trace = fold(j, RUNNING)
    assert len(trace) == len(steps)
    for step, (k, lam, d, case, image) in zip(trace.steps, steps):
        assert step.before.k == k
        assert step.before.lam == P(lam)
        assert step.d == d
        assert step.case == case
        assert step.after.lam == P(image)
    stop_k, stop_lam, _ = stop
    assert trace.end.k == stop_k
    assert out == P(stop_lam)


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
    assert lam == staircase(j, 2 * k)
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


# -- exhaustive round trips -------------------------------------------------------


@pytest.mark.parametrize("j", [0, 1, 2, 5])
def test_fold_round_trip_small_weights(j):
    for n in range(15):
        for lam in partitions_of(n):
            if not lam.has_odd_mex(j):
                continue
            out, _ = fold(j, lam)
            assert out.weight == n
            assert out.avoids_arm(j)
            back, _ = unfold(j, out)
            assert back == lam


@pytest.mark.parametrize("j", [0, 1, 2, 5])
def test_unfold_round_trip_small_weights(j):
    for n in range(15):
        for lam in partitions_of(n):
            if lam.has_arm(j):
                continue
            out, _ = unfold(j, lam)
            assert out.weight == n
            assert out.has_odd_mex(j)
            forward, _ = fold(j, out)
            assert forward == lam


def test_fold_preserves_small_parts():
    for n in range(13):
        for lam in partitions_of(n):
            for j in (0, 1, 2, 3):
                if not lam.has_odd_mex(j):
                    continue
                out, _ = fold(j, lam)
                assert tuple(p for p in lam.parts if p <= j) == tuple(
                    p for p in out.parts if p <= j
                )
                if lam.has_part(j):
                    assert out.has_part(j)


def test_fold_rejects_even_mex_offset():
    with pytest.raises(DomainError):
        fold(2, P("5,3,2,2"))


def test_unfold_rejects_arm_bearing_input():
    with pytest.raises(DomainError):
        unfold(0, P("7,2"))


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


def test_fold_complement_round_trip_weight_20():
    # every even-mex-offset partition of weight up to 20 at j=2 round-trips
    for n in range(21):
        for lam in partitions_of(n):
            if lam.has_odd_mex(2):
                continue
            out, _ = fold_complement(2, lam)
            assert out.weight == n
            assert out.has_arm(2)
            back, _ = unfold_complement(2, out)
            assert back == lam


def test_complement_domain_errors():
    with pytest.raises(DomainError):
        fold_complement(0, Partition())  # empty partition has odd mex offset
    with pytest.raises(DomainError):
        unfold_complement(0, P("9"))  # no arm 0
