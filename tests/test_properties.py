"""Property tests: invariants of the statistics and conservation laws of the maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crankmex import (
    FIXED_POINT,
    PairState,
    Partition,
    fold_step,
    mex_join,
    mex_split,
    partitions_of,
    unfold_step,
)


@st.composite
def partitions(draw, max_part=15, max_len=9):
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_len))
    return Partition(sorted(parts, reverse=True))


small_j = st.integers(0, 10)


@given(partitions())
def test_conjugate_is_weight_preserving_involution(lam):
    conj = lam.conjugate()
    assert conj.weight == lam.weight
    assert conj.conjugate() == lam
    if lam.parts:
        assert len(conj) == lam.parts[0]


@given(partitions())
def test_crank_is_bounded_by_weight(lam):
    assert -lam.weight <= lam.crank() <= lam.weight


@given(partitions(), small_j)
def test_durfee_size_monotonicity(lam, j):
    assert lam.durfee_size(j) - lam.durfee_size(j + 1) in (0, 1)
    sizes = [lam.durfee_size(i) for i in range(j + 3)]
    assert sizes == sorted(sizes, reverse=True)
    shifted = [sizes[i] + i for i in range(len(sizes))]
    assert shifted == sorted(shifted)


@given(partitions())
def test_durfee_triple_round_trip(lam):
    triple = lam.durfee_triple()
    # the rebuild from (size, arms, legs): rows of the square, then the rows
    # below it, whose lengths are read off the legs
    size, arms, legs = triple
    rows = [arms[i] + i + 1 for i in range(size)]
    for i in range(size + 1, legs[0] + 2 if size else 0):
        rows.append(sum(1 for u in range(size) if legs[u] + u + 1 >= i))
    assert Partition(rows) == lam
    assert lam.weight == triple.size + sum(triple.arms) + sum(triple.legs)


@given(partitions(), small_j)
def test_arm_avoidance_matches_durfee_arms(lam, j):
    assert lam.avoids_arm(j) == (j not in lam.durfee_triple().arms)


@given(partitions(), small_j)
def test_mex_split_join_round_trip(lam, j):
    dec = mex_split(j, lam)
    assert dec.run == lam.mex(j) - j - 1
    assert not dec.rest.count(j + dec.run + 1)
    assert mex_join(j, dec.run, dec.rest) == lam


@given(partitions(), small_j)
def test_low_crank_criterion(lam, j):
    # crank at most -j exactly when the 1s dominate the shifted Durfee size
    assert (lam.crank() <= -j) == (lam.count(1) >= lam.durfee_size(j) + j)


# -- step-map invariants over an enumerated state space -------------------------


def pair_states(max_pair_weight, js=range(9), odd=False):
    for j in js:
        k = 0
        while True:
            m = 2 * k + (1 if odd else 0)
            stair_weight = m * (m + 1) // 2 + j * m
            if stair_weight > max_pair_weight:
                break
            for w in range(max_pair_weight - stair_weight + 1):
                for lam in partitions_of(w):
                    yield PairState(j, k, lam, odd=odd)
            k += 1


def fold_applicable(state):
    return not (state.k == 0 and state.lam.avoids_arm(state.top))


def unfold_applicable(state):
    return bool(state.lam.count(state.top + 1))


@pytest.mark.parametrize("odd", [False, True])
def test_step_inversion_on_state_space(odd):
    for state in pair_states(12, odd=odd):
        if fold_applicable(state):
            result = fold_step(state)
            if result.case == FIXED_POINT:
                continue
            back = unfold_step(result.state)
            assert back.state == state
            assert back.case != FIXED_POINT
        if unfold_applicable(state):
            result = unfold_step(state)
            if result.case == FIXED_POINT:
                continue
            back = fold_step(result.state)
            assert back.state == state


@pytest.mark.parametrize("odd", [False, True])
def test_step_conservation_laws(odd):
    for state in pair_states(12, odd=odd):
        small = tuple(p for p in state.lam.parts if p <= state.j)
        for applicable, stepper in (
            (fold_applicable, fold_step),
            (unfold_applicable, unfold_step),
        ):
            if not applicable(state):
                continue
            result = stepper(state)
            if result.case == FIXED_POINT:
                continue
            after = result.state
            assert after.pair_weight == state.pair_weight
            assert after.staircase_len + len(after.lam) == state.staircase_len + len(state.lam)
            assert tuple(p for p in after.lam.parts if p <= after.j) == small


def test_fixed_point_characterization():
    # fold fixes exactly the arm-bearing states with largest part top+1;
    # unfold fixes exactly the states whose largest part equals top+1 with
    # shifted Durfee size 0 at top+1
    for state in pair_states(12):
        if fold_applicable(state):
            fixed = fold_step(state).case == FIXED_POINT
            shape = (
                state.lam.has_arm(state.top)
                and state.lam.parts[0] == state.top + 1
            )
            assert fixed == shape
        if unfold_applicable(state):
            fixed = unfold_step(state).case == FIXED_POINT
            shape = (
                state.lam.durfee_size(state.top + 1) == 0
                and state.lam.parts[0] == state.top + 1
            )
            assert fixed == shape


def test_case_one_run_lengths():
    # from an arm-bearing state with largest part above top+1, the number of
    # consecutive case-1 folds equals the multiplicity of the arm part value
    # from the Durfee index on, after which the arm is gone
    import golden_data
    from crankmex import fold

    lam = Partition.from_text(golden_data.RUNNING_EXAMPLE)
    for n in range(14):
        for entry in partitions_of(n):
            for j in (0, 1, 2):
                if not entry.has_odd_mex(j):
                    continue
                _, trace = fold(j, entry)
                _assert_run_structure(trace)
    for j in sorted(golden_data.FOLD_TRACES):
        _assert_run_structure(fold(j, lam)[1])


def _assert_run_structure(trace):
    steps = list(trace.steps)
    i = 0
    while i < len(steps):
        if steps[i].case != 1:
            i += 1
            continue
        state = steps[i].before
        s = state.top
        d = state.lam.durfee_size(s)
        expected = sum(
            1 for idx in range(d, len(state.lam) + 1) if state.lam.parts[idx - 1] == d + s
        )
        run = 0
        while i < len(steps) and steps[i].case == 1:
            run += 1
            i += 1
        assert run == expected
        end_state = steps[i - 1].after
        assert end_state.lam.avoids_arm(end_state.top)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_traces_chain_correctly(j):
    from crankmex import fold, unfold

    for n in range(13):
        for lam in partitions_of(n):
            if lam.has_odd_mex(j):
                _, trace = fold(j, lam)
            else:
                continue
            if trace.steps:
                assert trace.steps[0].before == trace.start
                assert trace.steps[-1].after == trace.end
            else:
                assert trace.start == trace.end
            for left, right in zip(trace.steps, trace.steps[1:]):
                assert left.after == right.before
                assert left.direction == trace.direction


@settings(max_examples=60)
@given(partitions(max_part=10, max_len=7), st.integers(0, 6))
def test_trace_lengths_stay_under_cap(lam, j):
    from crankmex import fold, unfold

    if lam.has_odd_mex(j):
        dec = mex_split(j, lam)
        state = PairState(j, dec.run // 2, dec.rest)
        _, trace = fold(j, lam)
        assert len(trace) <= 2 * state.pair_weight + 2 * state.k + 4
    if lam.avoids_arm(j):
        _, trace = unfold(j, lam)
        assert len(trace) <= 2 * lam.weight + 4
