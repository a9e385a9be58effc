"""Property tests: invariants of the statistics and of the iterated maps' traces.

The step maps' conservation laws, inversions and fixed points are checked
over the enumerated state space by acceptance criterion 9.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from crankmex import PairState, Partition, mex_join, mex_split, partitions_of


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
