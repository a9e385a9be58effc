import pytest

from crankmex import (
    DomainError,
    IterationLimitError,
    Partition,
    crank_to_mex,
    fold,
    from_low_crank,
    mex_to_crank,
    negate_crank,
    partitions_of,
    to_low_crank,
    unfold,
)
from crankmex import maps

import golden_data


def P(text):
    return Partition.from_text(text)


# -- the low-crank map and its inverse ------------------------------------------


@pytest.mark.parametrize("j,source,d,image,crank", golden_data.LOW_CRANK_ROWS)
def test_from_low_crank_reference_rows(j, source, d, image, crank):
    assert from_low_crank(j, P(image)) == P(source)


def test_from_low_crank_smallest_case():
    assert from_low_crank(0, P("1,1")) == P("2")
    assert to_low_crank(0, P("2")) == P("1,1")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_low_crank_even_staircase_family(k):
    # closed form: k parts 2k-1..k, then k..1, then k extra 1s; crank -3
    lam = Partition(range(2 * k, 0, -1))
    expected = list(range(2 * k - 1, k - 1, -1)) + list(range(k, 0, -1)) + [1] * k
    out = to_low_crank(0, lam)
    assert out == Partition(sorted(expected, reverse=True))
    assert out.crank() == -3
    assert from_low_crank(0, out) == lam


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_low_crank_part_j_staircase_family(j, k):
    # input (j+2k, ..., j+1, j): one full run ending at j
    lam = Partition(range(j + 2 * k, j - 1, -1))
    if lam.weight <= 1:
        pytest.skip("outside the weight>1 domain")
    assert lam.durfee_size(j) == k
    expected = (
        list(range(2 * k - 1 + j, k + j - 1, -1))
        + list(range(k + j, j, -1))
        + [1] * (k + j)
    )
    out = to_low_crank(j, lam)
    assert out == Partition(sorted(expected, reverse=True))
    assert out.crank() == -j - (1 if k >= 1 else 0)
    assert from_low_crank(j, out) == lam


def test_low_crank_preserves_weight_and_durfee_size():
    for n in range(2, 16):
        for lam in partitions_of(n):
            for j in (0, 1, 2, 3):
                if not (lam.has_part(j) and lam.avoids_arm(j)):
                    continue
                out = to_low_crank(j, lam)
                assert out.weight == n
                assert out.crank() <= -j
                assert out.durfee_size(j) == lam.durfee_size(j)
                assert from_low_crank(j, out) == lam


@pytest.mark.parametrize("overshoot", [1, 5])
def test_from_low_crank_guards_its_trailing_ones(monkeypatch, overshoot):
    # crank at most -j guarantees d + j trailing 1s; a Durfee size that
    # overshoots asks for more 1s than the partition holds (by 5: more than
    # it has parts), which is a bug
    durfee = maps._durfee_size
    monkeypatch.setattr(maps, "_durfee_size", lambda parts, j: durfee(parts, j) + overshoot)
    with pytest.raises(IterationLimitError, match="missing guaranteed trailing 1s"):
        from_low_crank(0, P("2,1,1"))


def test_low_crank_domain_errors():
    with pytest.raises(DomainError):
        to_low_crank(1, P("1"))  # weight 1
    with pytest.raises(DomainError):
        to_low_crank(0, Partition())
    with pytest.raises(DomainError):
        to_low_crank(1, P("4,3"))  # no part 1
    with pytest.raises(DomainError):
        to_low_crank(0, P("7,2"))  # arm 0 present
    with pytest.raises(DomainError):
        from_low_crank(0, P("3"))  # crank 3 > 0
    with pytest.raises(DomainError):
        from_low_crank(0, P("1"))  # weight 1


# -- the crank-negating involution ------------------------------------------------


def test_negate_crank_no_ones_case():
    # the all-equal cases pair up across the two easy branches
    assert negate_crank(P("2,2")) == P("2,1,1")
    assert negate_crank(P("2,1,1")) == P("2,2")
    assert negate_crank(P("4")) == P("1,1,1,1")
    assert negate_crank(P("1,1,1,1")) == P("4")


def test_negate_crank_domain_errors():
    with pytest.raises(DomainError):
        negate_crank(Partition())
    with pytest.raises(DomainError):
        negate_crank(P("1"))


# -- the composed correspondence ----------------------------------------------------


@pytest.mark.parametrize("j,image", sorted(golden_data.COMPOSED_IMAGES.items()))
def test_composed_map_reference_images(j, image):
    lam = P(golden_data.RUNNING_EXAMPLE)
    out = mex_to_crank(j, lam)
    assert out == P(image)
    assert out.crank() >= j
    assert crank_to_mex(j, out) == lam


def test_composed_map_final_table_row():
    assert mex_to_crank(0, P("2,1,1,1,1,1,1,1")) == P("9")
    assert crank_to_mex(0, P("9")) == P("2,1,1,1,1,1,1,1")


def test_composed_map_weight_two():
    assert mex_to_crank(0, P("2")) == P("2")
    assert crank_to_mex(0, P("2")) == P("2")


def test_composed_round_trip_small_weights():
    for n in range(2, 15):
        for lam in partitions_of(n):
            for j in (0, 1, 2, 3):
                if not (lam.has_part(j) and lam.has_odd_mex(j)):
                    continue
                out = mex_to_crank(j, lam)
                assert out.weight == n
                assert out.crank() >= j
                assert crank_to_mex(j, out) == lam


def test_composed_map_domain_errors():
    with pytest.raises(DomainError):
        mex_to_crank(1, P("4,3"))  # lacks the part 1
    with pytest.raises(DomainError):
        mex_to_crank(2, P("5,3,2,2"))  # even mex offset at 2
    with pytest.raises(DomainError):
        crank_to_mex(3, P("2,1"))  # crank 0 < 3


def test_composites_match_their_traced_compositions():
    # mex_to_crank and crank_to_mex iterate without building a trace; they
    # must agree with the same composition through the traced fold/unfold
    for n in range(2, 15):
        for lam in partitions_of(n):
            for j in range(4):
                if lam.has_part(j) and lam.has_odd_mex(j):
                    expected = negate_crank(to_low_crank(j, fold(j, lam)[0]))
                    assert mex_to_crank(j, lam) == expected
                if lam.crank() >= j:
                    expected = unfold(j, from_low_crank(j, negate_crank(lam)))[0]
                    assert crank_to_mex(j, lam) == expected


def test_composite_keeps_the_iteration_cap(monkeypatch):
    # a move that grows the staircase forever: never terminal, never fixed;
    # it gives up on its own long after the cap (14 steps here), so a missing
    # cap fails the test instead of hanging it
    calls = []

    def runaway(j, k, odd, parts):
        calls.append(k)
        assert len(calls) < 1000, "the iteration cap did not stop the run"
        return 2, 0, k + 1, list(parts)

    monkeypatch.setattr(maps, "_fold_move", runaway)
    with pytest.raises(IterationLimitError, match="exceeded the cap of 14 steps"):
        mex_to_crank(0, P("2,1,1"))
    assert len(calls) == 15


def _never_steps(j, k, odd, parts):
    return None


@pytest.mark.parametrize(
    "name,patched,replacement,j,source,cause",
    [
        ("mex_to_crank", "_fold_move", _never_steps, 0, "11,8,7,7,5,5,4,3,2,2", "has arm 0"),
        ("crank_to_mex", "from_low_crank", lambda j, lam: lam, 5, "12,10,8,7,6,5,5,1",
         "has arm 5; unfolding requires it absent"),
        ("unfold", "_unfold_move", _never_steps, 0, "13,10,9,9,4,3,2,2,1,1",
         "rest must not contain the part 1"),
        ("fold_complement", "_fold_move", _never_steps, 0, "3,3,1", "has arm 1"),
        ("unfold_complement", "_unfold_move", _never_steps, 0, "2,2,2",
         "rest must not contain the part 2"),
    ],
    ids=["mex_to_crank", "crank_to_mex", "unfold", "fold_complement", "unfold_complement"],
)
def test_a_broken_invariant_after_the_entry_checks_is_a_bug(
    monkeypatch, name, patched, replacement, j, source, cause
):
    # with a stage patched to break its contract, the next stage's
    # DomainError is re-raised as IterationLimitError, chained, naming the map
    monkeypatch.setattr(maps, patched, replacement)
    with pytest.raises(IterationLimitError) as info:
        getattr(maps, name)(j, P(source))
    assert str(info.value).startswith(f"{name} broke an internal invariant: ")
    assert cause in str(info.value)
    assert isinstance(info.value.__cause__, DomainError)

