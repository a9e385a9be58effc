
import random

import pytest

from crankmex import (
    MAX_WEIGHT,
    DomainError,
    DurfeeTriple,
    IterationLimitError,
    Partition,
    PartitionError,
    mex_join,
    mex_split,
)
from crankmex.core import _check_nonnegative, _checked_weight, _sealed


def P(text):
    return Partition.from_text(text)


# -- validation and text form -------------------------------------------------


def test_empty_partition():
    empty = Partition()
    assert empty.weight == 0
    assert len(empty) == 0
    assert empty.to_text() == ""
    assert Partition.from_text("") == empty


def test_valid_partition():
    lam = Partition((5, 3, 2, 2))
    assert lam.weight == 12
    assert len(lam) == 4
    assert lam.parts == (5, 3, 2, 2)


def test_rejects_increasing_pair():
    with pytest.raises(PartitionError, match="part #2"):
        Partition((2, 3))


def test_rejects_nonpositive_parts():
    with pytest.raises(PartitionError, match="part #1"):
        Partition((0,))
    with pytest.raises(PartitionError, match="part #3"):
        Partition((4, 2, -1))


def test_rejects_non_integers():
    with pytest.raises(PartitionError):
        Partition((2.5,))
    with pytest.raises(PartitionError, match="entry #2"):
        Partition.from_text("3,x")
    # only an optional sign and ASCII digits: no "_" separator, no other digits
    for text in ("3,1_0", "3,\u0662", "3,\u00b2", "3,+-1"):
        with pytest.raises(PartitionError, match="entry #2 is not an integer"):
            Partition.from_text(text)
    assert Partition.from_text("+3, 2 ") == Partition((3, 2))


@pytest.mark.parametrize(
    "parts,message",
    [
        ((3, True), "part #2 is not an integer: True"),
        ((2.0,), "part #1 is not an integer: 2.0"),
        ((3, 0), "part #2 must be positive, got 0"),
        ((2, 3, 0), "parts must be non-increasing: part #2 (3) exceeds part #1 (2)"),
        ((MAX_WEIGHT, 1), f"weight {MAX_WEIGHT + 1} exceeds the supported maximum {MAX_WEIGHT}"),
    ],
)
def test_rejection_messages(parts, message):
    with pytest.raises(PartitionError) as info:
        Partition(parts)
    assert str(info.value) == message


def test_long_rejection_messages_name_the_first_bad_part():
    long = (9,) * 40 + (5,) * 40 + (1,) * 40
    assert Partition(long).weight == sum(long)
    cases = [
        (long[:60] + (6,) + long[61:], "parts must be non-increasing: part #61 (6) exceeds part #60 (5)"),
        (long[:90] + (0,) + long[91:], "part #91 must be positive, got 0"),
        (long[:119] + (1.0,), "part #120 is not an integer: 1.0"),
        (long[:30] + (True,) + long[31:], "part #31 is not an integer: True"),
    ]
    for parts, message in cases:
        with pytest.raises(PartitionError) as info:
            Partition(parts)
        assert str(info.value) == message


def test_constructor_agrees_with_the_part_by_part_check():
    # the constructor accepts a sequence of any length through checks that
    # run in C and falls back to _checked_weight on any failure; the two must
    # accept and reject alike
    class Count(int):
        pass

    rng = random.Random(11)
    values = (1, 1, 2, 2, 3, 5, 8, 13)
    odd = (-1, 0, True, 2.0, Count(2))
    for _ in range(3000):
        seq = [rng.choice(values) for _ in range(rng.randint(0, 60))]
        if seq and rng.random() < 0.3:
            seq[rng.randrange(len(seq))] = rng.choice(odd)
        if rng.random() < 0.6:
            seq.sort(reverse=True)
        seq = tuple(seq)
        try:
            expected = _checked_weight(seq)
        except PartitionError as exc:
            with pytest.raises(PartitionError) as info:
                Partition(seq)
            assert str(info.value) == str(exc)
        else:
            lam = Partition(seq)
            assert lam.parts == seq and lam.weight == expected


def test_accepts_int_subclass_parts():
    class Count(int):
        pass

    lam = Partition((Count(3), 2, Count(2)))
    assert lam == Partition((3, 2, 2))
    assert lam.weight == 7


def test_check_nonnegative_rejects_bool():
    with pytest.raises(DomainError, match="got True"):
        _check_nonnegative("j", True)
    _check_nonnegative("j", 0)


def test_text_round_trip():
    for text in ("", "9", "11,8,7,7,5,5,4,3,2,2"):
        assert P(text).to_text() == text


def test_equality_and_hash():
    assert P("5,3,2,2") == Partition((5, 3, 2, 2))
    assert hash(P("2,1")) == hash(Partition((2, 1)))
    assert P("2,1") != P("2,2")


def test_ordering_against_a_non_partition_is_a_type_error():
    with pytest.raises(TypeError):
        Partition((2, 1)) < 5
    with pytest.raises(TypeError):
        Partition((2, 1)) < (3,)


def test_partitions_sort_by_their_parts():
    shuffled = [P("2,1"), P("3"), P(""), P("1,1,1"), P("2,2")]
    assert [lam.to_text() for lam in sorted(shuffled)] == ["", "1,1,1", "2,1", "2,2", "3"]


# -- statistics ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,ones",
    [("", 0), ("13,10,9,9,4,3,2,2,1,1", 2), ("12,9,8,8,4,3,2,2,1,1,1,1,1,1", 6)],
)
def test_ones_count(text, ones):
    assert P(text).count(1) == ones


@pytest.mark.parametrize(
    "text,tall",
    [
        ("", 0),
        ("12,9,8,8,4,3,2,2,1,1,1,1,1,1", 4),
        ("10,7,7,7,5,4,3,2,2,1,1,1,1,1,1,1", 1),
    ],
)
def test_parts_above_ones(text, tall):
    lam = P(text)
    assert lam.count_above(lam.count(1)) == tall


@pytest.mark.parametrize(
    "text,value",
    [
        ("", 0),
        ("12,9,7,6,5,5,4,2,1,1,1,1", 2),
        ("11,8,8,5,4,4,4,2,2,1,1,1,1,1,1", -3),
        ("2,2", 2),
    ],
)
def test_crank(text, value):
    assert P(text).crank() == value


def test_mex():
    assert Partition().mex(0) == 1
    assert Partition().mex(7) == 8
    lam = P("5,3,2,2")
    assert lam.mex(0) == 1
    assert lam.mex(1) == 4
    assert lam.mex(2) == 4
    assert lam.mex(3) == 4
    assert lam.mex(4) == 6
    assert lam.mex(9) == 10


def test_odd_mex_membership():
    assert Partition().has_odd_mex(0)
    assert Partition().has_odd_mex(5)
    lam = P("5,3,2,2")
    expected = {0: True, 1: True, 2: False, 3: True, 4: False, 5: True, 6: True}
    assert {j: lam.has_odd_mex(j) for j in expected} == expected


def test_durfee_size():
    assert Partition().durfee_size(0) == 0
    assert Partition().durfee_size(9) == 0
    lam = P("5,3,2,2")
    assert [lam.durfee_size(j) for j in range(8)] == [2, 2, 1, 1, 1, 0, 0, 0]


def test_arm_membership():
    assert Partition().avoids_arm(0)
    assert not P("7,2").avoids_arm(0)  # 2 - 2 == 0
    assert P("13,10,9,9,4,3,2,2,1,1").avoids_arm(0)


def test_has_part():
    assert Partition().has_part(0)  # 0 is a part of everything
    assert P("5,3,2,2").has_part(3)
    assert not P("5,3,2,2").has_part(4)
    with pytest.raises(DomainError):
        P("3").has_part(-1)


# -- conjugation and decompositions -------------------------------------------


@pytest.mark.parametrize(
    "text,conj",
    [
        ("", ""),
        ("8,1", "2,1,1,1,1,1,1,1"),
        ("7,1,1", "3,1,1,1,1,1,1"),
        ("5,3,2,2", "4,4,2,1,1"),
    ],
)
def test_conjugate(text, conj):
    assert P(text).conjugate() == P(conj)
    assert P(text).conjugate().conjugate() == P(text)


def test_durfee_triple():
    assert Partition().durfee_triple() == DurfeeTriple(0, (), ())
    assert P("5,3,2,2").durfee_triple() == DurfeeTriple(2, (4, 1), (3, 2))
    assert P("2,2").durfee_triple() == DurfeeTriple(2, (1, 0), (1, 0))


def test_durfee_round_trip():
    for text in ("", "5,3,2,2", "2,2", "1,1,1", "9", "6,6,6,1"):
        lam = P(text)
        triple = lam.durfee_triple()
        # the rebuild from (size, arms, legs): rows of the square, then the rows
        # below it, whose lengths are read off the legs
        size, arms, legs = triple
        rows = [arms[i] + i + 1 for i in range(size)]
        for i in range(size + 1, legs[0] + 2 if size else 0):
            rows.append(sum(1 for u in range(size) if legs[u] + u + 1 >= i))
        assert Partition(rows) == lam
        assert lam.weight == triple.size + sum(triple.arms) + sum(triple.legs)


def test_mex_split_examples():
    dec = mex_split(1, P("11,8,7,7,5,5,4,3,2,2"))
    assert (dec.run, dec.rest) == (4, P("11,8,7,7,5,2"))
    dec = mex_split(5, P("11,8,7,7,5,5,4,3,2,2"))
    assert (dec.run, dec.rest) == (0, P("11,8,7,7,5,5,4,3,2,2"))
    dec = mex_split(3, Partition())
    assert (dec.run, dec.rest) == (0, Partition())


def test_mex_split_join_round_trip():
    lam = P("11,8,7,7,5,5,4,3,2,2")
    for j in range(12):
        dec = mex_split(j, lam)
        assert not dec.rest.count(j + dec.run + 1)
        assert mex_join(j, dec.run, dec.rest) == lam


def test_mex_join_rejects_excluded_part():
    with pytest.raises(DomainError):
        mex_join(0, 2, P("3,1"))  # rest may not contain 3


class _FloatSum(int):
    """An int whose sums are floats: every per-part check passes."""

    def __radd__(self, other):
        return float(int(self) + other)


@pytest.mark.parametrize(
    "parts,total", [([_FloatSum(2), 1], "3.0"), ([_FloatSum(2)] * 30, "60.0")]
)
def test_parts_that_do_not_sum_to_an_int_are_rejected_alike(parts, total):
    # the constructor blames the input; _sealed, which only sees map outputs,
    # reports the same message as a broken invariant
    message = f"parts do not sum to an integer: {total}"
    with pytest.raises(PartitionError) as info:
        Partition(parts)
    assert str(info.value) == message
    with pytest.raises(IterationLimitError) as info:
        _sealed(list(parts))
    assert str(info.value) == f"a map output broke an internal invariant: {message}"


def test_repr_and_iter():
    lam = P("5,3,2,2")
    assert repr(lam) == "Partition((5, 3, 2, 2))"
    assert repr(Partition()) == "Partition(())"
    assert (str(lam), str(Partition())) == ("5,3,2,2", "")
    assert list(lam) == [5, 3, 2, 2]
    assert list(Partition()) == []
    assert Partition(iter(lam)) == lam
