"""The statistics kernels and the suite's classification masks, each checked
against its definition written out by brute force, and the mex split also
against ``references.py`` at large weights."""

from itertools import count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crankmex import DomainError, MexDecomposition, Partition, mex_join, mex_split, partitions_of
from crankmex.core import _has_arm, _mex_join, _mex_split
from crankmex.verify import _class_masks
from references import ref_mex_split, seeded_partitions

MAX_N = 18


def _every_partition():
    for n in range(MAX_N + 1):
        for lam in partitions_of(n):
            yield n, lam


def _transpose(parts):
    return tuple(sum(p >= i for p in parts) for i in range(1, (parts[0] if parts else 0) + 1))


def test_count_above_mex_and_conjugate_match_their_definitions():
    for n, lam in _every_partition():
        parts = lam.parts
        assert lam.conjugate().parts == _transpose(parts)
        for v in range(n + 3):
            assert lam.count_above(v) == sum(p > v for p in parts)
            assert lam.mex(v) == next(m for m in count(v + 1) if m not in parts)


def test_unchecked_kernels_match_the_public_functions_and_their_definitions():
    for n, lam in _every_partition():
        parts = lam.parts
        for j in range(n + 3):
            mex = next(m for m in count(j + 1) if m not in parts)
            arm = any(p - i == j for i, p in enumerate(parts, 1))
            assert _has_arm(parts, j) == lam.has_arm(j) == arm
            rest = list(parts)
            for v in range(j + 1, mex):
                rest.remove(v)
            split = MexDecomposition(j, mex - j - 1, Partition(rest))
            assert mex_split(j, lam) == split
            # the kernels take sorted parts; the split gives them sorted, the
            # join a buffer for the caller to seal; a run of 0 returns the input
            kernel = _mex_split(j, parts)
            assert (kernel[0], list(kernel[1])) == (split.run, rest)
            assert (kernel[1] is parts) == (split.run == 0)
            assert (mex_split(j, lam).rest is lam) == (split.run == 0)
            for run in range(4):
                if j + run + 1 in parts:
                    for join, arg in ((_mex_join, parts), (mex_join, lam)):
                        with pytest.raises(DomainError, match="excluded by the mex split"):
                            join(j, run, arg)
                else:
                    added = tuple(range(j + 1, j + run + 1))
                    joined = Partition(sorted(parts + added, reverse=True))
                    assert mex_join(j, run, lam) == joined
                    assert sorted(_mex_join(j, run, parts), reverse=True) == list(joined.parts)
                    # a run of 0 returns the rest itself
                    assert (_mex_join(j, run, parts) is parts) == (run == 0)
                    assert (mex_join(j, run, lam) is lam) == (run == 0)
    # the split at weights 200..1000 and with many copies of each run value,
    # against the crankmex-free reference; it copies its input list unless the run is 0
    hook = (2500,) + (1,) * 2500
    staircase = tuple(v for v in range(12, 0, -1) for _ in range(40))
    long_inputs = [(parts, range(6)) for parts in seeded_partitions()]
    for parts, js in (*long_inputs, (hook, (0, 1)), (staircase, (0, 1))):
        for j in js:
            given = list(parts)
            run, rest = ref_mex_split(j, parts)
            split = _mex_split(j, given)
            assert split == (run, list(rest)), (j, parts)
            assert (split[1] is given) == (run == 0) and given == list(parts)


def test_class_masks_agree_with_the_statistics():
    for n, lam in _every_partition():
        part_bits, arm_bits = _class_masks(lam)
        for j in range(n + 3):
            assert bool(part_bits >> j & 1) == lam.has_part(j)
            assert bool(arm_bits >> j & 1) == lam.has_arm(j)
            # the run of parts j+1, j+2, ... read off the part mask, as the
            # suite's cells do: its length plus one is mex(j) - j
            above = part_bits >> (j + 1)
            assert bool((above ^ (above + 1)).bit_length() & 1) == lam.has_odd_mex(j)
        # no bit beyond the largest part or the largest arm
        assert part_bits < 2 << (lam.parts[0] if n else 0)
        assert arm_bits < 1 << (n + 1)


@st.composite
def heavy_partitions(draw, max_weight=600):
    kept, total = [], 0
    for p in sorted(draw(st.lists(st.integers(1, max_weight), max_size=80))):
        # smallest first, so that many parts fit under the weight
        if total + p > max_weight:
            break
        kept.append(p)
        total += p
    return Partition(sorted(kept, reverse=True))


@given(heavy_partitions(), st.integers(0, 700))
def test_conjugate_and_count_above_on_heavy_partitions(lam, v):
    parts = lam.parts
    assert lam.conjugate().parts == _transpose(parts)
    assert lam.count_above(v) == sum(p > v for p in parts)
    if parts:
        assert lam.count_above(parts[0]) == 0
        assert lam.count_above(parts[-1] - 1) == len(parts)
