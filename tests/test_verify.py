import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crankmex.maps
from crankmex import verify
from crankmex import (
    CheckResult,
    DomainError,
    Partition,
    VerificationReport,
    crank_table,
    odd_mex_series,
    partition_series,
    partitions_of,
    run_theorem_suite,
)


def test_partitions_of_zero():
    assert list(partitions_of(0)) == [Partition()]


def test_partitions_of_three_in_order():
    assert [lam.parts for lam in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_partitions_of_nine_count():
    assert sum(1 for _ in partitions_of(9)) == 30


def test_partitions_are_lexicographically_decreasing():
    for n in (5, 8, 11):
        got = [lam.parts for lam in partitions_of(n)]
        assert got == sorted(got, reverse=True)
        assert len(set(got)) == len(got)


def test_enumeration_limit():
    with pytest.raises(DomainError):
        next(partitions_of(61))
    with pytest.raises(DomainError):
        next(partitions_of(-1))
    # a bool or a non-int weight is rejected, never read as 1 or left to a TypeError
    for n in (True, "3", 2.5):
        with pytest.raises(DomainError, match="n must be a non-negative integer"):
            next(partitions_of(n))
    for max_weight in (-1, True, 2.5):
        with pytest.raises(DomainError, match="max_weight must be a non-negative integer"):
            crank_table(max_weight)


def test_crank_table_rejects_a_weight_above_the_limit_before_enumerating(monkeypatch):
    with pytest.raises(DomainError) as suite_error:
        run_theorem_suite(verify.ENUMERATION_LIMIT + 1, 0)

    def refuse(n):
        raise AssertionError(f"partitions_of({n}) called")

    monkeypatch.setattr(verify, "partitions_of", refuse)
    with pytest.raises(DomainError) as table_error:
        crank_table(verify.ENUMERATION_LIMIT + 1)
    assert str(table_error.value) == str(suite_error.value)


def test_partition_series_prefix():
    assert partition_series(5) == [1, 1, 2, 3, 5, 7]
    assert partition_series(0) == [1]


def test_partition_series_matches_pentagonal_recurrence():
    # independent oracle: p(n) = sum_k (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]
    order = 60
    oracle = [1]
    for n in range(1, order + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * oracle[n - g1]
            if g2 <= n:
                total += sign * oracle[n - g2]
            k += 1
        oracle.append(total)
    assert partition_series(order) == oracle


def test_partition_series_matches_enumeration():
    series = partition_series(20)
    for n in range(21):
        assert series[n] == sum(1 for _ in partitions_of(n))


def test_odd_mex_series_values():
    assert odd_mex_series(0, 9)[9] == 16
    for j in (0, 3, 7):
        assert odd_mex_series(j, 0)[0] == 1


def test_crank_table_values():
    table = crank_table(6)
    assert sorted(table) == list(range(7))
    assert table[0] == {0: 1}
    assert table[4][4] == table[4][-4] == 1
    assert table[1] == {1: 1, 0: -1, -1: 1}
    assert table[4].get(9, 0) == 0


def _over_euler(coeffs):
    """``coeffs`` times ``1/(q)_inf``, in place: one factor ``1/(1 - q^part)`` at a time."""
    for part in range(1, len(coeffs)):
        for n in range(part, len(coeffs)):
            coeffs[n] += coeffs[n - part]
    return coeffs


def _crank_counts(ms, order):
    """Coefficients 0..order of ``sum_n (sum over m in ms of M(m, n)) q^n``.

    From the Andrews-Garvan generating function (Bull. AMS 18, 1988)
    ``sum_n M(m, n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^(k-1) q^(k(k-1)/2 + k|m|) (1 - q^k)``,
    expanded with exact integers without any crankmex code.  At weight 1 it
    gives the convention ``M(0, 1) = -1``, ``M(1, 1) = M(-1, 1) = 1``.
    """
    sparse = [0] * (order + 1)
    for m in ms:
        k = 1
        while (exponent := k * (k - 1) // 2 + k * abs(m)) <= order:
            sign = 1 if k % 2 else -1
            sparse[exponent] += sign
            if exponent + k <= order:
                sparse[exponent + k] -= sign
            k += 1
    return _over_euler(sparse)


def _odd_mex_with_part_counts(j, order):
    """Coefficients 0..order of the partitions with a part ``j`` and odd mex offset at ``j``.

    Such a partition holds the parts ``j, j+1, ..., j+r`` for an even ``r`` and
    not ``j+r+1``: ``sum_{r even} q^(j+...+(j+r)) (1 - q^(j+r+1)) / (q)_inf``
    (``j = 0`` counts 0 as a part of everything).  No crankmex code.
    """
    sparse = [0] * (order + 1)
    r = 0
    while (exponent := (r + 1) * j + r * (r + 1) // 2) <= order:
        sparse[exponent] += 1
        if exponent + j + r + 1 <= order:
            sparse[exponent + j + r + 1] -= 1
        r += 2
    return _over_euler(sparse)


def test_crank_table_matches_andrews_garvan_generating_function():
    order = 30
    table = crank_table(order)
    for m in range(-order - 1, order + 2):
        counts = _crank_counts([m], order)
        for n in range(order + 1):
            assert table[n].get(m, 0) == counts[n], (m, n)
    assert [table[1][m] for m in (-1, 0, 1)] == [1, -1, 1]


def test_nonnegative_crank_counts_equal_odd_mex_counts():
    # The j = 0 identity (Andrews and Newman, Ann. Comb. 23, 2019): the
    # partitions of n with crank >= 0 are as many as those with odd mex.
    order = 80
    nonnegative = _crank_counts(range(order + 1), order)
    assert nonnegative == odd_mex_series(0, order)
    for n in range(21):
        assert nonnegative[n] == sum(1 for lam in partitions_of(n) if lam.has_odd_mex(0)), n
    # weight 1: M(0, 1) = -1 and M(1, 1) = 1 by convention, against no odd-mex partition
    assert nonnegative[1] == 0


def test_every_suite_class_matches_a_series():
    # each of the eight classes the suite's (n, j) cells compare, counted
    # against a generating function; low crank (crank <= -j) has the same
    # series as high crank (crank >= j), since M(m, n) = M(-m, n)
    max_weight, max_j = 25, 12
    p = _over_euler([1] + [0] * max_weight)
    classified = {
        n: [(lam, lam.crank(), *verify._class_masks(lam)) for lam in partitions_of(n)]
        for n in range(2, max_weight + 1)
    }
    for j in range(max_j + 1):
        odd = odd_mex_series(j, max_weight)
        with_part = _odd_mex_with_part_counts(j, max_weight)
        high = _crank_counts(range(j, max_weight + 1), max_weight)
        even = [pn - x for pn, x in zip(p, odd)]
        expected = dict(
            odd_mex=odd, arm_free=odd, even_mex=even, arm_bearing=even,
            odd_mex_with_part=with_part, arm_free_with_part=with_part,
            high_crank=high, low_crank=high,
        )
        for n, cell in classified.items():
            classes = verify._classes(cell, j)
            assert classes.keys() == expected.keys()
            for name, members in classes.items():
                assert len(members) == expected[name][n], (name, n, j)


def test_odd_mex_with_part_series_equals_high_crank_series():
    # the theorem as an identity of generating functions, far past enumeration
    order = 300
    for j in range(13):
        with_part = _odd_mex_with_part_counts(j, order)
        assert with_part[2:] == _crank_counts(range(j, order + 1), order)[2:], j


# -- the suite -------------------------------------------------------------------


def test_suite_small_bounds_pass():
    report = run_theorem_suite(9, 2)
    assert report.all_passed
    names = {r.name for r in report.results}
    assert "bijection-fold" in names
    assert "bijection-mex-to-crank" in names
    assert "low-crank-criterion" in names


def test_suite_builds_no_trace(monkeypatch):
    # the fold rows run the bodies the traced maps share, with no pair; a row
    # that called fold_pair or unfold_pair would build a Trace per element
    # and drop it
    calls = []
    for name in ("fold_pair", "unfold_pair"):
        monkeypatch.setattr(crankmex.maps, name, lambda state, name=name: calls.append(name))
    report = run_theorem_suite(8, 3)
    assert calls == []
    assert report.all_passed


def test_suite_skips_below_theorem_hypothesis():
    report = run_theorem_suite(1, 0)
    assert report.all_passed
    skipped = {(r.name, r.n) for r in report.results if r.status == "skip"}
    assert ("bijection-low-crank", 0) in skipped
    assert ("bijection-low-crank", 1) in skipped
    assert ("crank-negation", 1) in skipped


def test_suite_records_are_json_ready_and_ordered():
    report = run_theorem_suite(4, 1)
    records = report.to_records()
    assert all(set(r) == {"name", "n", "j", "status", "counterexample", "note"} for r in records)
    json.dumps(records)  # must not raise
    # deterministic: same bounds, same records
    assert records == run_theorem_suite(4, 1).to_records()


def test_suite_summary_mentions_failures():
    report = VerificationReport(3, 0)
    report.results.append(CheckResult("demo-check", 3, 0, "pass"))
    report.results.append(CheckResult("demo-check", 3, 1, "fail", "2,1", "oops"))
    assert not report.all_passed
    text = "\n".join(report.summary_lines())
    assert "FAIL demo-check" in text
    assert "2,1" in text


def test_check_result_record_keys_and_repr():
    result = CheckResult("demo", 3, 0, "pass")
    assert list(result.to_record()) == ["name", "n", "j", "status", "counterexample", "note"]
    assert result.to_record() == {
        "name": "demo", "n": 3, "j": 0, "status": "pass", "counterexample": None, "note": "",
    }
    assert repr(result) == (
        "CheckResult(name='demo', n=3, j=0, status='pass', counterexample=None, note='')"
    )


def test_reports_do_not_share_results():
    first, second = VerificationReport(3, 0), VerificationReport(3, 0)
    first.results.append(CheckResult("demo", 3, 0, "pass"))
    assert second.results == []


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    # compared with a snapshot taken before the import, so what site loads
    # at start-up does not count; then the per-partition commands and table,
    # in text format, must not load the suite's module or json either
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import crankmex.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [crankmex.cli.main(argv) for argv in (\n"
        "        ['trace', 'fold', '11,8,7,7,5,5,4,3,2,2', '--j', '1'],\n"
        "        ['map', 'mex-to-crank', '11,8,7,7,5,5,4,3,2,2'],\n"
        "        ['stats', '11,8,7,7,5,5,4,3,2,2'],\n"
        "        ['table', '--weight', '9', '--j', '0'],\n"
        "    )]\n"
        "print(codes, sorted({'crankmex.verify', 'json'} & (set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout
    assert out == "[]\n[0, 0, 0, 0] []\n"


def test_suite_bounds_validation():
    with pytest.raises(DomainError):
        run_theorem_suite(61, 0)
    with pytest.raises(DomainError):
        run_theorem_suite(-1, 0)
    with pytest.raises(DomainError):
        run_theorem_suite(5, -1)
    # bounds of the wrong type are rejected up front, not deep inside the run
    for max_weight, max_j in ((5.0, 2), (5, 2.5), ("5", 1), (5, None), (5, True)):
        with pytest.raises(DomainError):
            run_theorem_suite(max_weight, max_j)


def test_series_reject_negative_arguments():
    with pytest.raises(DomainError):
        partition_series(-1)
    with pytest.raises(DomainError):
        odd_mex_series(-1, 5)
    # a bool or a non-int bound is rejected, never read as 1 or left to a TypeError
    for order in (True, 2.5):
        with pytest.raises(DomainError, match="order must be a non-negative integer"):
            partition_series(order)
    for j, order in ((True, 5), (1.5, 5), (1, 2.5)):
        with pytest.raises(DomainError, match="must be a non-negative integer"):
            odd_mex_series(j, order)


def _on_flag(odd, broken):
    """A replacement for the body ``maps._folded`` or ``maps._unfolded``.

    Built from the original body, it returns ``broken(body, j, lam)`` when
    called with the flag ``odd`` and runs the body otherwise, so it breaks one
    of the two fold pairs as the suite runs them.
    """

    def patch(body):
        def patched(j, lam, flag, *rest, **where):
            if flag is odd:
                return broken(body, j, lam)
            return body(j, lam, flag, *rest, **where)

        return patched

    return patch


def test_suite_records_a_crashing_check_as_a_failed_cell(monkeypatch):
    expected = run_theorem_suite(6, 2).results

    def fail_at_weight_four(body, j, lam):
        if lam.weight == 4:
            raise ValueError("list.remove(x): x not in list")
        return body(j, lam, False)

    maps = crankmex.maps
    monkeypatch.setattr(maps, "_folded", _on_flag(False, fail_at_weight_four)(maps._folded))
    report = run_theorem_suite(6, 2)
    assert [(r.name, r.n, r.j) for r in report.results] == [
        (r.name, r.n, r.j) for r in expected
    ]
    failed = {(r.name, r.n, r.j) for r in report.failures}
    # mex_to_crank folds as well, so its cells at weight 4 fail with fold's
    assert {(name, n, j) for name, n, j in failed if name == "bijection-fold"} == {
        ("bijection-fold", 4, j) for j in range(3)
    }
    assert {(name, n) for name, n, _ in failed} <= {
        ("bijection-fold", 4), ("bijection-mex-to-crank", 4)
    }
    for got, want in zip(report.results, expected):
        if (got.name, got.n, got.j) in failed:
            assert got.note == "raised ValueError: list.remove(x): x not in list"
        else:
            assert got == want


def test_suite_table_checks_fail_closed(monkeypatch):
    expected = run_theorem_suite(8, 1).results
    crank_row = verify._crank_row

    def crank_row_off_at_five(n, cranks):
        row = crank_row(n, cranks)
        if n == 5:
            row[2] = row.get(2, 0) + 1  # breaks symmetry and row sum at weight 5 only
        return row

    monkeypatch.setattr(verify, "_crank_row", crank_row_off_at_five)
    report = run_theorem_suite(8, 1)
    failed = {(r.name, r.n, r.j): r.note for r in report.failures}
    assert failed == {
        ("crank-symmetry", 5, None): "count(2,5) != count(-2,5)",
        ("crank-row-sum", 5, None): "row sum 8 != p(5) = 7",
    }
    assert len(report.results) == len(expected)
    for got, want in zip(report.results, expected):
        if (got.name, got.n, got.j) not in failed:
            assert got == want
            assert got.status in ("pass", "skip")
    # crank_table counts its rows through the same _crank_row: the patched
    # count 1 at crank 2 beside the cranks 5, 3, 1, 0, -1, -3, -5 of weight 5
    assert verify.crank_table(8)[5] == {5: 1, 3: 1, 2: 1, 1: 1, 0: 1, -1: 1, -3: 1, -5: 1}


_SWAPPED = {(4, 2, 1): Partition((3, 3, 1)), (3, 3, 1): Partition((4, 2, 1))}  # both crank 1


# both odd mex offset at 0, two parts and no part <= 0: a fold that sends the
# first to the image of the second keeps the weight and what fold carries
_COLLIDING = {(4, 2): Partition((3, 3))}


def _one_part(body, j, lam):
    return Partition((lam.weight,) if lam.weight else ())


def _without_first_low_crank(classes):
    def patched(classified, j):
        found = classes(classified, j)
        return {**found, "low_crank": found["low_crank"][1:]}

    return patched


# (module, name, replacement built from the original, failing cell, counterexample, note)
_BROKEN = [
    ("maps", "negate_crank", lambda f: lambda lam: Partition(f(lam).parts + (1,)),
     ("crank-negation", 2, None), "2", "weight not preserved"),
    ("maps", "negate_crank", lambda f: lambda lam: lam,
     ("crank-negation", 2, None), "2", "crank not negated"),
    ("maps", "negate_crank", lambda f: lambda lam: f(_SWAPPED.get(lam.parts, lam)),
     ("crank-negation", 7, None), "5,1,1", "not an involution"),
    ("verify", "_durfee_size", lambda f: lambda parts, j: f(parts, j) + (parts == (3, 1)),
     ("low-crank-criterion", 4, 0), "3,1", "crank/ones criterion mismatch"),
    ("maps", "to_low_crank", lambda f: lambda j, lam: Partition(f(j, lam).parts + (1,)),
     ("bijection-low-crank", 2, 0), "2", "weight not preserved"),
    ("maps", "_folded", _on_flag(False, _one_part),
     ("bijection-fold", 2, 1), "1,1", "conserved quantity broken"),
    ("maps", "_folded",
     _on_flag(False, lambda body, j, lam: body(j, _COLLIDING.get(lam.parts, lam), False)),
     ("bijection-fold", 6, 0), "4,2", "backward map does not invert the forward map"),
    ("maps", "_unfolded", _on_flag(True, lambda body, j, lam: lam),
     ("bijection-fold-complement", 4, 0), "3,1", "backward map does not invert the forward map"),
    ("maps", "to_low_crank", lambda f: lambda j, lam: lam,
     ("bijection-low-crank", 2, 0), "2", "image outside the stated codomain"),
    ("verify", "_classes", _without_first_low_crank,
     ("bijection-low-crank", 2, 0), None, "1 != 0"),
]


@pytest.mark.parametrize(
    "module, name, broken, cell, counterexample, note", _BROKEN,
    ids=[f"{cell[0]}: {note}" for _, _, _, cell, _, note in _BROKEN],
)
def test_suite_reports_each_broken_invariant(monkeypatch, module, name, broken, cell, counterexample, note):
    # each note a check can write, reached by breaking the one invariant it guards
    owner = {"maps": crankmex.maps, "verify": verify}[module]
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    _, n, j = cell
    report = run_theorem_suite(n, j or 0)
    got = {(r.name, r.n, r.j): r for r in report.results}[cell]
    assert (got.status, got.counterexample, got.note) == ("fail", counterexample, note)


def test_suite_reads_what_fold_carries_from_maps_when_it_runs(monkeypatch):
    # the parts whole are not what a fold keeps: both fold rows must see the
    # patched function, not one bound when the table was built
    monkeypatch.setattr(crankmex.maps, "_fold_carries", lambda parts, j: parts)
    report = run_theorem_suite(4, 0)
    failed = {(r.name, r.n, r.j): (r.counterexample, r.note) for r in report.failures}
    assert failed == {
        ("bijection-fold", 4, 0): ("2,2", "conserved quantity broken"),
        ("bijection-fold-complement", 4, 0): ("3,1", "conserved quantity broken"),
    }


def test_suite_compares_what_fold_carries_only_on_new_images(monkeypatch):
    # each fold-row element goes through _folded once, with odd set by its mex
    # offset; an image that is its input object carries everything, so the
    # check reads _fold_carries (twice) only for an image that is a new object
    maps = crankmex.maps
    max_n, max_j = 8, 3
    images = [
        (lam, maps._folded(j, lam, not lam.has_odd_mex(j)))
        for n in range(max_n + 1)
        for lam in partitions_of(n)
        for j in range(max_j + 1)
    ]
    new = sum(image is not lam for lam, image in images)
    assert 0 < new < len(images)
    calls, carries = [], maps._fold_carries
    monkeypatch.setattr(maps, "_fold_carries", lambda parts, j: calls.append(j) or carries(parts, j))
    assert run_theorem_suite(max_n, max_j).all_passed
    assert len(calls) == 2 * new

    # the skip keys on identity: a body that returns an equal copy in place of
    # its input gets every image compared
    body = maps._folded

    def copied(j, lam, odd, *rest, **where):
        image = body(j, lam, odd, *rest, **where)
        return Partition(lam.parts) if image is lam else image

    monkeypatch.setattr(maps, "_folded", copied)
    calls.clear()
    assert run_theorem_suite(max_n, max_j).all_passed
    assert len(calls) == 2 * len(images)


# the two arm-bearing partitions of 4 at j = 0, of two parts and of four
_SWAPPED_ARM_BEARING = {(2, 2): Partition((1, 1, 1, 1)), (1, 1, 1, 1): Partition((2, 2))}


def test_suite_reports_a_fold_complement_that_loses_the_part_count(monkeypatch):
    # the swap, after the forward body and before the backward one, leaves a
    # bijection of even_mex onto arm_bearing with its inverse: only the check
    # of what fold_complement carries can catch it
    maps = crankmex.maps

    def swapped_forward(body, j, lam):
        image = body(j, lam, True)
        return _SWAPPED_ARM_BEARING.get(image.parts, image)

    def swapped_backward(body, j, nu):
        return body(j, _SWAPPED_ARM_BEARING.get(nu.parts, nu), True)

    monkeypatch.setattr(maps, "_folded", _on_flag(True, swapped_forward)(maps._folded))
    monkeypatch.setattr(maps, "_unfolded", _on_flag(True, swapped_backward)(maps._unfolded))
    failed = {(r.name, r.n, r.j): (r.counterexample, r.note) for r in run_theorem_suite(4, 0).failures}
    assert failed == {("bijection-fold-complement", 4, 0): ("3,1", "conserved quantity broken")}


@pytest.mark.parametrize("lost, m", [((5,), 5), ((2, 2, 1), 1)])
def test_suite_row_sum_is_checked_against_the_partition_series(monkeypatch, lost, m):
    # an enumeration that loses one partition of 5 shrinks the crank row with
    # it; the row sum still fails, because p(5) comes from partition_series
    enumerate_partitions = verify.partitions_of

    def without_lost(n):
        return (lam for lam in enumerate_partitions(n) if lam.parts != lost)

    monkeypatch.setattr(verify, "partitions_of", without_lost)
    report = run_theorem_suite(6, 0)
    failed = {(r.name, r.n, r.j): r.note for r in report.failures}
    assert failed[("crank-row-sum", 5, None)] == "row sum 6 != p(5) = 7"
    assert failed[("crank-symmetry", 5, None)] == f"count({m},5) != count({-m},5)"
    assert {n for _, n, _ in failed} == {5}
