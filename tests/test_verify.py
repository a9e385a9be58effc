import json

import pytest

import crankmex.maps
from crankmex import (
    CheckResult,
    DomainError,
    Partition,
    VerificationReport,
    count_matching,
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


def test_count_matching():
    assert count_matching(9, lambda lam: lam.has_odd_mex(0)) == 16
    assert count_matching(9, lambda lam: lam.crank() >= 0) == 16
    assert count_matching(4, lambda lam: lam.crank() <= 0) == 3


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


@pytest.mark.parametrize("j", [0, 1, 3])
def test_odd_mex_series_matches_enumeration(j):
    series = odd_mex_series(j, 15)
    for n in range(16):
        assert series[n] == count_matching(n, lambda lam: lam.has_odd_mex(j))
        assert series[n] == count_matching(n, lambda lam: lam.avoids_arm(j))


def test_crank_table_values():
    table = crank_table(6)
    assert table.count(0, 0) == 1
    assert table.count(4, 4) == table.count(-4, 4) == 1
    assert table.count(1, 1) == 1
    assert table.count(0, 1) == -1
    assert table.count(-1, 1) == 1
    assert table.count(9, 4) == 0


def test_crank_table_rows_sum_to_partition_counts():
    table = crank_table(12)
    series = partition_series(12)
    for n in range(13):
        assert table.row_sum(n) == series[n]


def test_crank_table_symmetry():
    assert crank_table(14).symmetry_failures() == []


def test_crank_table_matches_andrews_garvan_generating_function():
    # sum_n M(m, n) q^n = (1/(q)_inf) sum_{k>=1} (-1)^(k-1) q^(k(k-1)/2 + k|m|) (1 - q^k)
    # (Andrews and Garvan, Bull. AMS 18, 1988), expanded with exact integers
    # up to q^30 without any crankmex code.
    order = 30
    p = [1] + [0] * order  # 1/(q)_inf: partition counts by the part-size recurrence
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            p[n] += p[n - part]
    table = crank_table(order)
    for m in range(-order - 1, order + 2):
        sparse = [0] * (order + 1)
        k = 1
        while k * (k - 1) // 2 + k * abs(m) <= order:
            exponent = k * (k - 1) // 2 + k * abs(m)
            sign = 1 if k % 2 else -1
            sparse[exponent] += sign
            if exponent + k <= order:
                sparse[exponent + k] -= sign
            k += 1
        for n in range(order + 1):
            coefficient = sum(sparse[e] * p[n - e] for e in range(n + 1))
            assert table.count(m, n) == coefficient, (m, n)
    assert [table.count(m, 1) for m in (-1, 0, 1)] == [1, -1, 1]


# -- the suite -------------------------------------------------------------------


def test_suite_small_bounds_pass():
    report = run_theorem_suite(9, 2)
    assert report.all_passed
    names = {r.name for r in report.results}
    assert "bijection-fold" in names
    assert "bijection-mex-to-crank" in names
    assert "low-crank-criterion" in names


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


def test_suite_bounds_validation():
    with pytest.raises(DomainError):
        run_theorem_suite(61, 0)
    with pytest.raises(DomainError):
        run_theorem_suite(-1, 0)
    with pytest.raises(DomainError):
        run_theorem_suite(5, -1)


def test_series_reject_negative_arguments():
    with pytest.raises(DomainError):
        partition_series(-1)
    with pytest.raises(DomainError):
        odd_mex_series(-1, 5)


def test_suite_records_a_crashing_check_as_a_failed_cell(monkeypatch):
    expected = run_theorem_suite(6, 2).results
    fold = crankmex.maps.fold

    def fold_failing_at_weight_four(j, lam):
        if lam.weight == 4:
            raise ValueError("list.remove(x): x not in list")
        return fold(j, lam)

    monkeypatch.setattr(crankmex.maps, "fold", fold_failing_at_weight_four)
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
