"""Acceptance suite: one test per exit criterion, every tolerance exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  The heavyweight theorem run (weights to 25, j to 12) is one
``crankmex verify`` call, whose exit status, text and written records are
shared between the criteria that need it.
"""

import hashlib
import io
import json
import pathlib
from contextlib import redirect_stdout

import pytest

from crankmex import (
    PairState,
    Partition,
    crank_table,
    fold,
    fold_step,
    mex_to_crank,
    negate_crank,
    odd_mex_series,
    partitions_of,
    to_low_crank,
    unfold,
    unfold_step,
    FIXED_POINT,
)
from crankmex import cli

import golden_data

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SUITE_RECORDS_SHA256 = "ec82cdd83cb1fd3a92617ee98f03fe3b1c3435cc93ec01a3e199b525635bb20b"


def P(text):
    return Partition.from_text(text)


def report_line(number, label):
    print(f"acceptance criterion {number} ({label}): PASS")


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """``(exit code, printed text, records)`` of ``crankmex verify`` at the full bounds."""
    path = tmp_path_factory.mktemp("verify") / "records.jsonl"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["verify", "--max-n", "25", "--max-j", "12", "--output", str(path)])
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return code, buf.getvalue(), records


def test_criterion_1_fold_iteration_tables():
    running = P(golden_data.RUNNING_EXAMPLE)
    step_counts = {}
    for j, (steps, stop) in golden_data.FOLD_TRACES.items():
        out, trace = fold(j, running)
        got = [
            (s.before.k, s.before.lam.to_text(), s.d, s.case, s.after.lam.to_text())
            for s in trace.steps
        ]
        assert got == steps, f"trace mismatch at j={j}"
        assert (trace.end.k, out.to_text()) == stop[:2]
        step_counts[j] = len(trace)
    assert step_counts == {0: 2, 1: 4, 3: 3, 5: 0}
    for j in sorted(golden_data.FOLD_TRACES):
        expected = (GOLDEN_DIR / f"trace_fold_j{j}.txt").read_text(encoding="utf-8")
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["trace", "fold", golden_data.RUNNING_EXAMPLE, "--j", str(j)]) == 0
        assert buf.getvalue() == expected, f"golden trace file mismatch at j={j}"
    report_line(1, "fold iteration tables, byte-exact")


def test_criterion_2_low_crank_and_negation_tables():
    for j, source, d, image, crank in golden_data.LOW_CRANK_ROWS:
        lam = P(source)
        assert lam.durfee_size(j) == d
        out = to_low_crank(j, lam)
        assert out.to_text() == image
        assert out.crank() == crank == golden_data.crank_oracle(image)
    assert [r[4] for r in golden_data.LOW_CRANK_ROWS] == [-2, -3, -6]
    for source, ones, tall, image in golden_data.NEGATE_CRANK_ROWS:
        lam = P(source)
        assert (lam.count(1), lam.count_above(ones)) == (ones, tall)
        out = negate_crank(lam)
        assert out.to_text() == image
        assert out.crank() == -lam.crank() == -golden_data.crank_oracle(source)
        assert negate_crank(out) == lam
    report_line(2, "low-crank and crank-negation tables with crank annotations")


def test_criterion_3_weight9_correspondence():
    members = [lam for lam in partitions_of(9) if lam.has_odd_mex(0)]
    assert len(members) == 16
    assert sum(1 for lam in partitions_of(9) if lam.crank() >= 0) == 16
    got = []
    for lam in members:
        folded, _ = fold(0, lam)
        low = to_low_crank(0, folded)
        final = negate_crank(low)
        assert low.crank() <= 0 <= final.crank()
        assert final == mex_to_crank(0, lam)
        got.append((lam.to_text(), folded.to_text(), low.to_text(), final.to_text()))
    assert got == golden_data.WEIGHT9_ROWS
    expected = (GOLDEN_DIR / "table_weight9_j0.txt").read_text(encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["table", "--weight", "9", "--j", "0"]) == 0
    assert buf.getvalue() == expected
    report_line(3, "weight-9 four-column correspondence, 16 rows")


def test_criterion_4_exhaustive_theorem_suite(suite_run):
    _, text, records = suite_run
    assert all(r["status"] != "fail" for r in records), text
    tally = {}
    for record in records:
        cell = tally.setdefault(record["name"], {"pass": 0, "fail": 0, "skip": 0})
        cell[record["status"]] += 1
    per_cell = 26 * 13  # weights 0..25 times j 0..12
    for name in (
        "count-odd-mex-vs-arm-free",
        "count-even-mex-vs-arm-bearing",
        "bijection-fold",
        "bijection-fold-complement",
        "series-vs-enumeration",
        "low-crank-criterion",
    ):
        assert tally[name] == {"pass": per_cell, "fail": 0, "skip": 0}, name
    for name in (
        "count-arm-free-vs-low-crank",
        "count-odd-mex-vs-high-crank",
        "bijection-low-crank",
        "bijection-mex-to-crank",
    ):
        # weights 0 and 1 sit below the theorem hypothesis and are skipped
        assert tally[name] == {"pass": per_cell - 26, "fail": 0, "skip": 26}, name
    # order, names, statuses and notes of all 3458 records, pinned byte for byte
    pinned = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(pinned).hexdigest() == SUITE_RECORDS_SHA256
    report_line(4, "theorem suite, weights to 25, j to 12, bijective witnesses")


def test_criterion_5_crank_ones_criterion():
    for n in range(26):
        for lam in partitions_of(n):
            crank = lam.crank()
            ones = lam.count(1)
            for j in range(13):
                assert (crank <= -j) == (ones >= lam.durfee_size(j) + j), (lam, j)
    report_line(5, "pointwise crank/ones criterion, weights to 25, j to 12")


def test_criterion_6_involution_and_crank_symmetry():
    for n in range(2, 26):
        for lam in partitions_of(n):
            image = negate_crank(lam)
            assert image.weight == n
            assert image.crank() == -lam.crank()
            assert negate_crank(image) == lam
    table = crank_table(30)
    assert sorted(table) == list(range(31))
    for row in table.values():
        assert row == {-m: c for m, c in row.items()}
    assert table[1].get(1, 0) == 1
    assert table[1].get(0, 0) == -1
    assert table[1].get(-1, 0) == 1
    report_line(6, "crank-negating involution and crank-table symmetry")


def test_criterion_7_series_oracle():
    max_n, max_j = 40, 8
    series = {j: odd_mex_series(j, max_n) for j in range(max_j + 1)}
    odd_mex_counts = {j: [0] * (max_n + 1) for j in range(max_j + 1)}
    arm_free_counts = {j: [0] * (max_n + 1) for j in range(max_j + 1)}
    for n in range(max_n + 1):
        for lam in partitions_of(n):
            parts = lam.parts
            values = set(parts)
            arms = {parts[i] - (i + 1) for i in range(len(parts))}
            for j in range(max_j + 1):
                mex = j + 1
                while mex in values:
                    mex += 1
                if (mex - j) % 2:
                    odd_mex_counts[j][n] += 1
                if j not in arms:
                    arm_free_counts[j][n] += 1
    for j in range(max_j + 1):
        assert series[j] == odd_mex_counts[j], f"odd-mex count mismatch at j={j}"
        assert series[j] == arm_free_counts[j], f"arm-free count mismatch at j={j}"
    report_line(7, "q-series coefficients vs enumeration, n to 40, j to 8")


def test_criterion_8_termination_under_cap(suite_run):
    # the suite itself exercises every fold/unfold domain element; a cap
    # breach raises and would have produced a fail record
    _, _, records = suite_run
    assert all(r["status"] != "fail" for r in records)
    assert not any("IterationLimitError" in r["note"] for r in records)
    # direct sweep: every trace stays under its cap
    for n in range(26):
        for lam in partitions_of(n):
            for j in range(13):
                if lam.has_odd_mex(j):
                    from crankmex import mex_split

                    dec = mex_split(j, lam)
                    start = PairState(j, dec.run // 2, dec.rest)
                    _, trace = fold(j, lam)
                    assert len(trace) <= 2 * start.pair_weight + 2 * start.k + 4
                else:
                    with pytest.raises(Exception):
                        fold(j, lam)
                if lam.avoids_arm(j):
                    _, trace = unfold(j, lam)
                    assert len(trace) <= 2 * lam.weight + 4
    report_line(8, "termination under the hard iteration cap, no internal errors")


def test_criterion_9_step_invariants_on_state_space():
    checked = 0
    for odd in (False, True):
        for j in range(13):
            k = 0
            while True:
                m = 2 * k + (1 if odd else 0)
                stair_weight = m * (m + 1) // 2 + j * m
                if stair_weight > 20:
                    break
                for w in range(20 - stair_weight + 1):
                    for lam in partitions_of(w):
                        state = PairState(j, k, lam, odd=odd)
                        checked += 1
                        _check_state(state)
                k += 1
    assert checked > 40_000  # sanity: the state space must be non-trivial
    report_line(9, f"step-map invariants over {checked} states of pair weight to 20")


def _check_state(state):
    small = tuple(p for p in state.lam.parts if p <= state.j)
    fold_applicable = not (state.k == 0 and state.lam.avoids_arm(state.top))
    if fold_applicable:
        result = fold_step(state)
        fixed_shape = (
            state.lam.has_arm(state.top) and state.lam.parts[0] == state.top + 1
        )
        assert (result.case == FIXED_POINT) == fixed_shape
        if result.case != FIXED_POINT:
            after = result.state
            assert after.pair_weight == state.pair_weight
            assert after.staircase_len + len(after.lam) == state.staircase_len + len(state.lam)
            assert tuple(p for p in after.lam.parts if p <= state.j) == small
            back = unfold_step(after)
            assert back.case != FIXED_POINT and back.state == state
    if state.lam.count(state.top + 1):
        result = unfold_step(state)
        fixed_shape = (
            state.lam.durfee_size(state.top + 1) == 0
            and state.lam.parts[0] == state.top + 1
        )
        assert (result.case == FIXED_POINT) == fixed_shape
        if result.case != FIXED_POINT:
            after = result.state
            assert after.pair_weight == state.pair_weight
            assert after.staircase_len + len(after.lam) == state.staircase_len + len(state.lam)
            assert tuple(p for p in after.lam.parts if p <= state.j) == small
            back = fold_step(after)
            assert back.case != FIXED_POINT and back.state == state


def test_criterion_8b_cli_verify_exit_status(suite_run):
    # the CLI gate over the full suite: exit 0, never the internal-error code 3
    code, text, _ = suite_run
    assert code == 0
    assert "all checks passed" in text
    report_line("8b", "cli verify exits 0 at full bounds")
