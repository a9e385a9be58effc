import json
import time

import pytest

from crankmex import CheckResult, Partition, VerificationReport, partitions_of
from crankmex import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_basic(capsys):
    code, out, _ = run_cli(capsys, "stats", "5,3,2,2", "--max-j", "5")
    assert code == 0
    assert "weight 12" in out
    assert "crank 5" in out
    assert "durfee-arms 4,1" in out
    # d-values for j = 0..5
    d_column = [line.split()[2] for line in out.splitlines()[-6:]]
    assert d_column == ["2", "2", "1", "1", "1", "0"]


def test_stats_empty_partition(capsys):
    code, out, _ = run_cli(capsys, "stats", "", "--max-j", "3")
    assert code == 0
    assert "weight 0" in out
    assert "crank 0" in out
    for j, line in enumerate(out.splitlines()[-4:]):
        assert line.split()[1] == str(j + 1)  # mex of the empty partition


def test_stats_records(capsys):
    code, out, _ = run_cli(capsys, "stats", "5,3,2,2", "--format", "records")
    assert code == 0
    record = json.loads(out)
    assert record["weight"] == 12
    assert record["by_j"][0]["mex"] == 1


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "stats", "2,3")
    assert code == 1
    assert "part #2" in err


def test_map_composed(capsys):
    code, out, _ = run_cli(capsys, "map", "mex-to-crank", "11,8,7,7,5,5,4,3,2,2", "--j", "0")
    assert code == 0
    assert "output 12,9,7,6,5,5,4,2,1,1,1,1" in out
    assert "crank 2" in out


def test_map_negate_crank(capsys):
    code, out, _ = run_cli(capsys, "map", "negate-crank", "2,1,1")
    assert code == 0
    assert "output 2,2" in out


def test_map_low_crank_example(capsys):
    code, out, _ = run_cli(
        capsys, "map", "to-low-crank", "11,8,7,7,5,5,4,3,2,2", "--j", "5"
    )
    assert code == 0
    assert "output 10,7,7,7,5,4,3,2,2,1,1,1,1,1,1,1" in out


def test_map_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "map", "fold", "5,3,2,2", "--j", "2")
    assert code == 1
    assert "error" in err


def test_map_records(capsys):
    code, out, _ = run_cli(
        capsys, "map", "fold", "11,8,7,7,5,5,4,3,2,2", "--j", "1", "--format", "records"
    )
    assert code == 0
    record = json.loads(out)
    assert record["output"] == "11,8,8,6,5,4,4,4,2,2"
    assert record["crank_before"] == 11  # no 1s, so the crank is the largest part


def test_trace_step_count(capsys):
    code, out, _ = run_cli(capsys, "trace", "fold", "11,8,7,7,5,5,4,3,2,2", "--j", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fold trace: j=1, input 11,8,7,7,5,5,4,3,2,2"
    assert lines[-1] == "output pair: k=0, partition 11,8,8,6,5,4,4,4,2,2"
    step_lines = [l for l in lines if l.split() and l.split()[0].isdigit()]
    assert len(step_lines) == 4


def test_trace_records_have_wire_fields(capsys):
    code, out, _ = run_cli(
        capsys,
        "trace", "fold", "11,8,7,7,5,5,4,3,2,2", "--j", "0",
        "--format", "records",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    steps = [r for r in records if r["step_index"] != "output"]
    assert len(steps) == 2
    expected_keys = {
        "step_index", "direction", "case", "k_before", "k_after", "d",
        "lam_before", "lam_after",
    }
    assert all(set(r) == expected_keys for r in steps)
    assert steps[0]["lam_after"] == "12,9,8,8,5,4,3,2,2,1"


def test_trace_unfold(capsys):
    code, out, _ = run_cli(capsys, "trace", "unfold", "13,10,9,9,4,3,2,2,1,1", "--j", "0")
    assert code == 0
    assert out.splitlines()[-1] == "output pair: k=0, partition 11,8,7,7,5,5,4,3,2,2"


def test_table_weight_two(capsys):
    code, out, _ = run_cli(capsys, "table", "--weight", "2", "--j", "0")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("2 ")]
    assert len(rows) == 1  # only (2) qualifies at weight 2
    assert "rows 1" in out


def test_table_rejects_weight_below_two(capsys):
    code, _, err = run_cli(capsys, "table", "--weight", "1")
    assert code == 1
    assert "weight at least 2" in err


def test_table_over_enumeration_limit_exits_one(capsys):
    code, _, err = run_cli(capsys, "table", "--weight", "61")
    assert code == 1
    assert err.startswith("error: enumeration limit")


@pytest.mark.parametrize("exc_type", [ValueError, TypeError])
def test_internal_exception_exits_three(capsys, monkeypatch, exc_type):
    def broken(j, lam):
        raise exc_type("bug inside a map")

    monkeypatch.setitem(cli._PLAIN_MAPS, "mex-to-crank", broken)
    code, out, err = run_cli(capsys, "map", "mex-to-crank", "3,2", "--j", "0")
    assert code == 3
    assert out == ""
    assert err == f"internal error: {exc_type.__name__}: bug inside a map\n"


@pytest.mark.parametrize("command", [["stats", "3,2"], ["verify", "--max-n", "3"]])
@pytest.mark.parametrize("max_j", ["100000000", "-1", "1001", "x"])
def test_max_j_out_of_range_exits_one_at_once(capsys, command, max_j):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command, "--max-j", max_j)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "--max-j" in err


def test_stats_accepts_the_max_j_cap(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stats", "3,2", "--max-j", str(cli.MAX_J))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[-1].split()[:2] == [str(cli.MAX_J), str(cli.MAX_J + 1)]


def test_verify_small_bounds(capsys, tmp_path):
    out_path = tmp_path / "report.jsonl"
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "6", "--max-j", "2", "--output", str(out_path)
    )
    assert code == 0
    assert "all checks passed" in out
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert all(r["status"] in ("pass", "skip") for r in records)
    assert any(r["name"] == "bijection-fold" for r in records)


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    failing = VerificationReport(3, 0, [CheckResult("demo", 3, 0, "fail", "2,1", "boom")])
    monkeypatch.setattr(cli, "run_theorem_suite", lambda max_n, max_j: failing)
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--max-j", "0")
    assert code == 2
    assert "FAIL demo" in out


def test_usage_error_maps_to_exit_one(capsys):
    assert cli.main(["map", "no-such-map", "3,2"]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_cli_round_trip_parse_print():
    # parse(print(lam)) == lam across every partition of weight <= 25
    for n in range(26):
        for lam in partitions_of(n):
            assert Partition.from_text(lam.to_text()) == lam
