import json
import os
import subprocess
import sys
import time
from pathlib import Path

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


# Exact text of each subcommand the golden files do not pin; each value is
# the command's whole stdout, one string per line.
EXACT_TEXT = {
    ("stats", "11,8,7,7,5,5,4,3,2,2", "--max-j", "3"): (
        "partition 11,8,7,7,5,5,4,3,2,2",
        "weight 54",
        "length 10",
        "ones 0",
        "parts-above-ones 10",
        "crank 11",
        "conjugate 10,10,8,7,6,4,4,2,1,1,1",
        "durfee-size 5",
        "durfee-arms 10,6,4,3,0",
        "durfee-legs 9,8,5,3,1",
        "j  mex  d  odd-mex  arm-free  has-part",
        "0  1    5  yes      no        yes",
        "1  6    4  yes      yes       no",
        "2  6    4  no       yes       yes",
        "3  6    4  yes      no        yes",
    ),
    ("stats", "", "--max-j", "3"): (
        "partition (empty)",
        "weight 0",
        "length 0",
        "ones 0",
        "parts-above-ones 0",
        "crank 0",
        "conjugate (empty)",
        "durfee-size 0",
        "durfee-arms (empty)",
        "durfee-legs (empty)",
        "j  mex  d  odd-mex  arm-free  has-part",
        "0  1    0  yes      yes       yes",
        "1  2    0  yes      yes       no",
        "2  3    0  yes      yes       no",
        "3  4    0  yes      yes       no",
    ),
    ("map", "fold", "11,8,7,7,5,5,4,3,2,2", "--j", "1"): (
        "map fold j=1",
        "input 11,8,7,7,5,5,4,3,2,2  crank 11",
        "output 11,8,8,6,5,4,4,4,2,2  crank 11",
    ),
    ("map", "to-low-crank", "11,8,7,7,5,5,4,3,2,2", "--j", "5"): (
        "map to-low-crank j=5",
        "input 11,8,7,7,5,5,4,3,2,2  crank 11",
        "output 10,7,7,7,5,4,3,2,2,1,1,1,1,1,1,1  crank -6",
    ),
    ("map", "negate-crank", "2,1,1"): (
        "map negate-crank j=0",
        "input 2,1,1  crank -2",
        "output 2,2  crank 2",
    ),
    ("trace", "unfold", "13,10,9,9,4,3,2,2,1,1", "--j", "0"): (
        "unfold trace: j=0, input 13,10,9,9,4,3,2,2,1,1",
        "step  k  partition              d  case  result",
        "1     0  13,10,9,9,4,3,2,2,1,1  4  (2)   12,9,8,8,5,4,3,2,2,1",
        "2     0  12,9,8,8,5,4,3,2,2,1   4  (2)   11,8,7,7,5,5,4,3,2,2",
        "stop  0  11,8,7,7,5,5,4,3,2,2   4  -     -",
        "output pair: k=0, partition 11,8,7,7,5,5,4,3,2,2",
    ),
    # the stop row's d is taken at top + 1 on an unfold, here with k = 1
    ("trace", "unfold-complement", "11,8,8,6,5,4,4,4,2,2", "--j", "2"): (
        "unfold-complement trace: j=2, input 11,8,8,6,5,4,4,4,2,2",
        "step  k  partition           d  case  result",
        "1     0  12,9,9,5,4,4,4,2,2  3  (2)   11,8,8,7,5,4,4,2,2",
        "2     0  11,8,8,7,5,4,4,2,2  3  (2)   10,7,7,7,7,5,4,2,2",
        "3     0  10,7,7,7,7,5,4,2,2  3  (1)   11,8,7,7,5,2,2",
        "stop  1  11,8,7,7,5,2,2      2  -     -",
        "output pair: k=1, partition 11,8,7,7,5,5,4,3,2,2",
    ),
}


@pytest.mark.parametrize("argv", list(EXACT_TEXT), ids=" ".join)
def test_text_output_is_exact(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "".join(line + "\n" for line in EXACT_TEXT[argv])


def test_stats_records_are_exact(capsys):
    code, out, _ = run_cli(capsys, "stats", "5,3,2,2", "--max-j", "2", "--format", "records")
    assert code == 0
    assert json.loads(out) == {
        "partition": "5,3,2,2",
        "weight": 12,
        "length": 4,
        "ones": 0,
        "parts_above_ones": 4,
        "crank": 5,
        "conjugate": "4,4,2,1,1",
        "durfee_size": 2,
        "durfee_arms": [4, 1],
        "durfee_legs": [3, 2],
        "by_j": [
            {"j": 0, "mex": 1, "durfee_size": 2, "odd_mex": True, "arm_free": True,
             "has_part": True},
            {"j": 1, "mex": 4, "durfee_size": 2, "odd_mex": True, "arm_free": False,
             "has_part": False},
            {"j": 2, "mex": 4, "durfee_size": 1, "odd_mex": False, "arm_free": True,
             "has_part": True},
        ],
    }
    assert out.count("\n") == 1


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "stats", "2,3")
    assert code == 1
    assert "part #2" in err
    # an integer is an optional sign and ASCII digits: ``int`` would read all of these
    for argv, message in (
        (("stats", "1_0"), "error: entry #1 is not an integer: '1_0'\n"),
        (("stats", "\u0663,\u0662"), "error: entry #1 is not an integer: '\u0663'\n"),
        (("map", "fold", "3,2", "--j", "1_0"), "argument --j: invalid int value: '1_0'\n"),
        (("trace", "fold", "3,2", "--j", "\u0661"), "argument --j: invalid int value: '\u0661'\n"),
        (("table", "--weight", "9_0"), "argument --weight: invalid int value: '9_0'\n"),
        (("table", "--weight", "\u0669"), "argument --weight: invalid int value: '\u0669'\n"),
        (("stats", "3,2", "--max-j", "x"), "argument --max-j: invalid int value: 'x'\n"),
        (("verify", "--max-n", "1_0"), "argument --max-n: invalid int value: '1_0'\n"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.endswith(message), argv


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
@pytest.mark.parametrize("max_j", ["100000000", "-1", "1001", "x", "1_0", "\u0663"])
def test_max_j_out_of_range_exits_one_at_once(capsys, command, max_j):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command, "--max-j", max_j)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "--max-j" in err


@pytest.mark.parametrize("max_n", [str(cli.MAX_VERIFY_WEIGHT + 1), "-1", "x", "1_0", "\u0663"])
def test_verify_max_n_out_of_range_exits_one_at_once(capsys, max_n):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--max-n", max_n)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "--max-n" in err


def test_verify_help_states_the_max_n_bound(capsys):
    assert cli.main(["verify", "--help"]) == 0
    assert f"0..{cli.MAX_VERIFY_WEIGHT}" in capsys.readouterr().out


def test_stats_accepts_the_max_j_cap(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "stats", "3,2", "--max-j", str(cli.MAX_J))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[-1].split()[:2] == [str(cli.MAX_J), str(cli.MAX_J + 1)]


def test_verify_max_j_is_bounded_by_the_verify_weight(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--max-j", str(cli.MAX_VERIFY_WEIGHT + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert f"--max-j: must lie in 0..{cli.MAX_VERIFY_WEIGHT}" in err


def test_verify_accepts_the_max_j_cap(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "2", "--max-j", str(cli.MAX_VERIFY_WEIGHT)
    )
    assert code == 0
    assert f"j 0..{cli.MAX_VERIFY_WEIGHT}" in out
    assert "all checks passed" in out


def _hook(weight):
    # (m + 1, 1^m) or (m, 1^m): under unfold at j = 0 it takes (weight - 1) // 2
    # steps, the most any input of its weight takes
    return ",".join([str(weight - weight // 2)] + ["1"] * (weight // 2))


@pytest.mark.parametrize(
    "command",
    [("map", name) for name in cli._ALL_MAPS] + [("trace", name) for name in sorted(cli._TRACED_MAPS)],
    ids="-".join,
)
def test_map_and_trace_reject_a_weight_over_the_bound_at_once(capsys, monkeypatch, command):
    def no_map_runs(*args):
        raise AssertionError("a map ran on an input over the bound")

    for table in (cli._TRACED_MAPS, cli._PLAIN_MAPS):
        for name in table:
            monkeypatch.setitem(table, name, no_map_runs)
    monkeypatch.setattr(cli.maps, "negate_crank", no_map_runs)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *command, _hook(cli.MAX_MAP_WEIGHT + 1), "--j", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        f"error: map and trace accept weight at most {cli.MAX_MAP_WEIGHT}, "
        f"got {cli.MAX_MAP_WEIGHT + 1}\n"
    )


def test_map_unfold_accepts_the_worst_input_at_the_bound(capsys):
    code, out, err = run_cli(capsys, "map", "unfold", _hook(cli.MAX_MAP_WEIGHT), "--j", "0")
    assert (code, err) == (0, "")
    output = out.splitlines()[2].split()[1]
    assert Partition.from_text(output).weight == cli.MAX_MAP_WEIGHT


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


@pytest.mark.parametrize("target", ["missing/report.jsonl", "."])
def test_unwritable_output_exits_one_before_printing(capsys, tmp_path, target):
    path = tmp_path / target
    code, out, err = run_cli(capsys, "stats", "3", "--output", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write --output {path}: ")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_empty_output_path_exits_one_and_leaves_no_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "stats", "3", "--output", "")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write --output : ")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("target, reason", [
    ("", "No such file or directory"),
    ("missing/", "No such file or directory"),
    ("sub/", "Is a directory"),
])
def test_output_naming_no_file_opens_nothing(capsys, tmp_path, monkeypatch, target, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()

    def no_open(*args, **kwargs):
        raise AssertionError(f"open{args!r} for an --output that names no file")

    monkeypatch.setattr(cli, "open", no_open, raising=False)
    code, out, err = run_cli(capsys, "stats", "3", "--output", target)
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write --output {target}: {reason}\n"
    assert os.listdir(tmp_path) == ["sub"]
    assert os.listdir(tmp_path / "sub") == []


def test_output_dash_is_an_ordinary_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "stats", "3", "--format", "records", "--output", "-")
    assert code == 0
    assert (tmp_path / "-").read_text() == out
    assert os.listdir(tmp_path) == ["-"]


# Each prints well over a pipe's 64 KiB buffer, so the writer is still
# writing when the reader goes away.
@pytest.mark.parametrize("argv", [
    ("table", "--weight", "30", "--j", "0"),
    ("verify", "--max-n", "16", "--max-j", "6", "--format", "records"),
], ids=["table", "verify-records"])
def test_closed_stdout_exits_one(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "crankmex.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stdout.readline()
    proc.stdout.close()  # as `crankmex ... | head -1` does
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "error: cannot write to stdout: the reader closed it\n"


def test_output_records_are_the_printed_records(capsys, tmp_path):
    path = tmp_path / "report.jsonl"
    path.write_text("stale line, longer than anything the command writes\n" * 200)
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "6", "--max-j", "2", "--format", "records",
        "--output", str(path),
    )
    assert code == 0
    assert path.read_bytes() == out.encode()
    assert os.listdir(tmp_path) == ["report.jsonl"]


def test_output_through_a_symlink_keeps_the_link(capsys, tmp_path):
    real = tmp_path / "real.jsonl"
    real.write_text("old\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    code, out, _ = run_cli(capsys, "stats", "3", "--format", "records", "--output", str(link))
    assert code == 0
    assert link.is_symlink()
    assert real.read_bytes() == out.encode()
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "real.jsonl"]


def test_failed_output_write_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "report.jsonl"
    path.write_text("old\n")
    # an OSError is an unwritable output, anything else a bug; either way the
    # temporary file is removed
    for exc, code, err in (
        (PermissionError(13, "Permission denied"), 1,
         f"error: cannot write --output {path}: Permission denied\n"),
        (RuntimeError("bug in the write"), 3, "internal error: RuntimeError: bug in the write\n"),
    ):
        def refuse(src, dst):
            raise exc

        monkeypatch.setattr(os, "replace", refuse)
        assert run_cli(capsys, "stats", "3", "--output", str(path)) == (code, "", err)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["report.jsonl"]


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    failing = VerificationReport(3, 0, [CheckResult("demo", 3, 0, "fail", "2,1", "boom")])
    monkeypatch.setattr("crankmex.verify.run_theorem_suite", lambda max_n, max_j: failing)
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


def test_map_negate_crank_rejects_a_negative_j(capsys):
    code, out, err = run_cli(capsys, "map", "negate-crank", "5,3,1", "--j", "-3")
    assert (code, out) == (1, "")
    assert err == "error: j must be a non-negative integer, got -3\n"
    code, out, _ = run_cli(capsys, "map", "negate-crank", "5,3,1", "--j", "0")
    assert code == 0
    assert out == "map negate-crank j=0\ninput 5,3,1  crank 1\noutput 5,2,1,1  crank -1\n"


def _never_steps(j, k, odd, parts):
    return None


_real_fold_move = cli.maps._fold_move
_real_conjugate_parts = cli.maps._conjugate_parts


def _fold_move_adding_a_zero(j, k, odd, parts):
    move = _real_fold_move(j, k, odd, parts)
    if move is None or move[3] is None:
        return move
    case, d, new_k, buf = move
    return case, d, new_k, buf + [0]


def _ascending_conjugate(parts):
    return sorted(_real_conjugate_parts(parts))


@pytest.mark.parametrize(
    "patched,replacement,argv,cause",
    [
        ("maps._fold_move", _never_steps,
         ("map", "mex-to-crank", "11,8,7,7,5,5,4,3,2,2", "--j", "0"),
         "mex_to_crank broke an internal invariant: '11,8,7,7,5,5,4,3,2,2' has arm 0"),
        ("maps._fold_move", _never_steps, ("table", "--weight", "9", "--j", "0"),
         "table row '7,2' broke an internal invariant: '7,2' has arm 0"),
        ("maps._unfold_move", _never_steps, ("map", "unfold", "13,10,9,9,4,3,2,2,1,1"),
         "unfold broke an internal invariant: rest must not contain the part 1"),
        ("maps.from_low_crank", lambda j, lam: lam,
         ("map", "crank-to-mex", "12,10,8,7,6,5,5,1", "--j", "5"),
         "crank_to_mex broke an internal invariant: "),
        ("maps._fold_move", _fold_move_adding_a_zero,
         ("map", "fold", "11,8,7,7,5,5,4,3,2,2", "--j", "1"),
         "a map output broke an internal invariant: part #9 must be positive, got 0"),
        ("maps._conjugate_parts", _ascending_conjugate, ("map", "negate-crank", "9,5,2,1"),
         "negate_crank broke an internal invariant: parts must be non-increasing"),
        # Partition.conjugate reads core's own binding, not the one maps imports
        ("core._conjugate_parts", _ascending_conjugate, ("stats", "9,5,2,1"),
         "conjugate broke an internal invariant: parts must be non-increasing: "
         "part #5 (2) exceeds part #4 (1)\n"),
    ],
    ids=["map-mex-to-crank", "table", "map-unfold", "map-crank-to-mex", "map-fold",
         "map-negate-crank", "stats-conjugate"],
)
def test_broken_invariant_inside_a_map_exits_three(
    capsys, monkeypatch, patched, replacement, argv, cause
):
    # past a map's entry checks a DomainError is a bug, not a bad input, and
    # so is a map output that fails its own check
    monkeypatch.setattr(f"crankmex.{patched}", replacement)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: IterationLimitError: {cause}")


def test_crank_to_mex_of_the_empty_partition_exits_one(capsys):
    code, out, err = run_cli(capsys, "map", "crank-to-mex", "", "--j", "0")
    assert (code, out) == (1, "")
    assert err == "error: defined only for partitions of weight at least 2\n"
