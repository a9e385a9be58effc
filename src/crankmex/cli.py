"""Command-line frontend: statistics, map application, traces, tables, verification.

Partitions are passed as comma-separated parts in non-increasing order; the
empty string denotes the empty partition.  Exit codes: 0 success / all checks
pass, 1 domain or parse error, 2 verification failure, 3 internal error (any
other exception, which is a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import maps
from .core import DomainError, Partition, PartitionError
from .verify import run_theorem_suite

__all__ = ["main"]

_TRACED_MAPS = {
    "fold": maps.fold,
    "unfold": maps.unfold,
    "fold-complement": maps.fold_complement,
    "unfold-complement": maps.unfold_complement,
}
_PLAIN_MAPS = {
    "to-low-crank": maps.to_low_crank,
    "from-low-crank": maps.from_low_crank,
    "mex-to-crank": maps.mex_to_crank,
    "crank-to-mex": maps.crank_to_mex,
}
_NO_J_MAPS = {
    "negate-crank": maps.negate_crank,
}
_ALL_MAPS = sorted(_TRACED_MAPS | _PLAIN_MAPS | _NO_J_MAPS)

# Upper bound on --max-j: both commands loop over every j up to it, so the
# bound keeps every accepted value finishing in bounded time.
MAX_J = 1000


def _max_j(text: str) -> int:
    """argparse type of ``--max-j``: an integer in ``0..MAX_J``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value <= MAX_J:
        raise argparse.ArgumentTypeError(f"must lie in 0..{MAX_J}, got {value}")
    return value


def _cell(lam: Partition) -> str:
    return lam.to_text() or "(empty)"


def _columns(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    table = [header, *rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    return [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in table
    ]


def _emit(args, lines: list[str], records: list[dict]) -> None:
    if args.format == "records":
        for record in records:
            print(json.dumps(record, sort_keys=True))
    else:
        for line in lines:
            print(line)
    output = getattr(args, "output", None)
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _cmd_stats(args) -> int:
    lam = Partition.from_text(args.partition)
    ones = lam.count(1)
    tall = lam.count_above(ones)
    triple = lam.durfee_triple()
    lines = [
        f"partition {_cell(lam)}",
        f"weight {lam.weight}",
        f"length {len(lam)}",
        f"ones {ones}",
        f"parts-above-ones {tall}",
        f"crank {lam.crank()}",
        f"conjugate {_cell(lam.conjugate())}",
        f"durfee-size {triple.size}",
        f"durfee-arms {','.join(map(str, triple.arms)) or '(empty)'}",
        f"durfee-legs {','.join(map(str, triple.legs)) or '(empty)'}",
    ]
    header = ("j", "mex", "d", "odd-mex", "arm-free", "has-part")
    rows = []
    by_j = []
    for j in range(args.max_j + 1):
        row = {
            "j": j,
            "mex": lam.mex(j),
            "durfee_size": lam.durfee_size(j),
            "odd_mex": lam.has_odd_mex(j),
            "arm_free": lam.avoids_arm(j),
            "has_part": lam.has_part(j),
        }
        by_j.append(row)
        rows.append(
            (
                str(j),
                str(row["mex"]),
                str(row["durfee_size"]),
                "yes" if row["odd_mex"] else "no",
                "yes" if row["arm_free"] else "no",
                "yes" if row["has_part"] else "no",
            )
        )
    lines.extend(_columns(header, rows))
    record = {
        "partition": lam.to_text(),
        "weight": lam.weight,
        "length": len(lam),
        "ones": ones,
        "parts_above_ones": tall,
        "crank": lam.crank(),
        "conjugate": lam.conjugate().to_text(),
        "durfee_size": triple.size,
        "durfee_arms": list(triple.arms),
        "durfee_legs": list(triple.legs),
        "by_j": by_j,
    }
    _emit(args, lines, [record])
    return 0


def _apply_map(name: str, j: int, lam: Partition):
    """Returns (result partition, trace-or-None)."""
    if name in _TRACED_MAPS:
        return _TRACED_MAPS[name](j, lam)
    if name in _PLAIN_MAPS:
        return _PLAIN_MAPS[name](j, lam), None
    return _NO_J_MAPS[name](lam), None


def _cmd_map(args) -> int:
    lam = Partition.from_text(args.partition)
    result, _ = _apply_map(args.map, args.j, lam)
    lines = [
        f"map {args.map} j={args.j}",
        f"input {_cell(lam)}  crank {lam.crank()}",
        f"output {_cell(result)}  crank {result.crank()}",
    ]
    record = {
        "map": args.map,
        "j": args.j,
        "input": lam.to_text(),
        "output": result.to_text(),
        "crank_before": lam.crank(),
        "crank_after": result.crank(),
    }
    _emit(args, lines, [record])
    return 0


def _cmd_trace(args) -> int:
    lam = Partition.from_text(args.partition)
    result, trace = _TRACED_MAPS[args.map](args.j, lam)
    lines = [f"{args.map} trace: j={args.j}, input {_cell(lam)}"]
    header = ("step", "k", "partition", "d", "case", "result")
    rows = []
    records = []
    for index, step in enumerate(trace.steps, 1):
        rows.append(
            (
                str(index),
                str(step.before.k),
                _cell(step.before.lam),
                str(step.d),
                f"({step.case})",
                _cell(step.after.lam),
            )
        )
        records.append(
            {
                "step_index": index,
                "direction": step.direction,
                "case": step.case,
                "k_before": step.before.k,
                "k_after": step.after.k,
                "d": step.d,
                "lam_before": step.before.lam.to_text(),
                "lam_after": step.after.lam.to_text(),
            }
        )
    end = trace.end
    if trace.direction == "fold":
        d_end = end.lam.durfee_size(end.top)
    else:
        d_end = end.lam.durfee_size(end.top + 1)
    rows.append(("stop", str(end.k), _cell(end.lam), str(d_end), "-", "-"))
    lines.extend(_columns(header, rows))
    lines.append(f"output pair: k={end.k}, partition {_cell(result)}")
    records.append(
        {
            "step_index": "output",
            "direction": trace.direction,
            "k_after": end.k,
            "lam_after": result.to_text(),
        }
    )
    _emit(args, lines, records)
    return 0


def _cmd_table(args) -> int:
    from .verify import partitions_of

    weight, j = args.weight, args.j
    if weight < 2:
        raise DomainError("the crank correspondence assumes weight at least 2")
    header = ("input", "folded", "low-crank", "final", "crank-low", "crank-final")
    rows = []
    records = []
    for lam in partitions_of(weight):
        if not (lam.has_odd_mex(j) and lam.has_part(j)):
            continue
        folded, _ = maps.fold(j, lam)
        low = maps.to_low_crank(j, folded)
        final = maps.negate_crank(low)
        rows.append(
            (
                _cell(lam),
                _cell(folded),
                _cell(low),
                _cell(final),
                str(low.crank()),
                str(final.crank()),
            )
        )
        records.append(
            {
                "input": lam.to_text(),
                "folded": folded.to_text(),
                "low_crank": low.to_text(),
                "final": final.to_text(),
                "crank_low": low.crank(),
                "crank_final": final.crank(),
            }
        )
    lines = [f"weight {weight}, j {j}: odd-mex class with part {j} mapped to crank >= {j}"]
    lines.extend(_columns(header, rows))
    lines.append(f"rows {len(rows)}")
    _emit(args, lines, records)
    return 0


def _cmd_verify(args) -> int:
    report = run_theorem_suite(args.max_n, args.max_j)
    _emit(args, report.summary_lines(), report.to_records())
    return 0 if report.all_passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crankmex",
        description="Exact partition statistics, crank/mex bijections, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, output=True):
        p.add_argument("--format", choices=("text", "records"), default="text")
        if output:
            p.add_argument("--output", default=None, help="write machine-readable records here")

    p_stats = sub.add_parser("stats", help="print all statistics for one partition")
    p_stats.add_argument("partition")
    p_stats.add_argument("--max-j", type=_max_j, default=8, help=f"0..{MAX_J}")
    common(p_stats)
    p_stats.set_defaults(handler=_cmd_stats)

    p_map = sub.add_parser("map", help="apply one bijection to one partition")
    p_map.add_argument("map", choices=_ALL_MAPS)
    p_map.add_argument("partition")
    p_map.add_argument("--j", type=int, default=0)
    common(p_map)
    p_map.set_defaults(handler=_cmd_map)

    p_trace = sub.add_parser("trace", help="show the full iteration table of a staircase map")
    p_trace.add_argument("map", choices=sorted(_TRACED_MAPS))
    p_trace.add_argument("partition")
    p_trace.add_argument("--j", type=int, default=0)
    common(p_trace)
    p_trace.set_defaults(handler=_cmd_trace)

    p_table = sub.add_parser("table", help="full crank/mex correspondence at one weight")
    p_table.add_argument("--weight", type=int, required=True)
    p_table.add_argument("--j", type=int, default=0)
    common(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="run the exhaustive theorem suite")
    p_verify.add_argument("--max-n", type=int, default=25)
    p_verify.add_argument("--max-j", type=_max_j, default=12, help=f"0..{MAX_J}")
    common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code or 0
        return 1 if code == 2 else int(code)
    try:
        return args.handler(args)
    except (PartitionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a bug, not a bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
