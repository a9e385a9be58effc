"""Command-line frontend: statistics, map application, traces, tables, verification.

Partitions are passed as comma-separated parts in non-increasing order; the
empty string denotes the empty partition.  Each command builds its records
once: ``--format records`` prints them as JSON lines, ``--output`` writes them,
and the aligned text is rendered from them.  Exit codes: 0 success / all
checks pass, 1 domain or parse error or an unwritable output, 2 verification
failure, 3 internal error (a broken invariant or any other exception: a bug,
never a bad input).

Only ``table`` and ``verify`` load :mod:`crankmex.verify`, and ``json`` is
loaded only to print or write records, so ``stats``, ``map`` and ``trace``
in text format start without either.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from . import maps
from .core import (
    DomainError, Partition, PartitionError, _check_nonnegative, _invariant_broken, _parse_int,
)

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
_ALL_MAPS = sorted([*_TRACED_MAPS, *_PLAIN_MAPS, "negate-crank"])

# Upper bound on stats --max-j: it loops over every j up to it, so the bound
# keeps every accepted value finishing in bounded time.
MAX_J = 1000

# Upper bound on verify --max-n and --max-j.  The suite's time roughly doubles
# every +3 in weight: at this bound and --max-j 12 it takes about two minutes
# (33 s at 34 on a 2.0 GHz Xeon), at the enumeration limit (60) hours.  Each
# partition is classified once per weight; every j then costs one cheap loop
# over the weight's partitions, and its checks, even where j >= n.
MAX_VERIFY_WEIGHT = 40

# Upper bound on the weight of a map or trace input.  A run at weight n takes
# up to (n - 1) // 2 steps and each step copies and sorts every part, so time
# and memory grow with the square of the weight.  At this bound the worst
# input, a hook under unfold, takes 0.5 s and 63 MB peak RSS under map and
# 2.3 s and 113 MB under trace (2 vCPU Xeon, Python 3.11).
MAX_MAP_WEIGHT = 5000


class _OutputError(Exception):
    """The ``--output`` path cannot be written: a user error, exit 1."""


def _int(limit: int | None = None):
    """argparse type: an optional sign, then ASCII digits; in ``0..limit`` if a limit is given."""

    def parse(text: str) -> int:
        try:
            value = _parse_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if limit is not None and not 0 <= value <= limit:
            raise argparse.ArgumentTypeError(f"must lie in 0..{limit}, got {value}")
        return value

    return parse


def _cell(value) -> str:
    """A record value as one text cell: ``yes``/``no`` for a bool, a list
    comma-joined, ``(empty)`` for an empty partition or list, else ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        value = ",".join(map(str, value))
    return str(value) or "(empty)"


def _columns(header: tuple[str, ...], rows) -> list[str]:
    """Aligned text lines of ``header`` and ``rows``, each row a sequence of values."""
    table = [header, *(tuple(map(_cell, row)) for row in rows)]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    return [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in table
    ]


def _cannot_write(path: str, exc: OSError) -> _OutputError:
    return _OutputError(f"cannot write --output {path}: {exc.strerror or exc}")


def _write_records(path: str, text: str) -> None:
    """Write ``text``, the records as JSON lines, to ``path``.

    A regular file, or a new one, is written as a temporary file beside it
    that replaces it only when complete, so a failed run never leaves a
    truncated file.  A symlink, device or pipe (``/dev/stdout``) is written
    in place, since a replace would swap the link or the device node for a
    regular file.  An ``OSError`` becomes an :class:`_OutputError`.
    """
    if not os.path.basename(path):  # "" or "dir/" names no file to write
        code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
        raise _cannot_write(path, OSError(code, os.strerror(code)))
    in_place = os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path))
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        if in_place:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return
        handle = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc) from None
        raise


def _emit(args, lines: list[str], records: list[dict]) -> None:
    if args.output is not None or args.format == "records":
        import json

        json_lines = [json.dumps(record, sort_keys=True) for record in records]
        # the file first, so an unwritable --output fails before anything is printed
        if args.output is not None:
            _write_records(args.output, "".join(line + "\n" for line in json_lines))
        if args.format == "records":
            lines = json_lines
    # one print per line: a single write of them all can miss a closed pipe
    for line in lines:
        print(line)


def _cmd_stats(args) -> int:
    lam = Partition.from_text(args.partition)
    ones = lam.count(1)
    triple = lam.durfee_triple()
    by_j = [
        {
            "j": j,
            "mex": lam.mex(j),
            "durfee_size": lam.durfee_size(j),
            "odd_mex": lam.has_odd_mex(j),
            "arm_free": lam.avoids_arm(j),
            "has_part": lam.has_part(j),
        }
        for j in range(args.max_j + 1)
    ]
    record = {
        "partition": lam.to_text(),
        "weight": lam.weight,
        "length": len(lam),
        "ones": ones,
        "parts_above_ones": lam.count_above(ones),
        "crank": lam.crank(),
        "conjugate": lam.conjugate().to_text(),
        "durfee_size": triple.size,
        "durfee_arms": list(triple.arms),
        "durfee_legs": list(triple.legs),
        "by_j": by_j,
    }
    lines = [f"{k.replace('_', '-')} {_cell(v)}" for k, v in record.items() if k != "by_j"]
    header = ("j", "mex", "d", "odd-mex", "arm-free", "has-part")
    lines += _columns(header, [row.values() for row in by_j])
    _emit(args, lines, [record])
    return 0


def _map_input(text: str) -> Partition:
    """The partition ``map`` and ``trace`` act on, rejected above ``MAX_MAP_WEIGHT``."""
    lam = Partition.from_text(text)
    if lam.weight > MAX_MAP_WEIGHT:
        raise DomainError(
            f"map and trace accept weight at most {MAX_MAP_WEIGHT}, got {lam.weight}"
        )
    return lam


def _apply_map(name: str, j: int, lam: Partition) -> Partition:
    if name in _TRACED_MAPS:
        return _TRACED_MAPS[name](j, lam)[0]
    if name in _PLAIN_MAPS:
        return _PLAIN_MAPS[name](j, lam)
    _check_nonnegative("j", j)  # negate-crank takes no j; a bad one fails as elsewhere
    return maps.negate_crank(lam)


def _cmd_map(args) -> int:
    lam = _map_input(args.partition)
    result = _apply_map(args.map, args.j, lam)
    record = {
        "map": args.map,
        "j": args.j,
        "input": lam.to_text(),
        "output": result.to_text(),
        "crank_before": lam.crank(),
        "crank_after": result.crank(),
    }
    lines = [
        f"map {record['map']} j={record['j']}",
        f"input {_cell(record['input'])}  crank {record['crank_before']}",
        f"output {_cell(record['output'])}  crank {record['crank_after']}",
    ]
    _emit(args, lines, [record])
    return 0


def _cmd_trace(args) -> int:
    lam = _map_input(args.partition)
    result, trace = _TRACED_MAPS[args.map](args.j, lam)
    records = [
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
        for index, step in enumerate(trace.steps, 1)
    ]
    rows = [
        (r["step_index"], r["k_before"], r["lam_before"], r["d"], f"({r['case']})", r["lam_after"])
        for r in records
    ]
    end = trace.end  # the stop row's d is taken at top on a fold, at top + 1 on an unfold
    d_end = end.lam.durfee_size(end.top if trace.direction == "fold" else end.top + 1)
    rows.append(("stop", end.k, end.lam.to_text(), d_end, "-", "-"))
    output = {
        "step_index": "output", "direction": trace.direction,
        "k_after": end.k, "lam_after": result.to_text(),
    }
    records.append(output)
    lines = [
        f"{args.map} trace: j={args.j}, input {_cell(lam.to_text())}",
        *_columns(("step", "k", "partition", "d", "case", "result"), rows),
        f"output pair: k={output['k_after']}, partition {_cell(output['lam_after'])}",
    ]
    _emit(args, lines, records)
    return 0


def _cmd_table(args) -> int:
    from .verify import partitions_of

    weight, j = args.weight, args.j
    if weight < 2:
        raise DomainError("the crank correspondence assumes weight at least 2")
    records = []
    for lam in partitions_of(weight):
        if not (lam.has_odd_mex(j) and lam.has_part(j)):
            continue
        try:  # the row is in the domain of all three maps, so a DomainError is a bug
            folded, _ = maps.fold(j, lam)
            low = maps.to_low_crank(j, folded)
            final = maps.negate_crank(low)
        except DomainError as exc:
            raise _invariant_broken(f"table row {lam.to_text()!r}", exc) from exc
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
    header = ("input", "folded", "low-crank", "final", "crank-low", "crank-final")
    lines = [
        f"weight {weight}, j {j}: odd-mex class with part {j} mapped to crank >= {j}",
        *_columns(header, [record.values() for record in records]),
        f"rows {len(records)}",
    ]
    _emit(args, lines, records)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_theorem_suite

    report = run_theorem_suite(args.max_n, args.max_j)
    _emit(args, report.summary_lines(), report.to_records())
    return 0 if report.all_passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crankmex",
        description="Exact partition statistics, crank/mex bijections, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "records"), default="text")
        p.add_argument("--output", default=None, help="write machine-readable records here")

    p_stats = sub.add_parser("stats", help="print all statistics for one partition")
    p_stats.add_argument("partition")
    p_stats.add_argument("--max-j", type=_int(MAX_J), default=8, help=f"0..{MAX_J}")
    common(p_stats)
    p_stats.set_defaults(handler=_cmd_stats)

    p_map = sub.add_parser("map", help="apply one bijection to one partition")
    p_map.add_argument("map", choices=_ALL_MAPS)
    p_map.add_argument("partition")
    p_map.add_argument("--j", type=_int(), default=0)
    common(p_map)
    p_map.set_defaults(handler=_cmd_map)

    p_trace = sub.add_parser("trace", help="show the full iteration table of a staircase map")
    p_trace.add_argument("map", choices=sorted(_TRACED_MAPS))
    p_trace.add_argument("partition")
    p_trace.add_argument("--j", type=_int(), default=0)
    common(p_trace)
    p_trace.set_defaults(handler=_cmd_trace)

    p_table = sub.add_parser("table", help="full crank/mex correspondence at one weight")
    p_table.add_argument("--weight", type=_int(), required=True)
    p_table.add_argument("--j", type=_int(), default=0)
    common(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="run the exhaustive theorem suite")
    p_verify.add_argument(
        "--max-n", type=_int(MAX_VERIFY_WEIGHT), default=25, help=f"0..{MAX_VERIFY_WEIGHT}"
    )
    p_verify.add_argument(
        "--max-j", type=_int(MAX_VERIFY_WEIGHT), default=12, help=f"0..{MAX_VERIFY_WEIGHT}"
    )
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
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (``crankmex ... | head``); send the unwritten
        # rest to devnull, so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write to stdout: the reader closed it", file=sys.stderr)
        return 1
    except (PartitionError, DomainError, _OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a bug, not a bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
