"""Hypothesis fuzz of the per-partition commands: ``stats``, ``map`` and ``trace``.

Valid and malformed partition texts (negative, zero, increasing, non-integer
and empty entries, a part over ``MAX_WEIGHT``) must be answered with exit 0 or
1 within a second, never with the internal-error code 3 or an escaping
exception, and every records line must be JSON that round-trips.
"""

import contextlib
import io
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from crankmex import MAX_WEIGHT, cli

_ENTRY = st.one_of(
    st.integers(1, 12).map(str),
    st.sampled_from(["0", "-1", "-7", "", " ", "x", "1.5", "2e3", "+3", " 4 ", "3,,2"]),
    st.just(str(MAX_WEIGHT + 1)),
)
_TEXT = st.one_of(
    st.lists(st.integers(1, 12), max_size=12).map(
        lambda parts: ",".join(map(str, sorted(parts, reverse=True)))
    ),
    st.lists(_ENTRY, max_size=8).map(",".join),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["stats", "map", "trace"]))
    text = draw(_TEXT)
    if command == "stats":
        return ["stats", text, "--format", "records"]
    names = cli._ALL_MAPS if command == "map" else sorted(cli._TRACED_MAPS)
    # mostly small j, where the maps' domains are not almost empty
    j = draw(st.one_of(st.integers(0, 3), st.integers(-3, 40)))
    return [command, draw(st.sampled_from(names)), text, "--j", str(j), "--format", "records"]


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_cli_answers_every_partition_text(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 1.0, argv
    assert code in (0, 1), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
    for line in out.getvalue().splitlines():
        assert json.dumps(json.loads(line), sort_keys=True) == line
