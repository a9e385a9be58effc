"""Exact images of ``negate_crank``, the low-crank pair and the composites against references.

The references, in ``references.py``, are written from the definitions on
plain tuples and import nothing from crankmex.  ``negate_crank``'s third case
reads the column lengths of the Young diagram, counted cell by cell; the
low-crank pair goes through the shifted Durfee size ``d`` at ``j`` from its
definition.  The other tests of these maps check a few reference rows and
properties (weight, crank, involution, Durfee size) that a different map with
the same properties would also pass; this compares every image.
``mex_to_crank`` and ``crank_to_mex`` are compared with compositions of these
references with the reference fold and unfold runs, so their images rest on
no crankmex code.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from crankmex import (
    DomainError,
    Partition,
    crank_to_mex,
    from_low_crank,
    mex_to_crank,
    negate_crank,
    to_low_crank,
)
from references import (
    _partitions,
    ref_crank,
    ref_crank_to_mex,
    ref_from_low_crank,
    ref_mex_to_crank,
    ref_negate_crank,
    ref_to_low_crank,
    seeded_partitions,
)

MAX_WEIGHT = 20
MAX_J = 8


def _check_negation(parts: tuple) -> str:
    case, expected = ref_negate_crank(parts)
    # the reference itself keeps the weight and negates the crank
    assert sum(expected) == sum(parts) and ref_crank(expected) == -ref_crank(parts)
    assert negate_crank(Partition(parts)).parts == expected, parts
    return case


LOW_CRANK = ((to_low_crank, ref_to_low_crank), (from_low_crank, ref_from_low_crank))
COMPOSITES = ((mex_to_crank, ref_mex_to_crank), (crank_to_mex, ref_crank_to_mex))


def _check_pair(pair, j: int, parts: tuple, accepted: list) -> tuple[bool, bool]:
    """Compare both maps of ``pair`` at ``j`` with their references; which ones entered.

    A call outside a map's domain that returns goes to ``accepted``.
    """
    lam = Partition(parts)
    entered = []
    for fn, ref in pair:
        expected = ref(j, parts)
        entered.append(expected is not None)
        if expected is None:
            try:  # a bare try: pytest.raises costs about twice as much per call
                fn(j, lam)
            except DomainError:
                continue
            accepted.append((fn.__name__, j, parts))
        else:
            assert fn(j, lam).parts == expected, (fn.__name__, j, parts)
    return tuple(entered)


def test_negate_crank_matches_the_reference():
    cases = Counter(
        _check_negation(parts) for n in range(2, MAX_WEIGHT + 1) for parts in _partitions(n)
    )
    assert min(cases.values()) > 100 and len(cases) == 3, cases


def test_low_crank_pair_matches_the_reference():
    entered = Counter()
    accepted = []
    for n in range(MAX_WEIGHT + 1):
        for parts in _partitions(n):
            for j in range(MAX_J + 1):
                to_low, from_low = _check_pair(LOW_CRANK, j, parts, accepted)
                entered["to_low_crank", to_low] += 1
                entered["from_low_crank", from_low] += 1
    assert not accepted
    assert min(entered.values()) > 1000, entered


def test_the_references_hold_at_large_weight():
    cases = Counter()
    accepted = []
    for parts in seeded_partitions():
        cases[_check_negation(parts)] += 1
        for j in range(MAX_J + 1):
            cases["low", _check_pair(LOW_CRANK, j, parts, accepted)] += 1
        for j in range(4):
            cases["composite", _check_pair(COMPOSITES, j, parts, accepted)] += 1
    assert not accepted
    assert cases["t>0"] and cases["low", (True, False)] and cases["low", (False, True)], cases
    assert cases["composite", (True, False)] and cases["composite", (False, True)], cases


def test_composites_match_the_composed_references():
    entered = Counter()
    accepted = []
    for n in range(MAX_WEIGHT + 1):
        for parts in _partitions(n):
            for j in range(MAX_J + 1):
                to_crank, to_mex = _check_pair(COMPOSITES, j, parts, accepted)
                entered["mex_to_crank", to_crank] += 1
                entered["crank_to_mex", to_mex] += 1
    assert not accepted
    assert min(entered.values()) > 1000, entered


def test_the_references_load_no_crankmex_module():
    # crankmex is importable in the child, so only the references keep it out
    code = (
        "import sys, references\n"
        "references.load_oracle()\n"
        "print([m for m in sys.modules if m.partition('.')[0] == 'crankmex'])\n"
    )
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "tests"), str(root / "src")))),
    ).stdout
    assert out == "[]\n"
