"""The six staircase maps agree with the frozen reference copy of the library.

``perfbench/reference/crankmex_ref`` is a read-only copy of crankmex from
before its maps were tuned, built on the public statistics and the checked
constructors.  Here every partition of weight at most 14 goes through each of
the six iterated maps at every ``j`` up to 4, in both copies: the images, every
trace step's ``(case, d, k, before, after)``, the end ``k`` and the start's
``odd`` must agree, and so must the inputs that each copy rejects with its
``DomainError``.  No golden file pins the complement maps' traces; this does.
"""

import importlib
import sys
from pathlib import Path

import pytest

import crankmex
from crankmex import partitions_of

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
MAX_WEIGHT = 14
MAX_J = 4
TRACED = ("fold", "unfold", "fold_complement", "unfold_complement")
PLAIN = ("mex_to_crank", "crank_to_mex")


@pytest.fixture(scope="module")
def reference():
    sys.path.insert(0, str(REFERENCE))
    try:
        return importlib.import_module("crankmex_ref")
    finally:
        sys.path.remove(str(REFERENCE))


def _state(state):
    return state.k, state.lam.parts, state.odd


def _outcome(lib, name, j, parts):
    """What ``lib``'s map ``name`` does at ``j`` to the partition ``parts``."""
    try:
        result = getattr(lib, name)(j, lib.Partition(parts))
    except lib.DomainError:
        return "DomainError"
    if name in PLAIN:
        return result.parts
    image, trace = result
    steps = [
        (step.direction, step.case, step.d, _state(step.before), _state(step.after))
        for step in trace.steps
    ]
    return image.parts, trace.direction, _state(trace.start), _state(trace.end), steps


@pytest.mark.parametrize("name", TRACED + PLAIN)
def test_map_matches_the_reference(reference, name):
    in_domain = 0
    for n in range(MAX_WEIGHT + 1):
        for lam in partitions_of(n):
            for j in range(MAX_J + 1):
                ours = _outcome(crankmex, name, j, lam.parts)
                assert ours == _outcome(reference, name, j, lam.parts), (name, j, lam)
                in_domain += ours != "DomainError"
    assert in_domain > 500
