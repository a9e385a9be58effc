"""Every public map taking ``j`` checks it first, at its entry, before anything else.

Everything else it runs, the stage kernels included, is unchecked.  A bad
``j`` must still be rejected with the one message of ``_check_nonnegative``,
never reach a kernel as a partition or a misleading domain error, and a
valid call must pay for the check exactly once.
"""

import pytest

from crankmex import DomainError, Partition, core, maps

# (map, j, an input in its domain at that j); the iterated maps take steps
IN_DOMAIN = [
    ("fold", 1, "3,3,2"),
    ("unfold", 1, "4,2,2"),
    ("fold_complement", 1, "4,4,3,2"),
    ("unfold_complement", 1, "4,3,3,3"),
    ("detach_step", 1, "5,3"),
    ("attach_step", 1, "7,3"),
    ("to_low_crank", 1, "7,1"),
    ("from_low_crank", 1, "6,1,1"),
    ("mex_to_crank", 1, "3,3,2,1"),
    ("crank_to_mex", 1, "4,4,1"),
]


@pytest.mark.parametrize("j", [-1, True, 1.5, "1", None], ids=repr)
@pytest.mark.parametrize("name, valid_j, text", IN_DOMAIN)
def test_a_bad_j_is_rejected_first(name, valid_j, text, j):
    for lam in (Partition.from_text(text), Partition.from_text("5,3,2,1,1")):
        with pytest.raises(DomainError) as info:
            getattr(maps, name)(j, lam)
        assert str(info.value) == f"j must be a non-negative integer, got {j!r}"


@pytest.mark.parametrize("name, j, text", IN_DOMAIN)
def test_a_valid_call_checks_j_once(monkeypatch, name, j, text):
    lam = Partition.from_text(text)
    calls = []
    check = core._check_nonnegative

    def counting(label, value):
        calls.append((label, value))
        check(label, value)

    for module in (core, maps):
        monkeypatch.setattr(module, "_check_nonnegative", counting)
    getattr(maps, name)(j, lam)
    assert calls == [("j", j)]
