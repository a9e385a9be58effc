"""The docstring examples and the README quick-start values hold."""

import doctest

from crankmex import Partition, core, fold, maps, mex_to_crank, verify


def test_docstring_examples_and_readme_quick_start():
    results = [doctest.testmod(module) for module in (core, maps, verify)]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) > 0

    # the "Library quick start" block of README.md, value by value
    lam = Partition.from_text("11,8,7,7,5,5,4,3,2,2")
    assert (lam.crank(), lam.mex(1), lam.durfee_size(0)) == (11, 6, 5)
    out, trace = fold(0, lam)
    assert (out.to_text(), len(trace)) == ("13,10,9,9,4,3,2,2,1,1", 2)
    image = mex_to_crank(5, lam)
    assert (image.to_text(), image.crank()) == ("12,10,8,7,6,5,5,1", 6)
