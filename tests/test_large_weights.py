"""The bijections at weights 200..1000, checked by an oracle outside crankmex.

The other map tests use small partitions (enumerations to weight about 25,
Hypothesis draws of at most nine parts up to 15).  Here the seeded uniform
partitions of ``references.py`` come from the sampler in
``perfbench/oracle.py``, which does not import crankmex, and every image is
classified by that file's own crank, mex and arm code.  The pairs and their
classes come from the library's one table of them, ``maps._BIJECTIONS``.
"""

from collections import Counter

from crankmex import Partition, maps
from references import load_oracle, ref_negate_crank, seeded_partitions


def _classes(oracle, parts, j):
    """The classes of the theorem suite that ``parts`` belongs to at ``j``."""
    odd = oracle.has_odd_mex(parts, j)
    arm = oracle.has_arm(parts, j)
    with_part = j == 0 or j in parts
    crank = oracle.crank(parts)
    return {
        "odd_mex": odd, "even_mex": not odd,
        "arm_free": not arm, "arm_bearing": arm,
        "odd_mex_with_part": odd and with_part, "arm_free_with_part": with_part and not arm,
        "low_crank": crank <= -j, "high_crank": crank >= j,
    }


def _apply(name, j, lam, traces):
    out = getattr(maps, name)(j, lam)
    if isinstance(out, tuple):  # the iterated maps also return their trace
        out, trace = out
        traces.append(trace)
    return out


def test_bijections_round_trip_at_large_weight():
    oracle = load_oracle()
    entered = Counter()
    for parts in seeded_partitions():
        lam = Partition(parts)
        weight = sum(parts)
        for j in range(4):
            classes = _classes(oracle, parts, j)
            # each pair of the library's table, also run backward first
            for _, (forward, backward), (domain, codomain), *_ in maps._BIJECTIONS:
                for fwd, bwd, dom, cod in (
                    (forward, backward, domain, codomain),
                    (backward, forward, codomain, domain),
                ):
                    if not classes[dom]:
                        continue
                    traces = []
                    image = _apply(fwd, j, lam, traces)
                    assert oracle.is_partition(image.parts) and sum(image.parts) == weight
                    assert _classes(oracle, image.parts, j)[cod], (fwd, j, parts)
                    assert _apply(bwd, j, image, traces) == lam, (fwd, j, parts)
                    for trace in traces:
                        # the iteration cap; every start state's pair weight is
                        # the weight, and legal runs stay far below the cap
                        cap = 2 * weight + 2 * trace.start.k + 4
                        assert len(trace) < cap // 10, (fwd, j, parts)
                    entered[fwd] += 1
        neg = maps.negate_crank(lam)
        assert oracle.is_partition(neg.parts) and sum(neg.parts) == weight
        assert oracle.crank(neg.parts) == -oracle.crank(parts)
        assert maps.negate_crank(neg) == lam
        # the exact image of neg; test_image_oracle.py pins negate_crank's
        # exact image of each seeded partition itself
        assert maps.negate_crank(neg).parts == ref_negate_crank(neg.parts)[1]
    assert len(entered) == 2 * len(maps._BIJECTIONS) and min(entered.values()) >= 40, entered
