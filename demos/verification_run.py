"""Run the exhaustive verification harness at desk scale.

Run as ``python demos/verification_run.py``.  The same checks back the
``crankmex verify`` command; the full acceptance bounds (weights to 25,
j to 12) finish in a few seconds.
"""

from crankmex import (
    crank_table,
    odd_mex_series,
    partition_series,
    partitions_of,
    run_theorem_suite,
)

# The counting series: coefficients of the inverse Euler product are the
# partition numbers, and convolving with the alternating staircase series
# counts the odd-mex class (equivalently the arm-free class) by weight.
print("p(0..10)          ", partition_series(10))
print("odd-mex at j=0    ", odd_mex_series(0, 10))
print("odd-mex at j=3    ", odd_mex_series(3, 10))

# Spot check against brute-force enumeration at weight 9: sixteen partitions
# have odd mex, and sixteen have non-negative crank.
print()
print("count odd-mex(9)      ", sum(1 for lam in partitions_of(9) if lam.has_odd_mex(0)))
print("count crank >= 0 (9)  ", sum(1 for lam in partitions_of(9) if lam.crank() >= 0))

# The crank table, one row {crank: count} per weight, including the
# deliberate weight-1 convention row (the single negative entry) that keeps
# row sums and symmetry intact.
table = crank_table(8)
print()
print("crank table row n=1:", table[1])
print("crank table row n=4:", table[4])

# The theorem suite re-proves every counting identity with explicit
# element-by-element bijective witnesses: after the two class sizes agree,
# each domain element keeps its weight, maps into the codomain and comes back
# under the backward map.  Only a size mismatch names no element.
print()
report = run_theorem_suite(max_weight=14, max_j=6)
for line in report.summary_lines():
    print(line)
