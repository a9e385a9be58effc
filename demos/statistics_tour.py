"""A tour of the partition statistics.

Run as ``python demos/statistics_tour.py`` after installing the package.
Every quantity printed here is exact integer arithmetic.
"""

from crankmex import Partition

# A partition is a non-increasing sequence of positive integers.  The text
# form used everywhere (CLI arguments, reports) is comma-separated parts.
lam = Partition.from_text("5,3,2,2")
print(f"partition    {lam}")
print(f"weight       {lam.weight}")
print(f"length       {len(lam)}")

# The crank: with w the number of 1s, it is the largest part when w == 0,
# otherwise (number of parts greater than w) minus w.
for text in ("5,3,2,2", "2,2", "12,9,7,6,5,5,4,2,1,1,1,1", ""):
    p = Partition.from_text(text)
    print(f"crank({text or '(empty)'}) = {p.crank()}")

# The mex above j: the smallest integer greater than j that is not a part.
# For (5,3,2,2) the parts 2..5 form a blocking run, so the mex above 1..3
# is 4, while above 4 it jumps to 6.
print()
print("j   mex(j)  odd offset?")
for j in range(7):
    print(f"{j}   {lam.mex(j)}       {lam.has_odd_mex(j)}")

# The shifted Durfee sizes: durfee_size(j) is the unique index i with
# part(i) - i >= j > part(i+1) - (i+1).  At j=0 it is the classical Durfee
# square size.  The values part(i) - i are the "arm" coordinates; avoiding
# the arm value j is the second class the bijections care about.
print()
print("j   durfee_size(j)  avoids arm j?")
for j in range(7):
    print(f"{j}   {lam.durfee_size(j)}               {lam.avoids_arm(j)}")

# The full Durfee decomposition splits a partition into its square size plus
# strictly decreasing arm and leg sequences.
triple = lam.durfee_triple()
print()
print(f"durfee triple of {lam}: size={triple.size} arms={triple.arms} legs={triple.legs}")
print(f"weight identity: {lam.weight} == {triple.size} + {sum(triple.arms)} + {sum(triple.legs)}")

# Conjugation transposes the Young diagram.
print()
print(f"conjugate of {lam} is {lam.conjugate()}")

# Staircases (runs of consecutive parts) are the skeleton of the bijections.
stair = Partition(range(1 + 4, 1, -1))
print(f"staircase over 1 of length 4: {stair}  weight {stair.weight}")
