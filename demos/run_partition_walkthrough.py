"""Walk through the run-partition computation of a b-symbol weight.

The b-symbol weight of a word counts how many of its n overlapping circular
length-b windows contain a nonzero symbol.  Instead of scanning windows, one
can remove every circular zero run of length >= b-1 and count what is left:

    w_b(x) = w_H(x) + e + L * (b - 1)

where L is the number of leftover "active" runs and e counts zeros trapped
inside them.  This script shows both routes side by side on the worked
15-symbol example and a few variations, including the full-circle edge case
where no zero run is long enough and every window is active.
"""

from bsym.bsymbol import (
    dist_b_formula,
    dist_b_oracle,
    pi_b,
    weight_b_formula,
    weight_b_oracle,
    weight_run_partition,
)

x = (0, 0, 1, 3, 0, 5, 0, 0, 0, 2, 0, 7, 0, 0, 0)
b = 4
w_h = sum(1 for s in x if s != 0)

print(f"word      x = {','.join(map(str, x))}")
print(f"width     b = {b}\n")

print("the", len(x), "windows:")
for j, win in enumerate(pi_b(x, b)):
    tag = "zero" if all(s == 0 for s in win) else "  ->counts"
    print(f"  j={j:2d}  {win}  {tag}")

print(f"\nwindow count (oracle):  w_b = {weight_b_oracle(x, b)}")

part = weight_run_partition(x, b)
print("\nrun partition against the zero word:")
print(f"  zero runs of length >= b-1 (removed): "
      f"{[sorted(g.indices()) for g in part.gaps]}")
print(f"  active runs:                          "
      f"{[sorted(r.indices()) for r in part.runs]}")
print(f"  L = {part.L}  trapped zeros e = {part.agreement_excess}  "
      f"w_H = {w_h}")
print(f"  formula: {w_h} + {part.agreement_excess} "
      f"+ {part.L}*{b - 1} = {weight_b_formula(x, b)}")

print("\n--- full-circle edge case ---")
y = (1, 0, 0, 1, 0, 0)
z = (0,) * 6
print(f"x = {','.join(map(str, y))}, b = 4: zero runs have length 2 < b-1 = 3, so nothing is")
print("removed and every window is active.  The formula's L counts gaps;")
print("there are none, so d_H + e + 0*(b-1) = 2 + 4 = n directly.")
print(f"  oracle  d_4 = {dist_b_oracle(y, z, 4)}")
print(f"  formula d_4 = {dist_b_formula(y, z, 4)}")
full = weight_run_partition(y, 4)
print(f"  (counting the one active run, the paper's L = {full.L}, would give")
print(f"   2 + {full.agreement_excess} + {full.L}*3 = 9, above n = 6)")
