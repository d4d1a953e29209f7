"""Periodic structure of high-power codewords and their b-weights.

A codeword divisible by (x-1)^{p^e - p^{e-k}} is a p^k-fold repetition of a
short block: c = (g-hat, ..., g-hat) where g-hat pads g with zeros up to one
period p^{e-k}.  Its b-weight therefore factors through the b-weight of g,
with a correction when the window width bridges the zero padding.  This
script shows the repetition explicitly and checks the predicted weight
against a direct window count.
"""

import random

from bsym.bsymbol import weight_b_oracle
from bsym.codes import lemma10_codeword, lemma10_weight
from bsym.gf import make_field
from bsym.polyring import poly, to_word


def show(g):
    """g as c0 + (c1)*x^1 + ..., skipping the zero terms."""
    terms = [f"({c})*x^{j}" if j else str(c) for j, c in enumerate(g) if c]
    return " + ".join(terms) or "0"


f = make_field(3)
e, k = 2, 1
period = 3 ** (e - k)

g = poly(f, [2, 1])  # x - 1 over F_3
c_word = lemma10_codeword(f, e, k, g)
print(f"g(x) = {show(g)}")
print(f"c(x) = (x-1)^{9 - 3} * g(x) as a word: {','.join(map(str, c_word))}")
print(f"  -> three copies of the period-{period} block "
      f"{','.join(map(str, to_word(f, g, period)))}\n")

for b in (2, 3):
    predicted = lemma10_weight(f, e, k, g, b)
    actual = weight_b_oracle(c_word, b)
    print(f"b={b}: predicted {predicted}, window count {actual}")

print("\nrandom cross-check over F_2, e=3:")
f2 = make_field(2)
rng = random.Random(0)
for _ in range(5):
    k = rng.randrange(1, 3)
    period = 2 ** (3 - k)
    d = rng.randrange(period)
    b = rng.randrange(2, period + 1)
    g = poly(f2, [rng.randrange(2) for _ in range(d)] + [1])
    predicted = lemma10_weight(f2, 3, k, g, b)
    actual = weight_b_oracle(lemma10_codeword(f2, 3, k, g), b)
    status = "ok" if predicted == actual else "MISMATCH"
    print(f"  k={k} b={b} g=({show(g)}):  predicted {predicted}, actual {actual}  "
          f"[{status}]")
