"""A guided tour of the structural identities behind the cyclic factor test.

The augmentation ideal I(G) of F_pG remembers a lot about G.  Two families
of subspaces can each be computed in two very different ways: once from a
normal subgroup of G, once purely inside the algebra.  This script computes
both sides on a few small 2-groups and 3-groups and shows that they agree,
then uses the resulting exponent criterion to detect cyclic direct factors.

Run:  python3 demos/lemma_identities_walkthrough.py
"""

import math

from pgroupalg import (catalog_by_name, cyclic_factor_orders,
                       cyclic_factor_test, lemma_identity_check)

NAMES = ["C4", "C2xC4", "D8", "Q8", "M16", "He3"]

print("=" * 64)
print("Part 1: ideal identities, group side vs algebra side")
print("=" * 64)

for name in NAMES:
    G = catalog_by_name(name)
    smax = max(1, round(math.log(G.exponent(), G.p)))
    print(f"\n{name}  (p = {G.p}, |G| = {G.order}, exp = {G.exponent()})")
    for i in range(1, smax + 1):
        for item in (1, 2):
            rep = lemma_identity_check(G, item, i)
            status = "agree" if rep.equal else "DISAGREE"
            print(f"  item {item}, i={i}:  left dim {rep.left_dim:2d}"
                  f"  right dim {rep.right_dim:2d}  -> {status}")
        for j in range(1, smax + 1):
            rep = lemma_identity_check(G, 3, i, j)
            status = "agree" if rep.equal else "DISAGREE"
            print(f"  item 3, i={i}, j={j}:  left dim {rep.left_dim:2d}"
                  f"  right dim {rep.right_dim:2d}  -> {status}")

print()
print("=" * 64)
print("Part 2: the exponent criterion for cyclic direct factors")
print("=" * 64)
print("""
G has a cyclic direct factor of order p^i exactly when a certain group of
units inside a quotient of F_pG reaches exponent p^i.  The point is that
the right-hand side never mentions a candidate subgroup: it is read off
from the algebra alone.  We cross-check against a brute-force search over
the subgroup lattice.
""")

for name in NAMES:
    G = catalog_by_name(name)
    smax = max(1, round(math.log(G.exponent(), G.p)))
    for i in range(1, smax + 1):
        has, exponent = cyclic_factor_test(G, i)
        oracle = G.p ** i in cyclic_factor_orders(G)
        mark = "ok" if has == oracle else "MISMATCH"
        verdict = "yes" if has else "no"
        print(f"{name:8s} cyclic factor of order {G.p ** i:2d}?  {verdict:3s}"
              f"  (unit exponent {exponent}, oracle agrees: {mark})")

print("""
Note how D8 and Q8 answer 'no' at every order: neither has any cyclic
direct factor, even though both have plenty of cyclic subgroups.  C2xC4
answers 'yes' for order 2 and order 4, matching its visible coordinates.
""")
