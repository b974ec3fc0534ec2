"""From a tensor factorization of F_pG back to a direct product of groups.

Start with G = A x G0 where A = C2 x C4 and G0 = Q8.  The group algebra
splits as F_2G = B (x) C with B = F_2A and C = F_2G0, and we hand the
machinery only the two subalgebras as subspaces, not the coordinates they
came from.  The decomposition engine must rediscover a pair of normal
subgroups realizing the split, with the abelian factor matching A up to
isomorphism.

Run:  python3 demos/recover_a_product.py
"""

from pgroupalg import (AlgebraContext, abelian_invariants, catalog_build,
                       catalog_by_name, group_algebra_subalgebra,
                       recover_decomposition, subgroup_to_pgroup,
                       unit_exponent_commutative, verify_tensor_factorization)

A = catalog_by_name("C2xC4")
G0 = catalog_by_name("Q8")
G = catalog_build("direct_product", A, G0)
print(f"G = {A.name} x {G0.name},  |G| = {G.order},  p = {G.p}")

ctx = AlgebraContext(G)

# the two coordinate subalgebras, presented only as spans of group elements
B = group_algebra_subalgebra(ctx, [a * G0.order for a in range(A.order)])
C = group_algebra_subalgebra(ctx, list(range(G0.order)))
print(f"B: dim {B.dim}, commutative: {B.is_commutative()},"
      f" unit exponent {unit_exponent_commutative(ctx, B.aug_ideal)}")
print(f"C: dim {C.dim}, commutative: {C.is_commutative()}")

# step 1: certify that F_2G = B (x) C really is a tensor factorization
fact = verify_tensor_factorization(ctx, B, C)
print(f"\nfactorization verified; checks passed: {', '.join(fact.checks)}")

# step 2: recover normal subgroups of G realizing the factorization
rep = recover_decomposition(fact, seed=0)
print(f"\nrecovered internal direct product, verified: {rep.verified}")
print(f"B-side subgroup: order {rep.b_side.order},"
      f" invariants {rep.b_invariants}")
Cp, _ = subgroup_to_pgroup(rep.c_side)
print(f"C-side subgroup: order {rep.c_side.order},"
      f" abelian: {Cp.is_abelian()}")

for step in rep.steps:
    print(f"  peel step at depth {step['depth']}: split off a cyclic factor"
          f" of order {G.p ** step['s']} inside a group of order"
          f" {step['group_order']}")

expected = abelian_invariants(A)
print(f"\nexpected invariants of A: {expected}")
assert rep.b_invariants == expected
assert rep.c_side.order == G0.order
print("round trip successful: the recovered factors match A and G0.")
