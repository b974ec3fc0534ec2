"""Executable verifiers for the ideal identities and the cyclic-factor
criterion.

Left sides are always computed group-theoretically (normal subgroup ideals)
and right sides algebra-theoretically, through independent code paths, so
reported equality is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (AlgebraContext, AugmentedSubalgebra, VerificationError,
                      mho_ideal_mod_derived, normal_subgroup_ideal,
                      omega_central_ideal, tables_commute,
                      unit_exponent_commutative)
from .fplin import FpSubspace, matmul_mod, rref
from .groups import (PGroup, Subgroup, abelian_invariants, agemo_derived,
                     characteristic_subgroup, memoized, omega_center_derived,
                     r_subquotient)


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    left_dim: int
    right_dim: int
    equal: bool
    witness: list | None = None

    def to_json(self) -> dict:
        return {
            "id": self.identity_id,
            "left_dim": self.left_dim,
            "right_dim": self.right_dim,
            "equal": self.equal,
            "witness": self.witness,
        }


def _compare(identity_id: str, left: FpSubspace, right: FpSubspace) -> IdentityReport:
    """The report, with the first basis row of left outside right, or else
    of right outside left, as witness when the two differ."""
    equal = left == right
    witness = None if equal else next(
        [int(x) for x in row] for X, Y in ((left, right), (right, left))
        for row in X.basis if not Y.contains_vector(row))
    return IdentityReport(identity_id, left.dim, right.dim, equal, witness)


@memoized
def _ideal_sum(ctx: AlgebraContext, X: FpSubspace, Y: FpSubspace) -> FpSubspace:
    """X + Y, memoized on ctx by content, as lemma right sides repeat in i
    and j; X or Y itself, with no elimination, when it holds the other."""
    return X if X.contains(Y) else Y if Y.contains(X) else X + Y


def lemma_identity_check(G: PGroup, item: int, i: int = 1, j: int = 1) -> IdentityReport:
    """Check one of the three ideal identities relating characteristic
    subgroups of G to Omega/mho constructions inside F_pG."""
    ctx = AlgebraContext.of(G)
    if item == 1:
        left = normal_subgroup_ideal(ctx, agemo_derived(G, i))
        right = mho_ideal_mod_derived(ctx, i)
        return _compare("lemma1", left, right)
    if item == 2:
        left = normal_subgroup_ideal(ctx, omega_center_derived(G, i))
        derived = characteristic_subgroup(G, "derived")
        right = _ideal_sum(ctx, omega_central_ideal(ctx, i),
                           normal_subgroup_ideal(ctx, derived))
        return _compare("lemma2", left, right)
    if item == 3:
        N = Subgroup.generated(G, set(omega_center_derived(G, i).elements)
                               | set(agemo_derived(G, j).elements))
        left = normal_subgroup_ideal(ctx, N)
        right = _ideal_sum(ctx, omega_central_ideal(ctx, i),
                           mho_ideal_mod_derived(ctx, j))
        return _compare("lemma3", left, right)
    raise ValueError(f"unknown lemma item {item}")


def cyclic_factor_test(G: PGroup, i: int) -> tuple[bool, int]:
    """Criterion for a cyclic direct factor of order p^i.

    Takes the abelian quotient Q = G/(agemo_i * derived) and the image R
    of Omega_i(Z(G)) inside it from :func:`r_subquotient`, and returns
    (exp(1 + I(R)F_pQ) >= p^i, that exponent).  The exponent is
    cross-checked against exp(R_i(G)), read off R's elements in Q.
    """
    R = r_subquotient(G, i)
    ctxQ = AlgebraContext.of(R.parent)
    ideal = normal_subgroup_ideal(ctxQ, R)
    exponent = unit_exponent_commutative(ctxQ, ideal)
    # proof-of-lemma equality: exp(1 + I(R_i)F_pQ) = exp(R_i(G))
    invs = abelian_invariants(R)
    exp_R = invs[0] if invs else 1
    if exponent != exp_R:
        raise VerificationError(
            "cyclic-factor-exponent",
            f"unit exponent {exponent} != exp(R_i(G)) = {exp_R}")
    return exponent >= G.p ** i, exponent


@dataclass
class TensorFactorizationInput:
    """A verified internal tensor factorization F_pG = B (x) C."""

    ctx: AlgebraContext
    B: AugmentedSubalgebra
    C: AugmentedSubalgebra
    verified: bool = False
    checks: list = field(default_factory=list)


def verify_tensor_factorization(ctx: AlgebraContext,
                                B: AugmentedSubalgebra,
                                C: AugmentedSubalgebra) -> TensorFactorizationInput:
    """Check commuting, dimensions and product span; raise
    VerificationError naming the first failed check.  With B = F_p·1 ⊕
    I(B), C likewise and 1 central, B and C commute iff I(B) and I(C) do.
    That holds with no product when the rows of I(B) or of I(C) are
    central (AlgebraContext.is_central), and it always is for I(B) on an
    input that passes: a commutative B that commutes with C and spans
    F_pG with it commutes with all of F_pG.  Otherwise commuting compares
    Y_B Y_C with Y_C Y_B for the generators each factor carries: B =
    alg(Y_B) and C = alg(Y_C), so B and C commute iff Y_B and Y_C do.
    Then span BC is a subalgebra holding I(B) + I(C), so it is F_pG iff
    I(B) + I(C) + I(G)^2 = I(G) (Nakayama): product-span is rank d of the
    weight-1 Jennings coordinates of I(B) and I(C), and the table
    I(B)I(C) is formed only for the message of a failure.  That makes
    I(G) = I(B) + I(C) + I(B)I(C) direct with no check of its own:
    dimensions (b-1) + (c-1) + (b-1)(c-1) = bc - 1 = |G| - 1 at most."""
    IB, IC = B.aug_ideal, C.aug_ideal
    YB, YC = B.generators, C.generators
    if not (ctx.is_central(IB.basis) or ctx.is_central(IC.basis)
            or tables_commute(ctx.products(YB, YC), ctx.products(YC, YB),
                              len(YB), len(YC))):
        raise VerificationError("commuting",
                                "B and C do not commute elementwise")
    if B.dim * C.dim != ctx.dim:
        raise VerificationError(
            "dimension-product", f"{B.dim} * {C.dim} != {ctx.dim}")
    # with F_p·1 as one factor, dimension-product makes the other F_pG
    if IB.dim and IC.dim:
        F, gens = ctx.jennings_functionals(2), np.vstack([IB.basis, IC.basis])
        if len(rref(matmul_mod(F, gens.T, ctx.p), ctx.p)[1]) != len(F) - 1:
            bc = ctx.products(IB.basis, IC.basis)
            total = FpSubspace(ctx.p, ctx.dim, np.vstack([gens, bc]))
            raise VerificationError("product-span", "span of products has "
                                    f"dim {1 + total.dim} != {ctx.dim}")
    return TensorFactorizationInput(ctx, B, C, verified=True, checks=[
        "commuting", "dimension-product", "product-span"])
