"""Executable verifiers for the ideal identities and the cyclic-factor
criterion.

Left sides are always computed group-theoretically (normal subgroup ideals)
and right sides algebra-theoretically, through independent code paths, so
reported equality is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import (AlgebraContext, AugmentedSubalgebra, VerificationError,
                      commutator_span, mho_ideal_mod_derived,
                      normal_subgroup_ideal, omega_central_ideal,
                      product_space, unit_exponent_commutative)
from .fplin import FpSubspace
from .groups import (PGroup, Subgroup, abelian_invariants, agemo_derived,
                     characteristic_subgroup, full_subgroup,
                     omega_center_derived, r_subquotient)


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
    equal = left == right
    witness = None
    if not equal:
        for row in left.basis:
            if not right.contains_vector(row):
                witness = [int(x) for x in row]
                break
        if witness is None:
            for row in right.basis:
                if not left.contains_vector(row):
                    witness = [int(x) for x in row]
                    break
    return IdentityReport(identity_id, left.dim, right.dim, equal, witness)


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
        right = omega_central_ideal(ctx, i) + normal_subgroup_ideal(ctx, derived)
        return _compare("lemma2", left, right)
    if item == 3:
        N = Subgroup.generated(G, set(omega_center_derived(G, i).elements)
                               | set(agemo_derived(G, j).elements))
        left = normal_subgroup_ideal(ctx, N)
        right = omega_central_ideal(ctx, i) + mho_ideal_mod_derived(ctx, j)
        return _compare("lemma3", left, right)
    raise ValueError(f"unknown lemma item {item}")


def cyclic_factor_test(G: PGroup, i: int) -> tuple[bool, int]:
    """Criterion for a cyclic direct factor of order p^i.

    Takes the abelian quotient Q = G/(agemo_i * derived) and the image R
    of Omega_i(Z(G)) inside it from :func:`r_subquotient`, and returns
    (exp(1 + I(R)F_pQ) >= p^i, that exponent).  The exponent is
    cross-checked against exp(R_i(G)), read off the group R.
    """
    R, R_sub = r_subquotient(G, i)
    ctxQ = AlgebraContext(R_sub.parent)
    ideal = normal_subgroup_ideal(ctxQ, R_sub)
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
    """Check commuting, dimensions, product span and the direct-sum display
    I(A) = I(B) + I(C) + I(B)I(C); raise VerificationError naming the first
    failed check."""
    checks = []
    if ctx.commutators(B.space.basis, C.space.basis).any():
        raise VerificationError("commuting",
                                "B and C do not commute elementwise")
    checks.append("commuting")
    if B.dim * C.dim != ctx.dim:
        raise VerificationError(
            "dimension-product", f"{B.dim} * {C.dim} != {ctx.dim}")
    checks.append("dimension-product")
    prod = product_space(ctx, B.space, C.space)
    if prod.dim != ctx.dim:
        raise VerificationError(
            "product-span", f"span of products has dim {prod.dim} != {ctx.dim}")
    checks.append("product-span")
    IB, IC = B.aug_ideal, C.aug_ideal
    IBC = product_space(ctx, IB, IC)
    total = IB + IC + IBC
    if not (total == ctx.augmentation_ideal()
            and IB.dim + IC.dim + IBC.dim == ctx.dim - 1):
        raise VerificationError(
            "augmentation-decomposition",
            "I(A) != I(B) + I(C) + I(B)I(C) as a direct sum")
    checks.append("augmentation-decomposition")
    return TensorFactorizationInput(ctx, B, C, verified=True, checks=checks)


def babelian_checks(fact: TensorFactorizationInput, part: str) -> IdentityReport:
    """Verify part (a), (c) or (d) of the commutative-factor proposition."""
    if not fact.verified:
        raise VerificationError("unverified", "factorization was not verified")
    if not fact.B.is_commutative():
        raise VerificationError("B-commutative", "B is not commutative")
    ctx = fact.ctx
    IB, IC = fact.B.aug_ideal, fact.C.aug_ideal
    IBC = product_space(ctx, IB, IC)
    if part == "a":
        full = ctx.full_space()
        left = commutator_span(ctx, full, full)
        cc = commutator_span(ctx, IC, IC)
        right = cc + product_space(ctx, cc, IB)
        report = _compare("prop-a", left, right)
        if report.equal and not (IC + IBC).contains(left):
            raise VerificationError(
                "prop-a-containment", "[kG,kG] not inside I(C) + I(B)I(C)")
        return report
    if part == "c":
        ps = fact.B.unit_exponent()
        s = round(math.log(ps, ctx.p)) if ps > 1 else 0
        if s == 0:
            # mho_0(G) = G, so the left side is all of I(G)
            N = full_subgroup(ctx.group)
        else:
            N = agemo_derived(ctx.group, s)
        left = normal_subgroup_ideal(ctx, N)
        right = IC + IBC
        ok = right.contains(left)
        if not ok:
            raise VerificationError(
                "prop-c", "I(mho_s(G)G')kG not inside I(C) + I(B)I(C)")
        return IdentityReport("prop-c", left.dim, right.dim, True)
    if part == "d":
        ps = fact.B.unit_exponent()
        s = round(math.log(ps, ctx.p)) if ps > 1 else 0
        if s == 0:
            return IdentityReport("prop-d", 0, 0, True)
        has, exponent = cyclic_factor_test(ctx.group, s)
        if not has:
            raise VerificationError(
                "prop-d", f"no cyclic direct factor of order {ps} found")
        return IdentityReport("prop-d", ps, exponent, True)
    raise ValueError(f"unknown proposition part {part!r}")
