"""Constructive decomposition machinery.

Implements the power map between filtration quotients whose kernel locates
homocyclic direct factors, the cyclic splitting step, recovery of a group
direct decomposition from a tensor factorization with a commutative factor,
and tensor-indecomposability certificates.  _split_along checks
F_pG = xF_pG ⊕ F_pG_0 for both the cyclic split and each recovery level.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import (AlgebraContext, AugmentedSubalgebra, frobenius_chain,
                      frobenius_mod_derived, ideal_generated,
                      normal_subgroup_ideal)
from .fplin import FpError, FpSubspace, QuotientSpace, matmul_mod, nullspace, span
from .groups import (ORACLE_CAP, PGroup, RetractionError, Subgroup,
                     _check_oracle_cap, _direct_pairs, abelian_invariants,
                     agemo_derived, characteristic_subgroup, full_subgroup,
                     invariants_from_counts, is_internal_direct_product,
                     omega_center_derived, retraction_complement,
                     subgroup_to_pgroup, trivial_subgroup)
from .lemmas import (TensorFactorizationInput, VerificationError,
                     verify_tensor_factorization)

# Largest product formed at once while streaming units, in entries (1 MB)
_UNIT_ENTRIES = 1 << 17


@dataclass
class LambdaData:
    """The p^{s-1}-power map Lambda from the domain quotient
    (Omega_s(Z(G))G' ideal + I(G)^2) / I(G)^2 to F_pG / codomain, where
    codomain is I(G)^{p^{s-1}+1} + I(mho_s(G)G')F_pG.

    A class modulo the codomain is its RREF residual codomain.reduce(v):
    images[i] is the class of domain.section[i]^{p^{s-1}}."""

    s: int
    domain: QuotientSpace
    codomain: FpSubspace
    images: np.ndarray
    kernel: FpSubspace  # inside the span of the domain section


def lambda_map(G: PGroup, s: int) -> LambdaData:
    """Build the map z + I(G)^2 -> z^{p^{s-1}} between the two filtration
    quotients, with an exact well-definedness check.

    U_cod contains I(G')F_pG, modulo which F_pG is commutative, so
    z -> z^{p^{s-1}} is additive modulo U_cod.  The map is therefore well
    defined on z + I(G)^2 exactly when every basis vector of I(G)^2 has its
    p^{s-1}-th power in U_cod; both sets of powers are gathered by
    frobenius_mod_derived, exact modulo U_cod."""
    p = G.p
    if s < 1 or p ** s > G.exponent():
        raise ValueError(f"lambda_map requires 1 <= p^s <= exp(G), got s={s}")
    ctx = AlgebraContext.of(G)
    I2 = ctx.augmentation_power(2)
    q = p ** (s - 1)
    W_dom = ctx.plus_power(
        normal_subgroup_ideal(ctx, omega_center_derived(G, s)), 2)
    domain = QuotientSpace(W_dom, I2)
    U_cod = ctx.plus_power(
        normal_subgroup_ideal(ctx, agemo_derived(G, s)), q + 1)
    if U_cod.reduce(frobenius_mod_derived(ctx, I2.basis, q)).any():
        raise VerificationError(
            "lambda-well-defined",
            "an I(G)^2 basis vector has its p^{s-1}-th power outside "
            "I(G)^{p^{s-1}+1} + I(mho_s(G)G')F_pG")
    images = U_cod.reduce(frobenius_mod_derived(ctx, domain.section, q))
    coeffs = nullspace(images.T, p)  # c with c @ images = 0
    kernel = FpSubspace(p, G.order, coeffs @ domain.section % p)
    return LambdaData(s, domain, U_cod, images, kernel)


def _split_along(ctx: AlgebraContext, x, G0: Subgroup, check: str,
                 message: str) -> QuotientSpace:
    """F_pG / J with the section F_pG_0, for J = xF_pG with x central;
    raises VerificationError(check, message) unless F_pG = J ⊕ F_pG_0.

    The quotient's section check is the test: with dim J = |G| - |G_0|,
    the unit rows of G_0 are independent modulo J iff J + F_pG_0 = F_pG."""
    n = ctx.dim
    J = ideal_generated(ctx, span(ctx.p, n, [x]))
    span_G0 = FpSubspace._from_rref(ctx.p, n, np.eye(  # sorted unit rows
        n, dtype=np.int64)[list(G0.elements)], G0.elements)
    try:
        return QuotientSpace(ctx.full_space(), J, section=span_G0)
    except FpError as exc:
        raise VerificationError(check, message) from exc


def split_cyclic(G: PGroup, h: int) -> tuple[Subgroup, Subgroup]:
    """G = <h> x G_0 via a retraction, plus the algebra-level splitting check
    F_pG = J ⊕ F_pG_0 with J the ideal generated by e_h - 1."""
    H = Subgroup.generated(G, (h,))
    G0 = retraction_complement(G, h)
    if not is_internal_direct_product(G, H, G0):
        raise VerificationError("split-cyclic", "not an internal direct product")
    ctx = AlgebraContext.of(G)
    _split_along(ctx, ctx.group_minus_one(h), G0, "split-cyclic-algebra",
                 "F_pG != J + F_pG_0 as a direct sum")
    return H, G0


def _coset_candidates(ctx: AlgebraContext, target) -> list[int]:
    """Group elements g with e_g - 1 congruent to target modulo I(G)^2, in
    ascending order: those where the Jennings functionals of weight < 2,
    the columns F[:, g] - F[:, 0] on e_g - 1, agree with F @ target."""
    F = ctx.jennings_functionals(2)
    chi = (F - F[:, :1] - (F @ (np.asarray(target) % ctx.p))[:, None]) % ctx.p
    return [int(g) for g in np.flatnonzero(~chi.any(axis=0))]


def _find_split_element(G: PGroup, ctx: AlgebraContext, target,
                        s: int) -> tuple[int, Subgroup, Subgroup]:
    """An order-p^s central element h with e_h - 1 = target mod I(G)^2 that
    splits off; candidates scanned in ascending element order."""
    T = G.table
    q = G.p ** s
    rejected = []  # (element, the check it failed)
    for g in _coset_candidates(ctx, target):
        if G.element_order(g) != q:
            rejected.append((g, f"order {G.element_order(g)}"))
            continue
        if not np.array_equal(T[g], T[:, g]):
            rejected.append((g, "not central"))
            continue
        try:
            H, G0 = split_cyclic(G, g)
            return g, H, G0
        except RetractionError:
            rejected.append((g, "retraction"))
        except VerificationError as exc:
            rejected.append((g, exc.check))
    raise VerificationError(
        "order-p^s-lift",
        f"no central order-{q} element in the required Frattini coset splits"
        + "; rejected: " + (", ".join(f"{g} ({why})" for g, why in rejected)
                            or "none"))


def _units_by_order(ctx: AlgebraContext, IB: FpSubspace, frobs: np.ndarray):
    """Yield the units 1 + c @ IB of the highest order, p^len(frobs), as
    rows in byte order, formed one chunk of coefficient rows c at a time.

    IB is commutative, so (c @ IB)^{p^k} = c @ frobs[k], and the unit has
    the highest order iff c @ frobs[-1] != 0: one product with frobs[0] =
    IB and frobs[-1] gives a chunk's units and that test.  IB is in
    canonical RREF with pivots pi_1 < ... < pi_d, so the unit holds c_i at
    column pi_i (plus 1 at column 0), and every column left of pi_i depends
    only on c_1, ..., c_{i-1}: the byte order of the units is the counting
    order of ((c_1 + [pi_1 = 0]) mod p, c_2, ..., c_d).
    """
    p, n, d = ctx.p, ctx.dim, IB.dim
    step = max(1, _UNIT_ENTRIES // (2 * n))
    shift = int(IB.pivots[0] == 0)
    total = p ** d
    # a p^j past int64 exceeds every count, whose digit j is then 0 anyway
    digits = np.array([min(p ** j, 2 ** 63 - 1) for j in range(d - 1, -1, -1)])
    for k in range(0, total, step):
        c = np.arange(k, min(k + step, total))[:, None] // digits % p
        c[:, 0] = (c[:, 0] - shift) % p
        units, top = matmul_mod(c, frobs[[0, -1]], p)
        U = units[top.any(axis=1)]
        U[:, 0] = (U[:, 0] + 1) % p
        yield from U


def find_group_basis_commutative(B: AugmentedSubalgebra, *,
                                 frobs: np.ndarray | None = None
                                 ) -> list[np.ndarray]:
    """Units generating a group basis of a commutative augmented subalgebra
    B, the first of the highest order, found by linear algebra.

    Read the invariants p^{e_1} >= ... >= p^{e_r} off Frobenius, and let
    K_e = ker(x -> x^{p^e}) on I(B), linear as B is commutative.  Units
    with u_i - 1 in K_{e_i}, independent modulo I(B)^2, generate B as an
    algebra when r = dim I(B)/I(B)^2 (Nakayama; Passman, The Algebraic
    Structure of Group Rings, 1977); their group, of order at least dim B
    and at most p^{e_1 + ... + e_r}, is then a group basis if these agree.
    The first unit is the byte-least u of order p^{e_1}, u - 1 outside
    I(B)^2, that meets Hall's condition in (I/I^2)/<u - 1>: for each
    e = e_i, i > 1, dim(K_e + I^2 + <u-1>) - dim(I^2 + <u-1>) >=
    #{i > 1 : e_i <= e}.  The rest are 1 + x_i, x_i in K_{e_i}, taken
    greedily, smallest e first.  Invariants that admit no group basis fail
    group-basis before any unit is formed.  frobs, when given, is
    frobenius_chain(B.ctx, B.aug_ideal.basis)."""
    ctx, p = B.ctx, B.ctx.p
    if not B.commutative:
        raise VerificationError("group-basis", "B is not commutative")
    if B.dim == 1:
        return []
    IB = B.aug_ideal
    if frobs is None:
        frobs = frobenius_chain(ctx, IB.basis)
    # subspaces of I(B) in the coordinates c of c @ IB, its pivot entries
    d, piv = IB.dim, list(IB.pivots)
    sq = FpSubspace(p, d, B.aug_square.basis[:, piv])
    es = [round(math.log(q, p)) for q in _frobenius_invariants(ctx, frobs)]
    rest = es[1:]
    kernels = {e: nullspace(frobs[e].T, p) if e < len(frobs)
               else np.eye(d, dtype=np.int64) for e in set(rest)}
    # Hall's condition for u reads room[e] >= [c in W_e], W_e = K_e + I^2;
    # room >= 0, Hall's condition on I/I^2, makes some unit pass
    walls = {e: FpSubspace(p, d, np.concatenate([sq.basis, K]))
             for e, K in kernels.items()}
    room = {e: W.dim - sq.dim - sum(f <= e for f in rest)
            for e, W in walls.items()}
    if len(es) != d - sq.dim or p ** sum(es) != B.dim or \
            es[0] != len(frobs) or min(room.values(), default=0) < 0:
        raise VerificationError(
            "group-basis", f"the Frobenius invariants p^{es} admit no group "
            f"basis of B, of dimension {B.dim} on {d - sq.dim} generators")
    for u in _units_by_order(ctx, IB, frobs):
        c = (u - ctx.one)[piv] % p
        if not sq.contains_vector(c) and all(
                room[e] >= W.contains_vector(c) for e, W in walls.items()):
            break
    else:
        raise VerificationError("group-basis", "no unit of the highest "
                                "order extends to a group basis")
    S, units = FpSubspace(p, d, np.vstack([sq.basis, c])), [u]
    for e in sorted(rest):
        x = next(x for x in kernels[e] if not S.contains_vector(x))
        S = FpSubspace(p, d, np.vstack([S.basis, x]))
        units.append((ctx.one + x @ IB.basis) % p)
    return units


def _frobenius_invariants(ctx: AlgebraContext,
                          frobs: np.ndarray) -> tuple[int, ...]:
    """The invariants of A, descending, for commutative B = F_pA whose
    augmentation ideal IB has frobs = frobenius_chain(ctx, IB.basis), read
    off Frobenius (Deskins, Duke Math. J. 23, 1956): x -> x^{p^k} maps I(B)
    onto I(F_p[A^{p^k}]), so |A^{p^k}| = 1 + rank IB^{p^k}, and A has
    log_p |A^{p^k} : A^{p^{k+1}}| cyclic factors of order above p^k."""
    logs = [round(math.log(1 + FpSubspace(ctx.p, ctx.dim, rows).dim, ctx.p))
            for rows in frobs] + [0]
    return invariants_from_counts(ctx.p,
                                  [a - b for a, b in zip(logs, logs[1:])])


@dataclass
class DecompositionReport:
    """Verified internal decomposition G = B-side x C-side with evidence."""

    b_side: Subgroup
    c_side: Subgroup
    verified: bool
    b_invariants: tuple
    steps: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "b_side": [int(x) for x in self.b_side.elements],
            "c_side": [int(x) for x in self.c_side.elements],
            "verified": self.verified,
            "b_invariants": [int(x) for x in self.b_invariants],
            "steps": self.steps,
        }


def recover_decomposition(fact: TensorFactorizationInput) -> DecompositionReport:
    """Recover G = B-side x C-side from a verified tensor factorization with
    commutative B, peeling one maximal-order cyclic factor per level."""
    if not fact.verified:
        raise VerificationError("unverified", "factorization was not verified")
    if not fact.B.commutative:
        raise VerificationError("B-commutative", "B must be commutative")
    G = fact.ctx.group
    p = G.p
    # one Frobenius chain of I(B) serves the first group basis and the
    # invariants of A with B = F_pA, for the final check
    frobs = frobenius_chain(fact.B.ctx, fact.B.aug_ideal.basis)
    b_group_invs = _frobenius_invariants(fact.B.ctx, frobs)

    hs: list[int] = []
    steps: list[dict] = []
    cur_fact = fact
    cur_embed = list(range(G.order))
    depth = 0
    while cur_fact.B.dim > 1:
        ctx = cur_fact.ctx
        cur_G = ctx.group
        # the first unit has the highest multiplicative order, p^s
        b = find_group_basis_commutative(
            cur_fact.B, frobs=frobs if depth == 0 else None)[0]
        b_minus_1 = (b - ctx.one) % p
        chain = frobenius_chain(ctx, b_minus_1)  # (b-1)^{p^k}, k < s
        s = len(chain)
        lam = lambda_map(cur_G, s)
        # Jennings non-membership: (b-1)^{p^{s-1}} stays outside Lambda's
        # codomain ideal I(G)^{p^{s-1}+1} + I(mho_s(G)G')kG
        if lam.codomain.contains_vector(chain[-1][0]):
            raise VerificationError(
                "jennings-nonmembership",
                "(b-1)^{p^{s-1}} fell into the excluded ideal")
        # the class of b-1 lies outside ker Lambda, so it extends to the
        # complement V of ker Lambda in the proof (the h-search uses it)
        rep_b = lam.domain.lift(lam.domain.project(b_minus_1))
        if lam.kernel.contains_vector(rep_b):
            raise VerificationError(
                "kernel-exclusion", "class of b-1 lies in ker Lambda")
        h, H, G0 = _find_split_element(cur_G, ctx, b_minus_1, s)
        hs.append(cur_embed[h])
        steps.append({"depth": depth, "s": s, "h": cur_embed[h],
                      "group_order": cur_G.order})
        # project both factors along J = (b-1)F_pG onto F_pG_0 and recurse
        qs = _split_along(ctx, b_minus_1, G0, "theorem-splitting",
                          "F_pG != (b-1)F_pG + F_pG_0")
        G0p, g0_elems = subgroup_to_pgroup(G0)
        ctx0 = AlgebraContext.of(G0p)
        B0, C0 = (AugmentedSubalgebra.from_space(ctx0, FpSubspace(
            p, G0p.order, qs.project(X.space.basis)))
            for X in (cur_fact.B, cur_fact.C))
        cur_fact = verify_tensor_factorization(ctx0, B0, C0)
        cur_embed = [cur_embed[e] for e in g0_elems]
        depth += 1

    b_side = Subgroup.generated(G, hs) if hs else trivial_subgroup(G)
    c_side = Subgroup(G, tuple(cur_embed))
    verified = is_internal_direct_product(G, b_side, c_side)
    if not verified:
        raise VerificationError("final-direct-product",
                                "B-side x C-side is not G")
    invs = abelian_invariants(b_side)
    if invs != b_group_invs:
        raise VerificationError(
            "b-side-invariants",
            f"B-side invariants {invs} != group basis invariants {b_group_invs}")
    return DecompositionReport(b_side, c_side, True, invs, steps)


@dataclass(frozen=True)
class Certificate:
    """Tensor-indecomposability certificate for a nonabelian p-group."""

    kind: str  # three_generated | cyclic_derived | none
    directly_indecomposable: bool
    min_generators: int
    derived_cyclic: bool
    note: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def certify_indecomposable(G: PGroup, oracle_cap: int = ORACLE_CAP) -> Certificate:
    """Certify that F_pG admits no nontrivial tensor factorization.

    Issued only for nonabelian, directly indecomposable G with d(G) <= 3 or
    cyclic derived subgroup; the commutative case is settled separately and
    does not receive a certificate here.
    """
    _check_oracle_cap(G, oracle_cap)
    # indecomposable iff the oracle's pair stream is empty: stop at a pair
    indec = next(_direct_pairs(full_subgroup(G)), None) is None
    ctx = AlgebraContext.of(G)
    d = ctx.augmentation_ideal().dim - ctx.augmentation_power(2).dim
    frattini = characteristic_subgroup(G, "frattini")
    if G.p ** d * frattini.order != G.order:
        raise VerificationError(
            "frattini-rank", "dim I/I^2 disagrees with |G/Phi(G)|")
    derived_cyclic = characteristic_subgroup(G, "derived").is_cyclic()
    if G.is_abelian():
        return Certificate("none", indec, d, derived_cyclic,
                           note="abelian: outside certificate scope")
    if indec and d <= 3:
        return Certificate("three_generated", True, d, derived_cyclic)
    if indec and derived_cyclic:
        return Certificate("cyclic_derived", True, d, derived_cyclic)
    return Certificate("none", indec, d, derived_cyclic)
