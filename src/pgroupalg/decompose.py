"""Constructive decomposition machinery.

Implements the power map between filtration quotients whose kernel locates
homocyclic direct factors, the cyclic splitting step, recovery of a group
direct decomposition from a tensor factorization with a commutative factor,
and tensor-indecomposability certificates.

Recovery checks each fact of the proof once, and forms no product.  The
subalgebra and factorization checks run on the input alone; each level
carries B alone, checks only dimension-product, which implies the
factorization it projects to (recover_decomposition), and reads I(B)^2 off
the weight-1 Jennings coordinates (_aug_square).  Lambda is well defined
with no check (lambda_map), and b - 1 lies outside its kernel with no
check, as the split element h proves (recover_decomposition).  The split
G = <h> x G_0 is the retraction's kernel, with no <h> formed, which also
gives F_pG = I(<h>)F_pG ⊕ F_pG_0 (split_cyclic); only F_pG = (b - 1)F_pG
⊕ F_pG_0, for the unit b, is checked in the algebra, by the one
elimination of |G| rows that projects onto F_pG_0 (_project_along).
Closures and derived tables are not checked again (groups).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import (AlgebraContext, AugmentedSubalgebra, augmentation_part,
                      normal_subgroup_ideal)
from .fplin import FpSubspace, matmul_mod, nullspace, rref
from .groups import (ORACLE_CAP, PGroup, RetractionError, Subgroup,
                     _check_oracle_cap, _direct_pairs, abelian_invariants,
                     agemo_derived, characteristic_subgroup, full_subgroup,
                     is_internal_direct_product, jennings_basis,
                     retraction_complement, subgroup_to_pgroup)
from .lemmas import TensorFactorizationInput, VerificationError

# Largest product formed at once while streaming units, in entries (1 MB)
_UNIT_ENTRIES = 1 << 17
# Coefficient rows of the first chunk of units; later chunks double up to
# the _UNIT_ENTRIES cap, as the first unit formed has always been taken
_UNIT_FIRST_ROWS = 64


def lambda_map(G: PGroup, s: int) -> FpSubspace:
    """The codomain ideal U = X + I(G)^{q+1}, X = I(mho_s(G)G')F_pG,
    q = p^{s-1}, of the map Lambda: z + I(G)^2 -> z^q + U, as a subspace
    of F_pG.  Lambda is well defined with no check: z in I(G)^2 has z^q in
    I(G)^{2q}, inside I(G)^{q+1}, and U holds I(G')F_pG, modulo which F_pG
    is commutative of characteristic p, so z -> z^q is additive modulo U.
    No library path reads U: a recovery level's split element proves b - 1
    outside ker Lambda (recover_decomposition)."""
    if s < 1 or G.p ** s > G.exponent():
        raise ValueError(f"lambda_map requires 1 <= p^s <= exp(G), got s={s}")
    ctx = AlgebraContext.of(G)
    return ctx.plus_power(normal_subgroup_ideal(ctx, agemo_derived(G, s)),
                          G.p ** (s - 1) + 1)


def split_cyclic(G: PGroup, h: int) -> tuple[Subgroup, Subgroup]:
    """G = <h> x G_0 for a central h, with G_0 = retraction_complement(G, h).

    It checks nothing, as retraction_complement proves that its kernel G_0
    is a complement of the central <h>, so G = <h> x G_0.  The algebra
    split follows: I(<h>)F_pG is the kernel of F_pG -> F_p[G/<h>], and
    F_pG_0 maps isomorphically onto F_p[G/<h>], so F_pG = I(<h>)F_pG ⊕
    F_pG_0.  Raises as retraction_complement does, before <h> is formed:
    GroupError unless h is an element of G and central, RetractionError
    when h has no retraction.  Recovery reads G_0 alone
    (_find_split_element)."""
    G0 = retraction_complement(G, h)
    return Subgroup.generated(G, (h,)), G0


def _coset_candidates(ctx: AlgebraContext, target) -> list[int]:
    """Group elements g with e_g - 1 congruent to target modulo I(G)^2, in
    ascending order: those where the Jennings functionals of weight < 2,
    the columns F[:, g] - F[:, 0] on e_g - 1, agree with F @ target."""
    F = ctx.jennings_functionals(2)
    chi = (F - F[:, :1] - (F @ (np.asarray(target) % ctx.p))[:, None]) % ctx.p
    return [int(g) for g in np.flatnonzero(~chi.any(axis=0))]


def _find_split_element(G: PGroup, ctx: AlgebraContext, target,
                        s: int) -> tuple[int, Subgroup]:
    """(h, G_0) for the first order-p^s central element h, in ascending
    element order, with e_h - 1 = target mod I(G)^2 that splits off:
    G = <h> x G_0, G_0 = retraction_complement(G, h), as split_cyclic
    proves, with no <h> formed."""
    q, centre = G.p ** s, characteristic_subgroup(G, "center").elements
    rejected = []  # (element, the check it failed)
    for g in _coset_candidates(ctx, target):
        if G.element_order(g) != q:
            rejected.append((g, f"order {G.element_order(g)}"))
            continue
        if g not in centre:
            rejected.append((g, "not central"))
            continue
        try:
            return g, retraction_complement(G, g)
        except RetractionError:
            rejected.append((g, "retraction"))
    raise VerificationError(
        "order-p^s-lift",
        f"no central order-{q} element in the required Frattini coset splits"
        + "; rejected: " + (", ".join(f"{g} ({why})" for g, why in rejected)
                            or "none"))


def _project_along(ctx: AlgebraContext, b_minus_1: np.ndarray, G0: Subgroup,
                   X: np.ndarray) -> np.ndarray:
    """The rows of X projected along J = (b - 1)F_pG onto F_pG_0, in G_0's
    sorted coordinates, by one RREF of the translates e_g(b - 1), which
    span J as b is central, with G_0's columns last: F_pG = J ⊕ F_pG_0
    iff it is [I | M], and then pi(v) = v[G_0] - v[G - G_0] M."""
    p, inside = ctx.p, np.asarray(G0.elements)
    outside = np.delete(np.arange(ctx.dim), inside)
    R, pivots = rref(ctx.left_translates(b_minus_1[None])[
        :, np.concatenate([outside, inside])], p)
    if pivots != tuple(range(len(outside))):
        raise VerificationError("theorem-splitting",
                                "F_pG != (b-1)F_pG + F_pG_0")
    return (X[:, inside] - matmul_mod(X[:, outside], R[:, len(outside):],
                                      p)) % p


def _units_by_order(ctx: AlgebraContext, IB: FpSubspace, frobs: np.ndarray):
    """Yield the units 1 + c @ IB of the highest order, p^len(frobs), as
    rows in byte order, formed one chunk of coefficient rows c at a time:
    _UNIT_FIRST_ROWS rows first, each later chunk twice the last, up to
    _UNIT_ENTRIES entries.  The search reads the first unit or few, so a
    small first chunk forms no more than it needs; the order does not
    depend on the chunks.

    IB is commutative, so (c @ IB)^{p^k} = c @ frobs[k], and the unit has
    the highest order iff c @ frobs[-1] != 0: one product with frobs[0] =
    IB and frobs[-1] gives a chunk's units and that test.  IB is in
    canonical RREF with pivots pi_1 < ... < pi_d, so the unit holds c_i at
    column pi_i (plus 1 at column 0), and every column left of pi_i depends
    only on c_1, ..., c_{i-1}: the byte order of the units is the counting
    order of ((c_1 + [pi_1 = 0]) mod p, c_2, ..., c_d).
    """
    p, n, d = ctx.p, ctx.dim, IB.dim
    cap = max(1, _UNIT_ENTRIES // (2 * n))
    step = min(_UNIT_FIRST_ROWS, cap)
    shift = int(IB.pivots[0] == 0)
    total = p ** d
    # a p^j past int64 exceeds every count, whose digit j is then 0 anyway
    digits = np.array([min(p ** j, 2 ** 63 - 1) for j in range(d - 1, -1, -1)])
    k = 0
    while k < total:
        c = np.arange(k, min(k + step, total))[:, None] // digits % p
        c[:, 0] = (c[:, 0] - shift) % p
        units, top = matmul_mod(c, frobs[[0, -1]], p)
        U = units[top.any(axis=1)]
        U[:, 0] = (U[:, 0] + 1) % p
        yield from U
        k, step = k + step, min(2 * step, cap)


def _aug_square(ctx: AlgebraContext, IB: FpSubspace) -> FpSubspace:
    """I(B)^2 for the factor B of F_pG = B ⊗ C, in coordinates c of
    c @ IB, IB = I(B), with no product: I(G)^2 = I(B)^2 + I(C)^2 +
    I(B)I(C), the last two in B·I(C), and F_pG = B ⊕ B·I(C), so I(B)^2 is
    the kernel on I(B) of the weight-1 Jennings functionals (not so for B
    alone: B = span{1, g^2} in F_2[C4]).  The input's factorization is
    verified; a recovery level's, F_pG_0 = pi(B) ⊗ pi(C), holds once
    dimension-product does, with no C built (recover_decomposition)."""
    return FpSubspace.kernel(
        ctx.p, matmul_mod(ctx.jennings_functionals(2), IB.basis.T, ctx.p))


def find_group_basis_commutative(B: AugmentedSubalgebra) -> list[np.ndarray]:
    """Units generating a group basis of a commutative augmented subalgebra
    B, the first of the highest order, found by linear algebra.  B is the
    commutative factor of a verified F_pG = B ⊗ C, as at every recovery
    level, so that _aug_square reads I(B)^2 with no product.

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
    group-basis before any unit is formed."""
    ctx, p = B.ctx, B.ctx.p
    if not B.commutative:
        raise VerificationError("group-basis", "B is not commutative")
    if B.dim == 1:
        return []
    IB, frobs = B.aug_ideal, B.frobs
    # subspaces of I(B) in the coordinates c of c @ IB, its pivot entries
    d, piv = IB.dim, list(IB.pivots)
    square = _aug_square(ctx, IB)
    es = [round(math.log(q, p)) for q in B.invariants]
    rest = es[1:]
    kernels = {e: nullspace(frobs[e].T, p) if e < len(frobs)
               else np.eye(d, dtype=np.int64) for e in set(rest)}
    # Hall's condition for u reads room[e] >= [c in W_e], W_e = K_e + I^2;
    # room >= 0, Hall's condition on I/I^2, makes some unit pass
    walls = {e: FpSubspace(p, d, np.concatenate([square.basis, K]))
             for e, K in kernels.items()}
    room = {e: W.dim - square.dim - sum(f <= e for f in rest)
            for e, W in walls.items()}
    if len(es) != d - square.dim or p ** sum(es) != B.dim or \
            es[0] != len(frobs) or min(room.values(), default=0) < 0:
        raise VerificationError(
            "group-basis", f"the Frobenius invariants p^{es} admit no group "
            f"basis of B, of dimension {B.dim} on {d - square.dim} generators")
    for u in _units_by_order(ctx, IB, frobs):
        c = (u - ctx.one)[piv] % p
        if not square.contains_vector(c) and all(
                room[e] >= W.contains_vector(c) for e, W in walls.items()):
            break
    else:
        raise VerificationError("group-basis", "no unit of the highest "
                                "order extends to a group basis")
    S, units = FpSubspace(p, d, np.vstack([square.basis, c])), [u]
    for e in sorted(rest):
        x = next(x for x in kernels[e] if not S.contains_vector(x))
        S = FpSubspace(p, d, np.vstack([S.basis, x]))
        units.append((ctx.one + x @ IB.basis) % p)
    return units


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
    commutative B, peeling one maximal-order cyclic factor per level.

    A level carries B alone and checks only dim pi(B) * p^s = dim B.  With
    F_pG = J ⊕ F_pG_0, J = (b - 1)F_pG a two-sided ideal and F_pG_0 a
    subalgebra, the projection pi along J onto F_pG_0 is an algebra map
    onto F_pG_0.  So pi(B) and pi(C) are unital, closed, commute and span
    F_pG_0, and B_0 = pi(B) is commutative: subalgebra-unit,
    subalgebra-closure, commuting and product-span hold with no check, and
    dim pi(B) dim pi(C) >= |G_0| = |G| / p^s.  As dim pi(C) <= dim C =
    |G| / dim B, dim pi(B) = dim B / p^s forces dim pi(B) dim pi(C) =
    |G_0|, the factorization F_pG_0 = pi(B) ⊗ pi(C) that _aug_square
    reads the next level's I(B)^2 by; pi(C) is never formed.  Hall's
    condition on b, which the group-basis search checks, puts b in a group
    basis of B, so B ∩ J holds (b - 1)B of dimension dim B - dim B / p^s
    and dim pi(B) <= dim B / p^s: the check agrees with dim pi(B) dim pi(C)
    = |G_0| on every b the search returns.

    b - 1 lies outside ker Lambda (lambda_map) with no check: the split
    gives h of order p^s, G = <h> x G_0, e_h - 1 = b - 1 mod I(G)^2, so
    Lambda(b - 1 + I(G)^2) = e_{h^q} - 1 + U, q = p^{s-1}, which lies in U
    iff h^q N lies in D_{q+1}(G/N), N = mho_s(G)G' (Jennings, Trans. AMS
    50, 1941).  N lies in G_0, so G/N = <h> x G_0/N, whose D_{q+1} is
    D_{q+1}(C_{p^s}) x D_{q+1}(G_0/N), with D_{q+1}(C_{p^s}) = 1.  A b with
    b - 1 in ker Lambda has no such h, and fails order-p^s-lift."""
    if not fact.verified:
        raise VerificationError("unverified", "factorization was not verified")
    if not fact.B.commutative:
        raise VerificationError("B-commutative", "B must be commutative")
    G, p = fact.ctx.group, fact.ctx.p
    hs: list[int] = []
    steps: list[dict] = []
    ctx, B = fact.ctx, fact.B
    cur_embed = list(range(G.order))
    depth = 0
    while B.dim > 1:
        b = find_group_basis_commutative(B)[0]
        b_minus_1 = (b - ctx.one) % p
        s = len(B.frobs)  # b, the first unit, has the highest order, p^s
        h, G0 = _find_split_element(ctx.group, ctx, b_minus_1, s)
        hs.append(cur_embed[h])
        steps.append({"depth": depth, "s": s, "h": cur_embed[h],
                      "group_order": ctx.dim})
        V = FpSubspace(p, G0.order,
                       _project_along(ctx, b_minus_1, G0, B.space.basis))
        if V.dim * p ** s != B.dim:
            raise VerificationError(
                "dimension-product", f"{V.dim} * {p ** s} != {B.dim}")
        G0p, g0_elems = subgroup_to_pgroup(G0)
        ctx = AlgebraContext.of(G0p)
        IB = augmentation_part(ctx, V)
        B = AugmentedSubalgebra(ctx, V, IB, True, IB.basis)
        cur_embed = [cur_embed[e] for e in g0_elems]
        depth += 1

    b_side = Subgroup.generated(G, hs)
    c_side = Subgroup(G, tuple(cur_embed))
    verified = is_internal_direct_product(G, b_side, c_side)
    if not verified:
        raise VerificationError("final-direct-product",
                                "B-side x C-side is not G")
    invs = abelian_invariants(b_side)
    if invs != fact.B.invariants:
        raise VerificationError(
            "b-side-invariants", f"B-side invariants {invs} != group basis "
            f"invariants {fact.B.invariants}")
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

    d = dim I/I^2 counts the weight-1 Jennings basis elements, as those of
    weight >= 2 span I(G)^2, so p^d = |G : D_2| = |G : Phi(G)|: D_2 and
    Phi(G) = agemo_derived(G, 1) are both the closure of all commutators
    and p-th powers (groups.jennings_series).
    """
    _check_oracle_cap(G, oracle_cap)
    # indecomposable iff the oracle's pair stream is empty: stop at a pair
    indec = next(_direct_pairs(full_subgroup(G)), None) is None
    d = sum(w == 1 for _, w in jennings_basis(G))
    derived_cyclic = characteristic_subgroup(G, "derived").is_cyclic()
    if G.is_abelian():
        return Certificate("none", indec, d, derived_cyclic,
                           note="abelian: outside certificate scope")
    if indec and d <= 3:
        return Certificate("three_generated", True, d, derived_cyclic)
    if indec and derived_cyclic:
        return Certificate("cyclic_derived", True, d, derived_cyclic)
    return Certificate("none", indec, d, derived_cyclic)
