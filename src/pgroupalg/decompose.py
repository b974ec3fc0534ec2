"""Constructive decomposition machinery.

Implements the power map between filtration quotients whose kernel locates
homocyclic direct factors, the cyclic splitting step, recovery of a group
direct decomposition from a tensor factorization with a commutative factor,
and tensor-indecomposability certificates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import (AlgebraContext, AugmentedSubalgebra,
                      EnumerationCapExceeded, frobenius_chain, ideal_generated,
                      normal_subgroup_ideal, product_space, unique_rows)
from .fplin import FpError, FpSubspace, QuotientSpace, matmul_mod, nullspace, span
from .groups import (ORACLE_CAP, PGroup, RetractionError, Subgroup,
                     abelian_invariants, agemo_derived,
                     characteristic_subgroup, direct_factor_oracle,
                     invariants_from_counts, is_internal_direct_product,
                     omega_center_derived, retraction_complement,
                     subgroup_to_pgroup, trivial_subgroup)
from .lemmas import (TensorFactorizationInput, VerificationError,
                     verify_tensor_factorization)

# Past ENUM_CAP units of 1 + I(B) the group-basis search samples
# SAMPLED_UNITS coefficient rows instead of enumerating them all.
ENUM_CAP = 2 ** 22
SAMPLED_UNITS = 4096
# Largest product formed at once while ordering units, in entries (1 MB):
# the unit rows themselves are the larger array, so chunks stay small
_UNIT_ENTRIES = 1 << 17


@dataclass
class LambdaData:
    """The p^{s-1}-power map Lambda from the domain quotient
    (Omega_s(Z(G))G' ideal + I(G)^2) / I(G)^2 to F_pG / codomain, where
    codomain is I(G)^{p^{s-1}+1} + I(mho_s(G)G')F_pG.

    A class modulo the codomain is its RREF residual codomain.reduce(v):
    images[i] is the class of domain.section[i]^{p^{s-1}}.
    """

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
    p^{s-1}-th power in U_cod.
    """
    p = G.p
    if s < 1 or p ** s > G.exponent():
        raise ValueError(f"lambda_map requires 1 <= p^s <= exp(G), got s={s}")
    ctx = AlgebraContext.of(G)
    I2 = ctx.augmentation_power(2)
    q = p ** (s - 1)
    W_dom = normal_subgroup_ideal(ctx, omega_center_derived(G, s)) + I2
    domain = QuotientSpace(W_dom, I2)
    U_cod = ctx.augmentation_power(q + 1) + \
        normal_subgroup_ideal(ctx, agemo_derived(G, s))
    if U_cod.reduce(ctx.powers(I2.basis, q)).any():
        raise VerificationError(
            "lambda-well-defined",
            "an I(G)^2 basis vector has its p^{s-1}-th power outside "
            "I(G)^{p^{s-1}+1} + I(mho_s(G)G')F_pG")
    images = U_cod.reduce(ctx.powers(domain.section, q))
    coeffs = nullspace(images.T, p)  # c with c @ images = 0
    kernel = FpSubspace(p, G.order, coeffs @ domain.section % p)
    return LambdaData(s, domain, U_cod, images, kernel)


def split_cyclic(G: PGroup, h: int) -> tuple[Subgroup, Subgroup]:
    """G = <h> x G_0 via a retraction, plus the algebra-level splitting check
    F_pG = J + F_pG_0 with J the ideal generated by e_h - 1."""
    H = Subgroup.generated(G, (h,))
    G0 = retraction_complement(G, h)
    if not is_internal_direct_product(G, H, G0):
        raise VerificationError("split-cyclic", "not an internal direct product")
    ctx = AlgebraContext.of(G)
    J = ideal_generated(ctx, span(G.p, G.order, [ctx.group_minus_one(h)]))
    span_G0 = span(G.p, G.order, [ctx.basis_vector(k) for k in G0.elements])
    # with dim J = |G| - |G_0|, J ∩ F_pG_0 = 0 iff J + F_pG_0 = F_pG
    if J.dim != G.order - G0.order or (J + span_G0).dim != G.order:
        raise VerificationError(
            "split-cyclic-algebra", "F_pG != J + F_pG_0 as a direct sum")
    return H, G0


def _coset_candidates(ctx: AlgebraContext, I2: FpSubspace, target) -> list[int]:
    """Group elements g with e_g - 1 congruent to target modulo I(G)^2, in
    ascending order: one reduction of the rows e_g - 1 - target."""
    rows = np.eye(ctx.dim, dtype=np.int64) - target
    rows[:, 0] -= 1
    return [int(g) for g in np.flatnonzero(~I2.reduce(rows).any(axis=1))]


def _find_split_element(G: PGroup, ctx: AlgebraContext, I2: FpSubspace,
                        target, s: int) -> tuple[int, Subgroup, Subgroup]:
    """An order-p^s central element h with e_h - 1 = target mod I(G)^2 that
    splits off; candidates scanned in ascending element order."""
    T = G.table
    q = G.p ** s
    rejected = []  # (element, the check it failed)
    for g in _coset_candidates(ctx, I2, target):
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


def _group_closure_vectors(ctx: AlgebraContext, units, limit: int) -> list[np.ndarray] | None:
    """Multiplicative closure of a set of commuting units; None past limit."""
    elems = {ctx.one.tobytes(): ctx.one}
    frontier = [ctx.one]
    for u in units:
        frontier.append(np.asarray(u) % ctx.p)
    while frontier:
        x = frontier.pop()
        if x.tobytes() not in elems:
            elems[x.tobytes()] = x
        for u in units:
            y = ctx.multiply(x, u)
            if y.tobytes() not in elems:
                if len(elems) >= limit:
                    return None
                elems[y.tobytes()] = y
                frontier.append(y)
    return [elems[k] for k in sorted(elems)]


def _units_by_order(ctx: AlgebraContext, IB: FpSubspace,
                    coeffs: np.ndarray | None = None):
    """Yield the units 1 + c @ IB, as rows, highest order first, then in
    byte order, for the rows c of coeffs, or for every nonzero c when
    coeffs is None.  Only one chunk of units is formed at a time.

    IB must be commutative: Frobenius is additive there, so the unit
    1 + c @ IB has p^k-th power 1 + c @ IB^{p^k}, and the order is p to
    the number of k with c @ IB^{p^k} != 0.  One product with the stack of
    the nonzero IB^{p^k} gives every such row for a chunk of coeffs, and
    its k = 0 slice is the unit itself.

    IB is in canonical RREF with pivots pi_1 < ... < pi_d, so the unit
    holds c_i at column pi_i (plus 1 at column 0, the identity), and every
    column left of pi_i depends only on c_1, ..., c_{i-1}.  The byte order
    of the units is therefore the lexicographic order of
    ((c_1 + [pi_1 = 0]) mod p, c_2, ..., c_d): the coefficient rows are
    counted, or sorted, in that order, and each order class, highest
    first, is one scan over them.
    """
    p, n, d = ctx.p, ctx.dim, IB.dim
    frobs = frobenius_chain(ctx, IB.basis)  # frobs[k]: rows b^{p^k}
    step = max(1, _UNIT_ENTRIES // (len(frobs) * n))
    shift = int(IB.pivots[0] == 0)
    if coeffs is None:
        total = p ** d
        digits = p ** np.arange(d - 1, -1, -1)

        def rows(k):
            c = np.arange(k, min(k + step, total))[:, None] // digits % p
            c[:, 0] = (c[:, 0] - shift) % p
            return c
    else:
        keys = coeffs.copy()
        keys[:, 0] = (keys[:, 0] + shift) % p
        coeffs = coeffs[np.lexsort(keys.T[::-1])]
        total = len(coeffs)

        def rows(k):
            return coeffs[k:k + step]
    # c = 0 has no nonzero image, so no class below yields it
    for level in range(len(frobs), 0, -1):
        for k in range(0, total, step):
            images = matmul_mod(rows(k), frobs, p)  # (frob, row, t)
            U = images[0][images.any(axis=2).sum(axis=0) == level]
            U[:, 0] = (U[:, 0] + 1) % p
            yield from U


class _Replayed:
    """An iterator that can be iterated again from the start, any number
    of times and nested: it draws from the source only past the items
    already read."""

    def __init__(self, source):
        self._source, self._seen = source, []

    def __iter__(self):
        k = 0
        while True:
            if k == len(self._seen):
                nxt = next(self._source, None)
                if nxt is None:
                    return
                self._seen.append(nxt)
            yield self._seen[k]
            k += 1


def find_group_basis_commutative(B: AugmentedSubalgebra,
                                 cap: int = ENUM_CAP,
                                 seed: int = 0) -> list[np.ndarray]:
    """Unit elements generating a group basis of a commutative augmented
    subalgebra: backtracking over units of 1 + I(B), highest order first,
    then in byte order.

    The units come from one stream, and only the prefix the search reads
    is formed.  With at most cap units every unit is in the stream, and a
    failed search is a VerificationError.  Past cap the stream holds only
    distinct seeded samples, and a failed search raises
    EnumerationCapExceeded, since the units left out may hold a group
    basis."""
    ctx = B.ctx
    p = ctx.p
    if not B.is_commutative():
        raise VerificationError("group-basis", "B is not commutative")
    if B.dim == 1:
        return []
    IB = B.aug_ideal
    total = p ** IB.dim
    one = ctx.one
    sampled = total > cap
    coeffs = None
    if sampled:
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(0, p, size=(SAMPLED_UNITS, IB.dim))
        # a repeated unit would repeat the same failed branches
        coeffs = unique_rows(coeffs[coeffs.any(axis=1)])
    units = _Replayed(_units_by_order(ctx, IB, coeffs))
    I2B = product_space(ctx, IB, IB)
    target = B.dim

    def diff_subalgebra(base: FpSubspace, diff) -> FpSubspace:
        acc = base + span(p, ctx.dim, [diff])
        while True:
            rows = ctx.products(diff[None], acc.basis)
            new = acc + FpSubspace(p, ctx.dim, rows)
            if new.dim == acc.dim:
                return new
            acc = new

    def dfs(chosen: list, S: FpSubspace) -> list | None:
        for u in units:
            d = (u - one) % p
            if S.contains_vector(d):
                continue
            nxt = chosen + [u]
            grp = _group_closure_vectors(ctx, nxt, target + 1)
            if grp is None:
                continue  # overshoot, pruned before S is extended
            if len(grp) == target:
                if FpSubspace(p, ctx.dim, np.array(grp)) == B.space:
                    return nxt
                continue
            result = dfs(nxt, diff_subalgebra(S, d))
            if result is not None:
                return result
        return None

    result = dfs([], I2B)
    if result is None and sampled:
        raise EnumerationCapExceeded(
            f"{total} units exceed cap {cap}, and no group basis was found "
            f"among {len(coeffs)} sampled units")
    if result is None:
        raise VerificationError("group-basis",
                                "no group basis found among the units")
    return result


def _frobenius_invariants(ctx: AlgebraContext, IB: FpSubspace) -> tuple[int, ...]:
    """The invariants of A, descending, for commutative B = F_pA with
    augmentation ideal IB, read off Frobenius (Deskins, Duke Math. J. 23,
    1956): x -> x^{p^k} maps I(B) onto I(F_p[A^{p^k}]), so
    |A^{p^k}| = 1 + rank IB^{p^k}, and A has log_p |A^{p^k} : A^{p^{k+1}}|
    cyclic factors of order above p^k."""
    logs = [round(math.log(1 + FpSubspace(ctx.p, ctx.dim, rows).dim, ctx.p))
            for rows in frobenius_chain(ctx, IB.basis)] + [0]
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


def recover_decomposition(fact: TensorFactorizationInput,
                          seed: int = 0) -> DecompositionReport:
    """Recover G = B-side x C-side from a verified tensor factorization with
    commutative B, peeling one maximal-order cyclic factor per level."""
    if not fact.verified:
        raise VerificationError("unverified", "factorization was not verified")
    if not fact.B.is_commutative():
        raise VerificationError("B-commutative", "B must be commutative")
    G = fact.ctx.group
    p = G.p
    units0 = find_group_basis_commutative(fact.B, seed=seed)
    # the invariants of A with B = F_pA, for the final check
    b_group_invs = _frobenius_invariants(fact.ctx, fact.B.aug_ideal)

    hs: list[int] = []
    steps: list[dict] = []
    cur_fact = fact
    cur_embed = list(range(G.order))
    depth = 0
    while cur_fact.B.dim > 1:
        ctx = cur_fact.ctx
        cur_G = ctx.group
        units = units0 if depth == 0 else \
            find_group_basis_commutative(cur_fact.B, seed=seed)
        b = units[0]  # highest multiplicative order p^s
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
        I2 = ctx.augmentation_power(2)
        h, H, G0 = _find_split_element(cur_G, ctx, I2, b_minus_1, s)
        hs.append(cur_embed[h])
        steps.append({"depth": depth, "s": s, "h": cur_embed[h],
                      "group_order": cur_G.order})
        # project both factors along J = (b-1)F_pG onto F_pG_0 and recurse;
        # the section check of the quotient is the splitting check
        J = ideal_generated(ctx, span(p, cur_G.order, [b_minus_1]))
        span_G0 = span(p, cur_G.order,
                       [ctx.basis_vector(k) for k in G0.elements])
        try:
            qs = QuotientSpace(ctx.full_space(), J, section=span_G0)
        except FpError as exc:
            raise VerificationError(
                "theorem-splitting", "F_pG != (b-1)F_pG + F_pG_0") from exc
        G0p, g0_elems = subgroup_to_pgroup(G0)
        ctx0 = AlgebraContext.of(G0p)
        B_rows = qs.project(cur_fact.B.space.basis)
        C_rows = qs.project(cur_fact.C.space.basis)
        B0 = AugmentedSubalgebra.from_space(
            ctx0, FpSubspace(p, G0p.order, B_rows))
        C0 = AugmentedSubalgebra.from_space(
            ctx0, FpSubspace(p, G0p.order, C_rows))
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
    pairs = direct_factor_oracle(G, cap=oracle_cap)
    indec = not pairs
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
