"""Independent re-derivations that only the tests read.

Each function here computes something the library also computes, by a
different and slower route, and its docstring names the library object it
cross-checks.  None of them is on a library path, so they live beside the
tests rather than in ``pgroupalg``.
"""

from __future__ import annotations

import math

import numpy as np

from pgroupalg.algebra import (AlgebraContext, AlgebraError,
                               AugmentedSubalgebra, frobenius_chain,
                               normal_subgroup_ideal, product_space,
                               unit_exponent_commutative)
from pgroupalg.fplin import (FpError, FpSubspace, QuotientSpace, matmul_mod,
                             nullspace, solve, span)
from pgroupalg.groups import (ORACLE_CAP, PGroup, Subgroup, _commutator_table,
                              _powers, abelian_invariants, agemo_derived,
                              cyclic_factor_orders, full_subgroup)
from pgroupalg.lemmas import (IdentityReport, TensorFactorizationInput,
                              VerificationError, _compare, cyclic_factor_test)

# ---------------------------------------------------------------------------
# groups


def commutator(G: PGroup, a: int, b: int) -> int:
    """[a, b] = a^-1 b^-1 a b by single lookups; cross-checks the gathered
    ``groups._commutator_table``."""
    return G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))


def conjugate(G: PGroup, g: int, by: int) -> int:
    """by g by^-1 by single lookups; cross-checks the conjugation gathers of
    ``Subgroup.is_normal`` and ``AlgebraContext.conjugacy_classes``."""
    return G.mul(G.mul(by, g), G.inv(by))


def power(G: PGroup, g: int, k: int) -> int:
    """g^k for k >= 0 by k single lookups; cross-checks the square-and-
    multiply gathers of ``groups._powers``."""
    acc = 0
    for _ in range(k):
        acc = G.mul(acc, g)
    return acc


def least_failing_triple(T: np.ndarray) -> tuple[int, int, int] | None:
    """The least (a, b, c) with (ab)c != a(bc) in the table T, or None: the
    exhaustive scan, one row a at a time; cross-checks Light's test in
    ``groups._light_associative``."""
    T = np.asarray(T)
    for a in range(T.shape[0]):
        bad = np.argwhere(T[T[a]] != T[a][T])  # [b, c]: (ab)c vs a(bc)
        if len(bad):
            return (a, int(bad[0][0]), int(bad[0][1]))
    return None


def normal_subgroups(G: PGroup) -> tuple[Subgroup, ...]:
    """Every normal subgroup of G, sorted by (order, elements), by central
    extension one (H, g) at a time: N = H<g> for a normal H and a g outside
    H with g^p in H and [g, x] in H for every x, and N is the union of the
    cosets H g^k, k < p.  Cross-checks ``groups._normal_lattice``, which
    extends a whole layer in a fixed number of gathers and keeps only
    g = min(N - H)."""
    T, comm, pow_p = G.table, _commutator_table(G), _powers(G, G.p)
    layer = [np.zeros(1, dtype=np.int64)]
    found = list(layer)
    while layer:
        nxt: dict[bytes, np.ndarray] = {}
        for H in layer:
            inside = np.zeros(G.order, dtype=bool)
            inside[H] = True
            todo = inside[comm].all(axis=1) & inside[pow_p] & ~inside
            for g in np.flatnonzero(todo):
                if not todo[g]:
                    continue
                cosets = [H]
                for _ in range(G.p - 1):
                    cosets.append(T[cosets[-1], g])
                N = np.sort(np.concatenate(cosets))
                todo[N] = False  # all of N outside H gives the same N
                nxt.setdefault(N.tobytes(), N)
        layer = list(nxt.values())
        found.extend(layer)
    subs = [Subgroup(G, tuple(N.tolist())) for N in found]
    return tuple(sorted(subs, key=lambda S: (S.order, S.elements)))


def has_cyclic_factor_of_order(G: PGroup, q: int, cap: int = ORACLE_CAP) -> bool:
    """Does G have a cyclic direct factor of order exactly q?  Read off the
    direct-factor oracle (``groups.cyclic_factor_orders``); the tests hold
    ``lemmas.cyclic_factor_test`` to it."""
    if G.order == 1:
        return q == 1
    return q in cyclic_factor_orders(G, cap=cap)


# ---------------------------------------------------------------------------
# linear algebra


def coordinates(U: FpSubspace, vec) -> np.ndarray | None:
    """c with c @ U.basis == vec, or None if vec is outside the span: the
    pivot entries of vec, since each RREF row is 1 on its own pivot and 0
    on the others.  Cross-checks ``FpSubspace.reduce``."""
    if U.reduce(vec).any():
        return None
    return np.asarray(vec, dtype=np.int64)[list(U.pivots)] % U.p


def quotient_coordinates(Q: QuotientSpace, vec) -> np.ndarray | None:
    """Section coordinates of vec + U in Q = W/U, or None if vec is
    outside W, by solving against the residuals of the section, one
    elimination per call; cross-checks ``QuotientSpace.project``."""
    return solve(Q.U.reduce(Q.section).T, Q.U.reduce(vec), Q.p)


def intersect(U: FpSubspace, V: FpSubspace) -> FpSubspace:
    """U ∩ V from the nullspace of [U^T | -V^T]: x = a @ U.basis =
    b @ V.basis.  Cross-checks ``algebra.augmentation_part``, which reads
    V ∩ I(G) off V's canonical basis."""
    if U.p != V.p or U.ambient != V.ambient:
        raise FpError("prime/ambient dimension mismatch")
    if U.dim == 0 or V.dim == 0:
        return FpSubspace(U.p, U.ambient)
    M = np.concatenate([U.basis.T, -V.basis.T], axis=1) % U.p
    ker = nullspace(M, U.p)
    return FpSubspace(U.p, U.ambient, (ker[:, :U.dim] @ U.basis) % U.p)


# ---------------------------------------------------------------------------
# algebra


def augmentation(ctx: AlgebraContext, v) -> int:
    """The augmentation sum_g v_g mod p, which vanishes exactly on I(G);
    cross-checks ``AlgebraContext.augmentation_ideal``."""
    return int(np.asarray(v, dtype=np.int64).sum() % ctx.p)


def commutator_span(ctx: AlgebraContext, X: FpSubspace, Y: FpSubspace) -> FpSubspace:
    """span{xy - yx} over the bases of X and Y, from the two tables
    ``ctx.products(X, Y)`` and ``ctx.products(Y, X)``; the tests hold it to
    the per-pair scatter products."""
    a, b, n = X.dim, Y.dim, ctx.dim
    xy = ctx.products(X.basis, Y.basis)
    yx = ctx.products(Y.basis, X.basis).reshape(b, a, n).transpose(1, 0, 2)
    return FpSubspace(ctx.p, n, (xy - yx.reshape(-1, n)) % ctx.p)


def subalgebra_failure(ctx: AlgebraContext, space: FpSubspace) -> str | None:
    """The first check of ``AugmentedSubalgebra.from_space`` that space
    fails, or None, by the definitions on its whole basis: closure reduces
    every product of two basis elements of B, where the library reads
    I(B)^2 alone."""
    if not space.contains_vector(ctx.one):
        return "subalgebra-unit"
    if space.reduce(ctx.products(space.basis, space.basis)).any():
        return "subalgebra-closure"
    if intersect(space, ctx.augmentation_ideal()).dim != space.dim - 1:
        return "augmentation-codimension"
    return None


def factorization_failure(ctx: AlgebraContext, B: FpSubspace,
                          C: FpSubspace) -> str | None:
    """The first check of ``lemmas.verify_tensor_factorization`` that the
    subalgebras B and C fail, or None, by the definitions on their whole
    bases: commuting compares ``products(B, C)`` with ``products(C, B)``,
    and the product span is ``product_space(B, C)``, where the library
    reads both off the tables of I(B) with I(C)."""
    n = ctx.dim
    bc = ctx.products(B.basis, C.basis).reshape(B.dim, C.dim, n)
    cb = ctx.products(C.basis, B.basis).reshape(C.dim, B.dim, n)
    if not np.array_equal(bc, cb.transpose(1, 0, 2)):
        return "commuting"
    if B.dim * C.dim != n:
        return "dimension-product"
    if product_space(ctx, B, C).dim != n:
        return "product-span"
    I = ctx.augmentation_ideal()
    IB, IC = intersect(B, I), intersect(C, I)
    IBC = product_space(ctx, IB, IC)
    if not (IB + IC + IBC == I and IB.dim + IC.dim + IBC.dim == n - 1):
        return "augmentation-decomposition"
    return None


def subalgebra_closure(ctx: AlgebraContext, X: FpSubspace) -> FpSubspace:
    """The (non-unital) subalgebra generated by X: close under products."""
    acc = X
    while acc.dim:
        rows = np.concatenate([acc.basis, ctx.products(acc.basis, acc.basis)])
        new = FpSubspace(ctx.p, ctx.dim, rows)
        if new.dim == acc.dim:
            return new
        acc = new
    return acc


class EnumerationCapExceeded(AlgebraError):
    """An enumerating oracle met more elements than its cap."""


_ENUM_CHUNK = 4096  # central elements raised to their p^i-th powers at once


def omega_central_enumerated(ctx: AlgebraContext, i: int,
                             cap: int = 2 ** 24) -> FpSubspace:
    """Brute-force Omega_i(Z(I(G))): enumerate every central ideal element,
    keep those with z^{p^i} = 0 and close them under products.  Cross-checks
    ``algebra.omega_central``, which reads the kernel of Frobenius instead;
    raises EnumerationCapExceeded past cap elements."""
    Z = ctx.central_ideal_part()
    total = ctx.p ** Z.dim
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} central elements exceed cap {cap}")
    q = ctx.p ** i
    digits = ctx.p ** np.arange(Z.dim)
    acc = FpSubspace(ctx.p, ctx.dim)
    for start in range(0, total, _ENUM_CHUNK):
        n = np.arange(start, min(start + _ENUM_CHUNK, total))
        elems = ((n[:, None] // digits) % ctx.p) @ Z.basis % ctx.p
        hits = elems[~ctx.powers(elems, q).any(axis=1)]
        acc = acc + FpSubspace(ctx.p, ctx.dim, hits)
    return subalgebra_closure(ctx, acc)


def dimension_subgroup(ctx: AlgebraContext, m: int) -> Subgroup:
    """D_m = {g : g - 1 in I(G)^m}, read on the algebra side; m = 2 gives
    the Frattini subgroup.  Cross-checks the group-side
    ``groups.jennings_series``, from which I(G)^m itself is built."""
    if m < 1:
        raise AlgebraError("dimension_subgroup requires m >= 1")
    Im = ctx.augmentation_power(m)
    diffs = np.eye(ctx.dim, dtype=np.int64)  # rows e_g - 1
    diffs[:, 0] -= 1
    outside = Im.reduce(diffs).any(axis=1)
    return Subgroup(ctx.group, tuple(int(g) for g in np.flatnonzero(~outside)))


# ---------------------------------------------------------------------------
# units and the commutative-factor proposition


def group_closure_vectors(ctx: AlgebraContext, units,
                          limit: int) -> list[np.ndarray] | None:
    """Multiplicative closure of a set of commuting units, one product at a
    time, in byte order; None past limit elements.  The tests close the
    units of ``decompose.find_group_basis_commutative`` with it, to see
    that they form a group basis of B."""
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


def units_by_order(ctx: AlgebraContext, IB: FpSubspace):
    """Every unit 1 + c @ IB of commutative IB, as rows, highest order
    first, then in byte order, formed a chunk at a time.  The order of a
    unit is p to the number of k with c @ IB^{p^k} != 0, and the byte order
    is the counting order of ((c_1 + [pi_1 = 0]) mod p, c_2, ..., c_d), as
    in ``decompose._units_by_order``, which streams the highest class."""
    p, d = ctx.p, IB.dim
    frobs = frobenius_chain(ctx, IB.basis)
    total, step = p ** d, 4096
    digits = p ** np.arange(d - 1, -1, -1)
    shift = int(IB.pivots[0] == 0)
    for level in range(len(frobs), 0, -1):
        for k in range(0, total, step):
            c = np.arange(k, min(k + step, total))[:, None] // digits % p
            c[:, 0] = (c[:, 0] - shift) % p
            images = matmul_mod(c, frobs, p)  # (frob, row, t)
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


def group_basis_search(B: AugmentedSubalgebra) -> list[np.ndarray]:
    """Units generating a group basis of commutative B, by backtracking
    over every unit of 1 + I(B), highest order first, then in byte order:
    a branch adds a unit outside the subalgebra its units generate with
    I(B)^2, and succeeds when their group closes to B.  Only the prefix of
    the unit stream that the search reads is formed.  Its first unit is
    the byte-least unit of the highest order that lies in a minimal
    generating set of some group basis, which is what
    ``decompose.find_group_basis_commutative`` constructs by linear
    algebra; the tests hold that unit to this one."""
    ctx, p = B.ctx, B.ctx.p
    if B.dim == 1:
        return []
    IB = B.aug_ideal
    units = _Replayed(units_by_order(ctx, IB))
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
            d = (u - ctx.one) % p
            if S.contains_vector(d):
                continue
            nxt = chosen + [u]
            grp = group_closure_vectors(ctx, nxt, target + 1)
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

    result = dfs([], product_space(ctx, IB, IB))
    if result is None:
        raise VerificationError("group-basis",
                                "no group basis found among the units")
    return result


def group_from_unit_vectors(ctx: AlgebraContext, vectors) -> PGroup:
    """Cayley table of a finite multiplicative group of algebra elements,
    the identity first and the rest in byte order."""
    vecs = sorted((np.asarray(v) % ctx.p for v in vectors),
                  key=lambda v: v.tobytes())
    one = ctx.one
    vecs = [one] + [v for v in vecs if not np.array_equal(v, one)]
    idx = {v.tobytes(): i for i, v in enumerate(vecs)}
    n = len(vecs)
    table = np.array([idx[v.tobytes()] for v in ctx.products(vecs, vecs)],
                     dtype=np.int64).reshape(n, n)
    return PGroup(ctx.p, table, name=f"units{n}")


def unit_closure_invariants(ctx: AlgebraContext, units,
                            limit: int) -> tuple[int, ...]:
    """The abelian invariants of the group the commuting units generate,
    from its closure (at most limit elements) built as a PGroup.
    Cross-checks ``decompose._frobenius_invariants``, which reads them off
    the ranks of Frobenius on the span."""
    if not len(units):
        return ()
    closure = group_closure_vectors(ctx, units, limit)
    return abelian_invariants(group_from_unit_vectors(ctx, closure))


def babelian_checks(fact: TensorFactorizationInput, part: str) -> IdentityReport:
    """Part (a), (c) or (d) of the commutative-factor proposition, on a
    verified factorization with commutative B.  Cross-checks the ideals
    that ``decompose.recover_decomposition`` peels off: (c) puts
    I(mho_s(G)G')kG, the codomain side of ``decompose.lambda_map``, inside
    I(C) + I(B)I(C), and (d) finds the cyclic factor of order exp V(B)
    through ``lemmas.cyclic_factor_test``."""
    if not fact.verified:
        raise VerificationError("unverified", "factorization was not verified")
    if not fact.B.commutative:
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
        ps = unit_exponent_commutative(ctx, IB)
        s = round(math.log(ps, ctx.p)) if ps > 1 else 0
        # mho_0(G) = G, so for s = 0 the left side is all of I(G)
        N = full_subgroup(ctx.group) if s == 0 else agemo_derived(ctx.group, s)
        left = normal_subgroup_ideal(ctx, N)
        right = IC + IBC
        if not right.contains(left):
            raise VerificationError(
                "prop-c", "I(mho_s(G)G')kG not inside I(C) + I(B)I(C)")
        return IdentityReport("prop-c", left.dim, right.dim, True)
    if part == "d":
        ps = unit_exponent_commutative(ctx, IB)
        s = round(math.log(ps, ctx.p)) if ps > 1 else 0
        if s == 0:
            return IdentityReport("prop-d", 0, 0, True)
        has, exponent = cyclic_factor_test(ctx.group, s)
        if not has:
            raise VerificationError(
                "prop-d", f"no cyclic direct factor of order {ps} found")
        return IdentityReport("prop-d", ps, exponent, True)
    raise ValueError(f"unknown proposition part {part!r}")
