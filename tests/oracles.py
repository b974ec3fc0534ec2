"""Independent re-derivations that only the tests read.

Each function here computes something the library also computes, by a
different and slower route, and its docstring names the library object it
cross-checks.  None of them is on a library path, so they live beside the
tests rather than in ``pgroupalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pgroupalg.algebra import (AlgebraContext, AlgebraError,
                               AugmentedSubalgebra, frobenius_chain,
                               normal_subgroup_ideal, product_space,
                               unit_exponent_commutative)
from pgroupalg.decompose import lambda_map
from pgroupalg.fplin import (FpError, FpSubspace, matmul_mod, nullspace,
                             solve)
from pgroupalg.groups import (ORACLE_CAP, PGroup, Subgroup, _commutator_table,
                              _powers, abelian_invariants, agemo_derived,
                              cyclic_factor_orders, full_subgroup,
                              jennings_basis, omega_center_derived)
from pgroupalg.lemmas import (IdentityReport, TensorFactorizationInput,
                              VerificationError, _compare, cyclic_factor_test)

# ---------------------------------------------------------------------------
# groups


def inverse(G: PGroup, a: int) -> int:
    """a^-1, the one x with a x = 1 in row a of the table; cross-checks the
    inverses that ``PGroup`` reads off the whole table at once."""
    return int(np.flatnonzero(G.table[a] == 0)[0])


def commutator(G: PGroup, a: int, b: int) -> int:
    """[a, b] = a^-1 b^-1 a b by single lookups; cross-checks the gathered
    ``groups._commutator_table``."""
    return G.mul(G.mul(inverse(G, a), inverse(G, b)), G.mul(a, b))


def conjugate(G: PGroup, g: int, by: int) -> int:
    """by g by^-1 by single lookups; cross-checks the conjugation gathers of
    ``Subgroup.is_normal`` and ``AlgebraContext.center_subspace``."""
    return G.mul(G.mul(by, g), inverse(G, by))


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


def span(p: int, ambient: int, vectors) -> FpSubspace:
    """The subspace spanned by vectors, through ``FpSubspace``: the
    shorthand the tests write their subspaces with."""
    return FpSubspace(p, ambient, np.array(list(vectors), dtype=np.int64)
                      .reshape(-1, ambient))


def coordinates(U: FpSubspace, vec) -> np.ndarray | None:
    """c with c @ U.basis == vec, or None if vec is outside the span: the
    pivot entries of vec, since each RREF row is 1 on its own pivot and 0
    on the others.  Cross-checks ``FpSubspace.reduce``."""
    if U.reduce(vec).any():
        return None
    return np.asarray(vec, dtype=np.int64)[list(U.pivots)] % U.p


def greedy_section(W: FpSubspace, U: FpSubspace) -> np.ndarray:
    """The rows of W's basis each outside U plus the rows kept before it,
    one membership test per row: a section of W/U.  Cross-checks the
    section that ``algebra.frattini_quotient`` reads off pivot columns."""
    chosen, acc = [], U
    for row in W.basis:
        if not acc.contains_vector(row):
            chosen.append(row)
            acc = acc + FpSubspace(U.p, U.ambient, [row])
    return np.array(chosen, dtype=np.int64).reshape(-1, U.ambient)


def quotient_coordinates(section: np.ndarray, U: FpSubspace,
                         vec) -> np.ndarray | None:
    """Coordinates c with c @ section = vec modulo U, of vec or of each
    row of a 2-d array, or None if one lies outside U + span(section), by
    solving against the residuals of the section, one elimination per
    call; cross-checks ``frattini_quotient(ctx).project``."""
    return solve(U.reduce(section).T, U.reduce(vec), U.p)


def full_space(p: int, ambient: int) -> FpSubspace:
    """F_p^ambient, eliminated from the identity rows; the library builds
    no whole space."""
    return FpSubspace(p, ambient, np.eye(ambient, dtype=np.int64))


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


def augmentation_power(ctx: AlgebraContext, m: int) -> FpSubspace:
    """I(G)^m as the library reads it: I(G) in closed form, and for m >= 2
    the kernel ``ctx.plus_power(None, m)``.  Not a second route, but the
    one the tests name I(G)^m by; they hold it to the product chain
    ``power_space``, and read it where a test needs I(G)^2.  No library
    path asks for I(G)^m as a subspace since certify_indecomposable reads
    d off the Jennings basis."""
    if m < 1:
        raise AlgebraError("augmentation_power requires m >= 1")
    return ctx.augmentation_ideal() if m == 1 else ctx.plus_power(None, m)


def conjugacy_classes(ctx: AlgebraContext) -> list[tuple[int, ...]]:
    """The conjugacy classes of G, each sorted, by least element, as a loop
    over sets of single-lookup conjugates; cross-checks the one gather of
    ``AlgebraContext.center_subspace``, whose rows are the class sums."""
    G = ctx.group
    seen: set[int] = set()
    classes = []
    for g in range(G.order):
        if g not in seen:
            orbit = {conjugate(G, g, h) for h in range(G.order)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
    return classes


def jennings_functionals_per_m(ctx: AlgebraContext, m: int) -> np.ndarray:
    """The Jennings functionals of weight < m, built for this m alone: the
    exponent vectors k of weight sum_j k_j w_j < m are selected first, and
    f_k(e_g) = prod_j C(b_j(g), k_j) mod p formed for them only, from the
    words x_1^b_1 ... x_d^b_d of the elements.  Cross-checks
    ``AlgebraContext.jennings_functionals``, which selects the rows of one
    table that holds every weight."""
    basis, p, n = jennings_basis(ctx.group), ctx.p, ctx.dim
    words = np.zeros(1, dtype=np.int64)
    for x, _ in basis:  # words[a |words| + r] = words[r] x^a
        blocks = [words]
        for _ in range(p - 1):
            blocks.append(ctx.group.table[blocks[-1], x])
        words = np.concatenate(blocks)
    digits = np.arange(n)[:, None] // p ** np.arange(len(basis)) % p
    exps = digits[np.argsort(words)]  # exps[g] = (b_1(g), ..., b_d(g))
    ks = digits[digits @ np.array([w for _, w in basis], int) < m]
    C = np.array([[math.comb(b, k) for b in range(p)] for k in range(p)])
    return np.prod(C[ks.T[:, :, None], exps.T[:, None]], axis=0) % p


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
    Im = augmentation_power(ctx, m)
    diffs = np.eye(ctx.dim, dtype=np.int64)  # rows e_g - 1
    diffs[:, 0] -= 1
    outside = Im.reduce(diffs).any(axis=1)
    return Subgroup(ctx.group, tuple(int(g) for g in np.flatnonzero(~outside)))


def jennings_rows(ctx: AlgebraContext) -> tuple[np.ndarray, np.ndarray]:
    """The Jennings basis of F_pG, as rows, with the weight of each.

    The rows are the products (x_1 - 1)^a_1 ... (x_d - 1)^a_d, 0 <= a_k < p,
    over groups.jennings_basis, row sum_k a_k p^(k-1), of weight
    sum_k a_k w_k; those of weight at least m span I(G)^m.  Each factor is
    a right multiplication by e_x - 1, a gather of the rows built so far.
    Cross-checks ``AlgebraContext.jennings_functionals``, the dual basis,
    which the library builds from the words of the elements instead."""
    rows = ctx.one[None]
    weights = np.zeros(1, dtype=np.int64)
    for x, w in jennings_basis(ctx.group):
        R = ctx._right[x]
        blocks = [rows]
        for _ in range(ctx.p - 1):
            blocks.append((blocks[-1][:, R] - blocks[-1]) % ctx.p)
        rows = np.concatenate(blocks)
        weights = np.concatenate([weights + a * w for a in range(ctx.p)])
    return rows, weights


@dataclass
class LambdaData:
    """The p^{s-1}-power map Lambda from the domain quotient
    (Omega_s(Z(G))G' ideal + I(G)^2) / I(G)^2 to F_pG / codomain.  A class
    modulo the codomain is its RREF residual codomain.reduce(v): images[i]
    is the class of section[i]^{p^{s-1}}."""

    W: FpSubspace  # Omega_s(Z(G))G' ideal + I(G)^2
    I2: FpSubspace  # I(G)^2
    section: np.ndarray  # greedy_section(W, I2), a basis of the domain
    codomain: FpSubspace
    images: np.ndarray
    kernel: FpSubspace  # inside the span of the section

    def lift(self, v) -> np.ndarray:
        """The representative of v + I(G)^2, v in W, in the span of the
        section."""
        return quotient_coordinates(self.section, self.I2, v) @ \
            self.section % self.I2.p


def lambda_data(G: PGroup, s: int) -> LambdaData:
    """Lambda in full, around the codomain ideal that
    ``decompose.lambda_map`` returns: the domain with its greedy section,
    the exact p^{s-1}-th powers of that section as images, and ker Lambda
    as the nullspace of images^T spanned in the section.  A recovery level
    reads none of it: its split element proves b - 1 outside the kernel."""
    p, q = G.p, G.p ** (s - 1)
    ctx = AlgebraContext.of(G)
    codomain = lambda_map(G, s)
    W_dom = ctx.plus_power(
        normal_subgroup_ideal(ctx, omega_center_derived(G, s)), 2)
    I2 = augmentation_power(ctx, 2)
    section = greedy_section(W_dom, I2)
    images = codomain.reduce(ctx.powers(section, q))
    kernel = FpSubspace(p, G.order, nullspace(images.T, p) @ section % p)
    return LambdaData(W_dom, I2, section, codomain, images, kernel)


def subgroup_ideal(ctx: AlgebraContext, N: Subgroup) -> FpSubspace:
    """I(N)F_pG for a normal N, spanned by the e_{nx} - e_x, n in N and x
    in G, one row each; cross-checks the closed form of
    ``algebra.normal_subgroup_ideal``."""
    x = np.arange(ctx.dim)
    rows = np.zeros((len(N.elements) * ctx.dim, ctx.dim), dtype=np.int64)
    for k, n in enumerate(N.elements):
        block = rows[k * ctx.dim:(k + 1) * ctx.dim]
        block[x, ctx.group.table[n]] += 1
        block[x, x] -= 1
    return FpSubspace(ctx.p, ctx.dim, rows % ctx.p)


def splits_as_algebra(ctx: AlgebraContext, H: Subgroup, G0: Subgroup) -> bool:
    """Whether F_pG = I(H)F_pG ⊕ F_pG_0, for a normal H, with I(H)F_pG
    from ``subgroup_ideal`` and the sum's dimension from one elimination
    with the unit rows of G_0.  Cross-checks ``decompose.split_cyclic``,
    which reads the split off the retraction."""
    J = subgroup_ideal(ctx, H)
    unit_rows = np.eye(ctx.dim, dtype=np.int64)[list(G0.elements)]
    return (J.dim + G0.order == ctx.dim
            and FpSubspace(ctx.p, ctx.dim,
                           np.concatenate([J.basis, unit_rows])).dim == ctx.dim)


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


def units_of_order(ctx: AlgebraContext, IB: FpSubspace, frobs: np.ndarray,
                   level: int, step: int = 4096):
    """The units 1 + c @ IB of order p^level, as rows in byte order, formed
    in fixed chunks of step coefficient rows.  frobs is
    frobenius_chain(ctx, IB.basis); the order of a unit is p to the number
    of k with c @ IB^{p^k} != 0, and the byte order is the counting order
    of ((c_1 + [pi_1 = 0]) mod p, c_2, ..., c_d).  At level len(frobs) it
    is the fixed-chunk reference for ``decompose._units_by_order``, whose
    chunks grow."""
    p, d = ctx.p, IB.dim
    total = p ** d
    digits = p ** np.arange(d - 1, -1, -1)
    shift = int(IB.pivots[0] == 0)
    for k in range(0, total, step):
        c = np.arange(k, min(k + step, total))[:, None] // digits % p
        c[:, 0] = (c[:, 0] - shift) % p
        images = matmul_mod(c, frobs, p)  # (frob, row, t)
        U = images[0][images.any(axis=2).sum(axis=0) == level]
        U[:, 0] = (U[:, 0] + 1) % p
        yield from U


def units_by_order(ctx: AlgebraContext, IB: FpSubspace):
    """Every unit 1 + c @ IB of commutative IB, as rows, highest order
    first, then in byte order (``units_of_order``)."""
    frobs = frobenius_chain(ctx, IB.basis)
    for level in range(len(frobs), 0, -1):
        yield from units_of_order(ctx, IB, frobs, level)


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


def aug_square(ctx: AlgebraContext, IB: FpSubspace) -> FpSubspace:
    """I(B)^2 for IB = I(B), as the span of the table I(B)·I(B), in the
    coordinates c of c @ IB: the product form, which holds for any
    subalgebra.  Cross-checks ``decompose._aug_square``, which takes the
    same arguments, reads I(B)^2 off Jennings coordinates under a
    factorization and forms no product."""
    rows = product_space(ctx, IB, IB).basis[:, list(IB.pivots)]
    return FpSubspace(ctx.p, IB.dim, rows)


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
    Cross-checks ``AugmentedSubalgebra.invariants``, which reads them off
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
        full = full_space(ctx.p, ctx.dim)
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
