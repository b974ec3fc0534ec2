"""The modular group algebra F_pG and its ideal calculus.

Elements are coefficient vectors of length |G| indexed by group elements.
All subspace-valued operations return canonical RREF subspaces from
:mod:`pgroupalg.fplin`.

Products go through the regular representation.  Each context holds two
gather tables, ``L[g, t] = g^-1 t`` and ``R[g, t] = t g^-1``, so that
``e_g x = x[L[g]]`` and ``x e_g = x[R[g]]``: translates by group elements
are pure gathers.  A product is ``u v = sum_g u[g] e_g v = u @ v[L]``, and
only the columns U where the left factor is nonzero contribute: all
products of two row sets X, Y come from the single matrix product
``X[:, U] @ Y[:, L[U]]`` (mod p), U the support of X, formed in chunks of
Y so that the gathered block stays bounded up to MAX_ORDER; a dense X
gathers all of L.  Row-wise products ``A[k] B[k]``, and with them the
row-wise powers that raise a whole basis to its p^i-th powers at once,
gather all of L in chunks the same way.  Whether rows are central is
read off the least conjugates ``rep``, with no product: a central row is
constant on each class.

Every ideal takes at most two eliminations.  I(N)F_pG, the augmentation
ideal among them, is written down in canonical RREF from the cosets of N
with none, and so are Z(F_pG), Z(I(G)) and every B ∩ I(G);
``ideal_generated`` eliminates the left translates of its generators and
then the right translates of that left ideal; the mho ideal modulo the
derived ideal is one elimination of powers that gathers give.  I(G)^m
and X + I(G)^m are kernels of Jennings coordinates of weight below m,
from one and two eliminations of at most codim I(G)^m rows.

Each group has one shared context, ``AlgebraContext.of(G)``, and each
context memoizes what is derived from its group alone: the augmentation
ideal, the Jennings table its powers are read off, the centre, the
normal-subgroup ideals, the Omega/mho ideals of the lemmas and every
right ideal, keyed by content.  A check that needs one again finds it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .fplin import FpSubspace, matmul_mod, nullspace, rref
from .groups import (NotNormalError, PGroup, Subgroup, _powers,
                     characteristic_subgroup, invariants_from_counts,
                     jennings_basis, memoized)


class AlgebraError(ValueError):
    pass


class VerificationError(ValueError):
    """A named check of a factorization or identity failed."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        super().__init__(f"{check}: {detail}" if detail else check)


# Largest gathered block Y[:, L[U]] formed at once, in entries (8 MB), with
# |U| |G| entries per row of Y for a left factor X of support U: whole row
# sets below order 128, and at order 256 16 rows for a dense left factor,
# 16 |G| / |U| for a sparse one; _rowwise gathers |G|^2 per row, as for a
# dense factor.  The chunk's products take len(X) |G| entries per row of
# Y, no more when X is a basis, as then len(X) <= |U|.
_GATHER_ENTRIES = 1 << 20
# Largest block of products tested against a subspace at once, in entries
# (2 MB), so that the test's temporaries stay small beside the table
_REDUCE_ENTRIES = 1 << 18


class AlgebraContext:
    """F_pG for a fixed Cayley-table group.

    ``AlgebraContext.of(G)`` returns the context shared by every caller
    that works on G, so its memo serves them all; ``AlgebraContext(G)``
    builds a fresh one with an empty memo.  The memo only ever adds
    results that depend on G alone, so sharing a context changes no
    answer.
    """

    def __init__(self, group: PGroup):
        self.group = group
        self.p = group.p
        self.dim = group.order
        T, inv = group.table, group._inv
        self._left = T[inv]        # L[g, t] = g^-1 t
        self._right = T[:, inv].T  # R[g, t] = t g^-1
        self._memo: dict = {}  # see groups.memoized

    @classmethod
    def of(cls, group: PGroup) -> "AlgebraContext":
        """The group's shared context, built on first use and kept in the
        group's memo, so it lives as long as the group."""
        memo = group._memo
        if "algebra_context" not in memo:
            memo["algebra_context"] = cls(group)
        return memo["algebra_context"]

    def basis_vector(self, g: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[g] = 1
        return v

    @property
    def one(self) -> np.ndarray:
        return self.basis_vector(0)

    def group_minus_one(self, g: int) -> np.ndarray:
        """The element e_g - 1."""
        v = np.zeros(self.dim, dtype=np.int64)
        v[g] += 1
        v[0] -= 1
        return v % self.p

    def multiply(self, u, v) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64) % self.p
        v = np.asarray(v, dtype=np.int64) % self.p
        if u.shape != (self.dim,) or v.shape != (self.dim,):
            raise AlgebraError("element dimension mismatch")
        return (u @ v[self._left]) % self.p

    def left_translates(self, X) -> np.ndarray:
        """Rows e_g x, row k * |G| + g for the k-th row x of X."""
        return np.asarray(X)[:, self._left].reshape(-1, self.dim)

    def right_translates(self, X) -> np.ndarray:
        """Rows x e_g, row k * |G| + g for the k-th row x of X."""
        return np.asarray(X)[:, self._right].reshape(-1, self.dim)

    def _rows(self, X) -> np.ndarray:
        """X as int64 rows of width |G| reduced mod p; any other shape is
        refused, as multiply refuses a vector of another length."""
        X = np.asarray(X, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise AlgebraError("element dimension mismatch")
        return X % self.p

    def products(self, X, Y) -> np.ndarray:
        """All products x_i y_j of rows of X and Y, row i * len(Y) + j.

        x y = sum_{g in U} x[g] e_g y over the support U of X, the columns
        where some row of X is nonzero, so the products of a chunk of Y
        are X[:, U] @ Y[:, L[U]]: |U| |G| gathered entries per row of Y,
        |G|^2 only for a dense X.  The same float64 products, exact, give
        the same int64 table.  On the recover input C3 x He3 (order 81)
        I(C) of C = F_3He3 touches 27 of the 81 columns, and its table
        I(C)·I(C), 676 rows, took 0.56 ms where the whole gather took
        0.91 (median of 400 interleaved calls in one process)."""
        X, Y = self._rows(X), self._rows(Y)
        n = self.dim
        # X is reduced, so a column is nonzero iff its sum is
        U, left = X.sum(axis=0) > 0, self._left
        if not U.all():
            X, left = X[:, U], left[U]
        out = np.empty((X.shape[0], Y.shape[0], n), dtype=np.int64)
        step = max(1, _GATHER_ENTRIES // (max(1, X.shape[1]) * n))
        # float64 as in matmul_mod (exact), gathered in that type, so a
        # chunk holds no int64 copy of the gather; each product is stored
        # as int64 and the whole output reduced once, in place
        Xf, Yf = X.astype(np.float64), Y.astype(np.float64)
        for j in range(0, Y.shape[0], step):
            # gathered [j, u, t] = y_j[U[u]^-1 t]
            out[:, j:j + step] = (Xf @ Yf[j:j + step, left]
                                  ).transpose(1, 0, 2)
        return np.remainder(out, self.p, out=out).reshape(-1, n)

    def _rowwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row-wise products A[k] B[k] = A[k] @ B[k][L] of reduced int64
        rows, in chunks of rows.  The whole gather: the rows raised by
        powers are dense in nearly every call (55 of 60 in the odd-p
        benchmark pass), and gathering over their support gained
        nothing there."""
        if A.shape != B.shape or A.shape[1:] != (self.dim,):
            raise AlgebraError("element dimension mismatch")
        out = np.empty_like(A)
        step = max(1, _GATHER_ENTRIES // (self.dim * self.dim))
        for k in range(0, A.shape[0], step):
            out[k:k + step] = np.einsum("kg,kgt->kt", A[k:k + step],
                                        B[k:k + step, self._left])
        return out % self.p

    def powers(self, X, m: int) -> np.ndarray:
        """Row-wise m-th powers of the rows of X, or of the one vector X,
        by repeated squaring."""
        if m < 0:
            raise AlgebraError("negative powers are not defined here")
        base = self._rows(np.atleast_2d(X))
        acc = None
        while m:
            if m & 1:
                acc = base if acc is None else self._rowwise(acc, base)
            m >>= 1
            if m:
                base = self._rowwise(base, base)
        if acc is None:
            acc = np.zeros_like(base)
            acc[:, 0] = 1
        return acc

    def power(self, v, m: int) -> np.ndarray:
        return self.powers(np.asarray(v)[None], m)[0]

    def p_power(self, v, i: int) -> np.ndarray:
        """v^{p^i}; kept for perfbench/fixtures.py, which calls it."""
        return self.power(v, self.p ** i)

    @memoized
    def augmentation_ideal(self) -> FpSubspace:
        """span{e_g - 1 : g in G}; the Jacobson radical of F_pG.  It is
        I(N)F_pG for N = G, built in closed form like every other one."""
        return _coset_ideal(self, range(self.dim))

    @memoized
    def _jennings_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, weights): every coordinate f_k in the Jennings basis
        (x_1 - 1)^k_1 ... (x_d - 1)^k_d, 0 <= k_j < p, over
        groups.jennings_basis, as rows in ascending sum_j k_j p^(j-1), and
        each weight sum_j k_j w_j.  Each g is one word x_1^b_1 ... x_d^b_d,
        all built by gathers, and e_g = prod_j (1 + (x_j - 1))^b_j expands
        in order: f_k(e_g) = prod_j C(b_j, k_j) mod p."""
        basis, p, n = jennings_basis(self.group), self.p, self.dim
        words = np.zeros(1, dtype=np.int64)
        for x, _ in basis:  # words[a |words| + r] = words[r] x^a
            blocks = [words]
            for _ in range(p - 1):
                blocks.append(self.group.table[blocks[-1], x])
            words = np.concatenate(blocks)
        digits = np.arange(n)[:, None] // p ** np.arange(len(basis)) % p
        exps = digits[np.argsort(words)]  # exps[g] = (b_1(g), ..., b_d(g))
        C = np.array([[math.comb(b, k) for b in range(p)] for k in range(p)])
        F = np.prod(C[digits.T[:, :, None], exps.T[:, None]], axis=0) % p
        return F, digits @ np.array([w for _, w in basis], dtype=np.int64)

    @memoized
    def jennings_functionals(self, m: int) -> np.ndarray:
        """The rows of weight < m of the context's one _jennings_table, read
        only: the basis elements of weight at least m span I(G)^m (Jennings,
        Trans. AMS 50, 1941), their common kernel.  Row 0 is the
        augmentation; for m = 2 the rest are the b_j of weight 1."""
        F, weights = self._jennings_table()
        F = F[weights < m]
        F.setflags(write=False)
        return F

    def plus_power(self, X: FpSubspace | None, m: int) -> FpSubspace:
        """X + I(G)^m, or I(G)^m for X None: the common kernel of the
        Jennings functionals F of weight < m that vanish on X, spanned by
        the rows of the RREF of [F X^T | F] zero on the left."""
        p, n = self.p, self.dim
        F = self.jennings_functionals(m)
        if len(F) == n:  # past the Loewy length, I(G)^m = 0
            return FpSubspace(p, n) if X is None else X
        if X is not None:
            R, pivots = rref(np.concatenate(
                [matmul_mod(F, X.basis.T, p), F], axis=1), p)
            F = R[np.array(pivots, dtype=np.int64) >= X.dim, X.dim:]
        return FpSubspace.kernel(p, F)

    @memoized
    def class_representatives(self) -> np.ndarray:
        """rep[g], the least conjugate of g: rep[g] = min_h R[h, hg] =
        min_h h g h^-1, from one gather."""
        rep = np.take_along_axis(self._right, self.group.table, axis=1).min(0)
        rep.setflags(write=False)
        return rep

    def is_central(self, X) -> bool:
        """Whether every row of X is central in F_pG.  The class sums span
        Z(F_pG) (Passman, The Algebraic Structure of Group Rings, 1977),
        so a row is central iff it is constant on each class, X ==
        X[:, rep] (mod p): one gather, no product."""
        X = self._rows(X)
        return np.array_equal(X, X[:, self.class_representatives()])

    @memoized
    def center_subspace(self) -> FpSubspace:
        """Z(F_pG): the class sums, disjoint, each pivoted on the least
        element r = rep[r] of its class, so in canonical RREF as they are."""
        rep = self.class_representatives()
        pivots = np.flatnonzero(rep == np.arange(self.dim))
        rows = (rep == pivots[:, None]).astype(np.int64)
        return FpSubspace._from_rref(self.p, self.dim, rows, pivots)

    @memoized
    def central_ideal_part(self) -> FpSubspace:
        """Z(I(G)) = Z(F_pG) intersected with I(G)."""
        return augmentation_part(self, self.center_subspace())


def augmentation_part(ctx: AlgebraContext, V: FpSubspace) -> FpSubspace:
    """V ∩ I(G) for a subspace V that holds 1, in canonical RREF with no
    elimination: drop the last basis row b_j of augmentation eps_j != 0 and
    subtract eps_i / eps_j b_j from each earlier row b_i.  b_j is zero left
    of its pivot and on the other pivots, so the rest stay in RREF on their
    own pivots; the later rows have eps = 0 already."""
    p = ctx.p
    eps = V.basis.sum(axis=1) % p
    j = int(np.flatnonzero(eps)[-1])
    rows = np.delete(V.basis, j, axis=0)
    rows[:j] = (rows[:j] - np.outer(eps[:j] * pow(int(eps[j]), -1, p),
                                    V.basis[j])) % p
    return FpSubspace._from_rref(p, ctx.dim, rows, np.delete(V.pivots, j))


def product_space(ctx: AlgebraContext, X: FpSubspace, Y: FpSubspace) -> FpSubspace:
    """Span of all pairwise products of basis elements (= span XY)."""
    return FpSubspace(ctx.p, ctx.dim, ctx.products(X.basis, Y.basis))


def power_space(ctx: AlgebraContext, X: FpSubspace, m: int) -> FpSubspace:
    """X^m for any subspace X, by the chain X^m = X^{m-1} X: no library
    path calls it, the tests hold ``ctx.plus_power(None, m)`` to it, and
    perfbench/tracer.py wraps it."""
    if m < 1:
        raise AlgebraError("power_space requires m >= 1")
    acc = X
    for _ in range(m - 1):
        acc = product_space(ctx, acc, X)
    return acc


@memoized
def right_ideal(ctx: AlgebraContext, X: FpSubspace) -> FpSubspace:
    """XA, the right ideal generated by X (X included, as A is unital);
    memoized on ctx by the content of X, so an equal X is not eliminated."""
    return FpSubspace(ctx.p, ctx.dim, ctx.right_translates(X.basis))


def ideal_generated(ctx: AlgebraContext, X: FpSubspace) -> FpSubspace:
    """F_pG X F_pG, the smallest two-sided ideal containing X: the right
    ideal of the left ideal F_pG X, one elimination each.  No library path
    calls it; perfbench/tracer.py wraps it."""
    return right_ideal(ctx, FpSubspace(ctx.p, ctx.dim,
                                       ctx.left_translates(X.basis)))


def _coset_ideal(ctx: AlgebraContext, elements) -> FpSubspace:
    """I(N)F_pG for the normal subgroup N with these elements, in canonical
    RREF without an elimination.

    I(N)F_pG is the kernel of F_pG -> F_p[G/N] (Passman, The Algebraic
    Structure of Group Rings, 1977), spanned by e_a - e_b for a, b in one
    coset.  A coset C contributes the rows e_c - e_max(C) for the c in C
    other than max(C): each is 1 on its pivot c and p - 1 on the column
    max(C), which is no pivot and lies right of c.  All cosets come from
    one gather, the sorted rows gN of the table, one per least element.
    """
    rows = np.sort(ctx.group.table[:, list(elements)], axis=1)
    cosets = rows[np.unique(rows[:, 0], return_index=True)[1]]
    pivots = cosets[:, :-1].ravel()
    order = np.argsort(pivots)
    pivots = pivots[order]
    tails = np.repeat(cosets[:, -1], cosets.shape[1] - 1)[order]
    basis = np.zeros((len(pivots), ctx.dim), dtype=np.int64)
    rows = np.arange(len(pivots))
    basis[rows, pivots] = 1
    basis[rows, tails] = ctx.p - 1
    return FpSubspace._from_rref(ctx.p, ctx.dim, basis, pivots)


def normal_subgroup_ideal(ctx: AlgebraContext, N: Subgroup) -> FpSubspace:
    """I(N)F_pG = kernel of F_pG -> F_p(G/N), in closed form (see
    _coset_ideal); memoized on ctx by the elements of N."""
    if N.parent is not ctx.group:
        raise AlgebraError("subgroup does not belong to this context's group")
    key = ("normal_subgroup_ideal", N.elements)
    if key not in ctx._memo:
        if not N.is_normal():
            raise NotNormalError(
                "normal_subgroup_ideal requires a normal subgroup")
        ctx._memo[key] = _coset_ideal(ctx, N.elements)
    return ctx._memo[key]


@memoized
def omega_central(ctx: AlgebraContext, i: int) -> FpSubspace:
    """Omega_i(Z(I(G))): the subalgebra of central ideal elements generated by
    those with z^{p^i} = 0; memoized on ctx.

    Z(I(G)) is commutative, so z -> z^{p^i} is F_p-linear (Frobenius) and the
    nilpotent part is the kernel of that linear map; no enumeration needed.
    The kernel is closed under products with no check, and so generates
    nothing more: (zw)^{p^i} = z^{p^i} w^{p^i} = 0 for z, w in it, as
    Z(I(G)) is commutative and closed under products itself.
    """
    Z = ctx.central_ideal_part()
    if Z.dim == 0:
        return Z
    M = ctx.powers(Z.basis, ctx.p ** i)  # rows: images; Z itself if all 0
    if not M.any():
        return Z
    return FpSubspace(ctx.p, ctx.dim, nullspace(M.T, ctx.p) @ Z.basis % ctx.p)


@memoized
def omega_central_ideal(ctx: AlgebraContext, i: int) -> FpSubspace:
    """Omega_i(Z(I(G)))F_pG, the right ideal of lemma items 2 and 3;
    memoized on ctx."""
    return right_ideal(ctx, omega_central(ctx, i))


@memoized
def mho_ideal_mod_derived(ctx: AlgebraContext, i: int) -> FpSubspace:
    """mho_i(I(G))F_pG + I(G')F_pG, from at most one elimination; memoized.

    Modulo the derived ideal D = I(G')F_pG the algebra is commutative, so
    p^i-th powers of a basis of I(G) span all p^i-th powers there, and the
    two-sided ideal they generate is the right ideal P F_pG of their span
    P.  Only their residuals modulo D, read off frobenius_mod_derived,
    matter: the right translates of the nonzero distinct ones are
    eliminated once with D, and with none left the ideal is D itself."""
    I = ctx.augmentation_ideal()
    D = normal_subgroup_ideal(ctx, characteristic_subgroup(ctx.group, "derived"))
    P = D.reduce(frobenius_mod_derived(ctx, I.basis, ctx.p ** i))
    P = unique_rows(P[P.any(axis=1)])
    if not len(P):
        return D
    return FpSubspace(ctx.p, ctx.dim,
                      np.concatenate([D.basis, ctx.right_translates(P)]))


def frobenius_mod_derived(ctx: AlgebraContext, X, q: int) -> np.ndarray:
    """Rows congruent to the q-th powers of the rows of X modulo I(G')F_pG,
    q a power of p, by one gather: F_pG/I(G')F_pG = F_p[G/G'] is
    commutative of characteristic p and a^q = a on F_p, so there
    (sum a_g e_g)^q = sum a_g e_{g^q}.  A residual modulo any ideal that
    contains I(G')F_pG is therefore that of the exact power."""
    move = np.eye(ctx.dim, dtype=np.int64)[_powers(ctx.group, q)]
    return matmul_mod(np.asarray(X, dtype=np.int64) % ctx.p, move, ctx.p)


def unique_rows(A: np.ndarray) -> np.ndarray:
    """The distinct rows of A in lexicographic order, as
    np.unique(A, axis=0) gives them.  np.unique is not used: with no
    return_index its first call imports numpy.ma, some 9 ms per process."""
    A = A[np.lexsort(A.T[::-1])]
    keep = np.ones(len(A), dtype=bool)
    keep[1:] = (A[1:] != A[:-1]).any(axis=1)
    return A[keep]


def tables_commute(xy: np.ndarray, yx: np.ndarray, a: int, b: int) -> bool:
    """Whether a rows X and b rows Y commute, from xy = ctx.products(X, Y)
    and yx = ctx.products(Y, X); X commutes iff its table is symmetric."""
    return np.array_equal(xy.reshape(a, b, xy.shape[1]),
                          yx.reshape(b, a, yx.shape[1]).swapaxes(0, 1))


def frobenius_chain(ctx: AlgebraContext, X) -> np.ndarray:
    """The rows of X raised to their p^k-th powers, stacked as
    chain[k] = X^{p^k} for k = 0, 1, ... while any row is nonzero.

    On a commutative algebra Frobenius is additive, so chain[k] spans the
    p^k-th powers of the span of X, and 1 + x has order p^len(chain) for
    a single nonzero row x.  Raises on a nonzero X^{p^k} with p^k >= |G|,
    which no nilpotent element reaches, since I(G)^{|G|} = 0."""
    X = np.asarray(X, dtype=np.int64).reshape(-1, ctx.dim) % ctx.p
    chain = []
    while X.any():
        chain.append(X)
        if ctx.p ** len(chain) > ctx.dim:
            raise AlgebraError("ideal is not nilpotent")
        X = ctx.powers(X, ctx.p)
    return np.stack(chain) if chain else X[None][:0]


def unit_exponent_commutative(ctx: AlgebraContext, ideal: FpSubspace) -> int:
    """exp(1 + I(A)) = p^s with s minimal such that b^{p^s} = 0 on a basis.

    Valid because Frobenius is additive on a commutative algebra; the input
    ideal must be nilpotent and commutative, checked unless G is abelian."""
    if not ctx.group.is_abelian():
        k, table = ideal.dim, ctx.products(ideal.basis, ideal.basis)
        if not tables_commute(table, table, k, k):
            raise AlgebraError("ideal is not commutative")
    return ctx.p ** len(frobenius_chain(ctx, ideal.basis))


@dataclass(frozen=True)
class AugmentedSubalgebra:
    """A unital subalgebra B of F_pG with its augmentation ideal B ∩ I(G).
    B = F_p·1 ⊕ I(B) with 1 central, so ``from_space`` reads all it checks
    off the one table I(B)·I(B), formed over the support of I(B):
    closure is I(B)^2 ⊆ B, tested on B's free columns
    (FpSubspace.contains_vector), ``commutative`` the table's symmetry
    under i <-> j.  For C = F_3He3 in the recover input C3 x He3 (order
    81) the table took 0.56 ms (0.91 with the whole gather) and the
    closure test 0.65 ms (1.01 as reduce(table).any()), so from_space
    1.64 ms where it took 2.49.  The table is not kept: a recovery level
    builds B from a projection, with no table, and reads I(B)^2 off
    Jennings coordinates (decompose._aug_square)."""

    ctx: AlgebraContext
    space: FpSubspace
    aug_ideal: FpSubspace
    commutative: bool

    @classmethod
    def from_space(cls, ctx: AlgebraContext, space: FpSubspace) -> "AugmentedSubalgebra":
        """The subspace as an augmented subalgebra; a failed check raises a
        VerificationError named subalgebra-unit or subalgebra-closure.
        Closure tests the table against the space a chunk of rows at a
        time, with no elimination.  I(B) has codimension 1 with no check:
        augmentation_part drops exactly one row of the basis."""
        if not space.contains_vector(ctx.one):
            raise VerificationError("subalgebra-unit",
                                    "subspace does not contain the unit")
        aug = augmentation_part(ctx, space)
        k = aug.dim
        table = ctx.products(aug.basis, aug.basis)
        commutative = tables_commute(table, table, k, k)
        # a commutative table repeats x_i x_j as x_j x_i: test i <= j only
        rows = (np.flatnonzero(np.arange(k)[:, None] <= np.arange(k))
                if commutative else np.arange(k * k))
        step = max(1, _REDUCE_ENTRIES // ctx.dim)
        if not all(space.contains_vector(table[rows[a:a + step]])
                   for a in range(0, len(rows), step)):
            raise VerificationError("subalgebra-closure",
                                    "subspace is not closed under multiplication")
        return cls(ctx, space, aug, commutative)

    @functools.cached_property
    def frobs(self) -> np.ndarray:
        """frobenius_chain of the basis of I(B), formed on first read."""
        return frobenius_chain(self.ctx, self.aug_ideal.basis)

    @functools.cached_property
    def invariants(self) -> tuple[int, ...]:
        """The invariants of A, descending, for commutative B = F_pA, read
        off Frobenius (Deskins, Duke Math. J. 23, 1956): x -> x^{p^k} maps
        I(B) onto I(F_p[A^{p^k}]), so |A^{p^k}| = 1 + rank I(B)^{p^k},
        and A has log_p |A^{p^k} : A^{p^{k+1}}| cyclic factors of order
        above p^k."""
        p, n = self.ctx.p, self.ctx.dim
        logs = [round(math.log(1 + FpSubspace(p, n, rows).dim, p))
                for rows in self.frobs] + [0]
        return invariants_from_counts(p, [a - b for a, b in zip(logs, logs[1:])])

    @property
    def dim(self) -> int:
        return self.space.dim


def group_algebra_subalgebra(ctx: AlgebraContext, elements) -> AugmentedSubalgebra:
    """The span of a set of group elements as an augmented subalgebra."""
    rows = np.array([ctx.basis_vector(g) for g in elements])
    return AugmentedSubalgebra.from_space(ctx, FpSubspace(ctx.p, ctx.dim, rows))


def frattini_quotient(ctx: AlgebraContext) -> SimpleNamespace:
    """I(G)/I(G)^2 as its dim, section and project, which
    perfbench/fixtures.py reads.  Rows 1: of F = jennings_functionals(2),
    the weight-1 Jennings functionals, have kernel I(G)^2 on I(G): the
    section is the rows of I(G)'s basis at the pivot columns of M =
    F[1:] I(G)^T, and one elimination of [M | 1] gives E = M[:, pivots]^-1,
    so project(v) = E F[1:] v, for a vector or each row of a 2-d array.
    It raises off I(G), where F[0], the augmentation, is nonzero."""
    p, I = ctx.p, ctx.augmentation_ideal().basis
    F = ctx.jennings_functionals(2)
    R, pivots = rref(np.concatenate([matmul_mod(F[1:], I.T, p),
                                     np.eye(len(F) - 1, dtype=np.int64)],
                                    axis=1), p)
    inverse = R[:, len(I):]

    def project(vec) -> np.ndarray:
        Fv = matmul_mod(np.asarray(vec, dtype=np.int64) % p, F.T, p)
        if Fv[..., 0].any():
            raise AlgebraError("vector outside the augmentation ideal I(G)")
        return matmul_mod(Fv[..., 1:], inverse.T, p)

    return SimpleNamespace(dim=len(pivots), section=I[list(pivots)],
                           project=project)
