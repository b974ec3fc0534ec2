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
                               EnumerationCapExceeded,
                               normal_subgroup_ideal, product_space,
                               unit_exponent_commutative)
from pgroupalg.decompose import _group_closure_vectors
from pgroupalg.fplin import FpSubspace
from pgroupalg.groups import (ORACLE_CAP, PGroup, Subgroup,
                              abelian_invariants, agemo_derived,
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


# ---------------------------------------------------------------------------
# algebra


def augmentation(ctx: AlgebraContext, v) -> int:
    """The augmentation sum_g v_g mod p, which vanishes exactly on I(G);
    cross-checks ``AlgebraContext.augmentation_ideal``."""
    return int(np.asarray(v, dtype=np.int64).sum() % ctx.p)


def commutator_span(ctx: AlgebraContext, X: FpSubspace, Y: FpSubspace) -> FpSubspace:
    """span{xy - yx} over the bases of X and Y, from
    ``AlgebraContext.commutators``; the tests hold it to the per-pair
    scatter products."""
    return FpSubspace(ctx.p, ctx.dim, ctx.commutators(X.basis, Y.basis))


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
    acc = FpSubspace.zero(ctx.p, ctx.dim)
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
    closure = _group_closure_vectors(ctx, units, limit)
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
