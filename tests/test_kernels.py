"""Batched F_p kernels against the per-pair and dense references they replace.

The references live here, not in the library: products as one ``np.add.at``
scatter per pair through the Cayley table, RREF as one dense
column-by-column elimination of the whole matrix, a quotient's section
as the greedy scan that keeps each row of W outside U plus the rows kept,
the two-sided ideal as the fixpoint of closing under left and right
translates, I(N)F_pG as the span of the translates (e_n - 1)e_g, and the
stream of highest-order units as one ``lexsort`` of that class.
"""

import collections
import functools
import importlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pgroupalg.algebra as algebra
import pgroupalg.cli as cli
import pgroupalg.fplin as fplin
import pgroupalg.decompose as decompose
import pgroupalg.groups as groups
from pgroupalg.algebra import (AlgebraContext, AlgebraError,
                               AugmentedSubalgebra, augmentation_part,
                               frattini_quotient, frobenius_chain,
                               frobenius_mod_derived,
                               group_algebra_subalgebra, ideal_generated,
                               mho_ideal_mod_derived, normal_subgroup_ideal,
                               power_space, product_space, unique_rows)
from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.decompose import _units_by_order, find_group_basis_commutative
from pgroupalg.fplin import FpSubspace, matmul_mod, rref
from pgroupalg.groups import (PGroup, Subgroup, _closure, abelian_invariants,
                              agemo_derived, all_subgroups, catalog_build,
                              characteristic_subgroup, jennings_basis,
                              jennings_series, r_subquotient)
from pgroupalg.io import group_from_dict
from pgroupalg.lemmas import (TensorFactorizationInput, VerificationError,
                              verify_tensor_factorization)

from oracles import (aug_square, augmentation_power, commutator_span,
                     conjugacy_classes, conjugate, coordinates,
                     dimension_subgroup, factorization_failure, full_space,
                     group_basis_search, jennings_functionals_per_m,
                     jennings_rows,
                     greedy_section, group_closure_vectors, intersect,
                     row_powers, span, unit_closure_invariants,
                     units_of_order)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# nonabelian groups at p = 2 and 3 check the left/right orientation
GROUPS = ("D8", "Q8", "C2xQ16", "He3", "C5xC5")
CATALOG = (builtin_catalog(p=2, max_order=64)
           + builtin_catalog(p=3, max_order=81)
           + builtin_catalog(p=5, max_order=25))


def ref_multiply(G, u, v):
    out = np.zeros(G.order, dtype=np.int64)
    np.add.at(out, G.table.ravel(), np.outer(u, v).ravel())
    return out % G.p


def ref_dense_rref(rows, p):
    A = np.array(rows, dtype=np.int64) % p
    nrows, ncols = A.shape
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(A[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        A[[r, i]] = A[[i, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        col = A[:, c].copy()
        col[r] = 0
        A = (A - np.outer(col, A[r])) % p
        pivots.append(c)
        r += 1
    return A[:r], tuple(pivots)


def unit(G, g):
    v = np.zeros(G.order, dtype=np.int64)
    v[g] = 1
    return v


@pytest.fixture(params=GROUPS)
def setting(request):
    G = catalog_by_name(request.param)
    rng = np.random.default_rng(sum(map(ord, request.param)))
    X = rng.integers(0, G.p, size=(5, G.order))
    Y = rng.integers(0, G.p, size=(4, G.order))
    return AlgebraContext(G), X, Y


def test_multiply_matches_scatter(setting):
    ctx, X, Y = setting
    for x in X:
        for y in Y:
            assert np.array_equal(ctx.multiply(x, y),
                                  ref_multiply(ctx.group, x, y))


def test_products_and_commutators_match_scatter(setting):
    ctx, X, Y = setting
    G = ctx.group
    want = np.array([ref_multiply(G, x, y) for x in X for y in Y])
    assert np.array_equal(ctx.products(X, Y), want)
    swapped = np.array([ref_multiply(G, y, x) for x in X for y in Y])
    spaces = (FpSubspace(G.p, G.order, X), FpSubspace(G.p, G.order, Y))
    assert commutator_span(ctx, *spaces) == \
        FpSubspace(G.p, G.order, (want - swapped) % G.p)


def test_gathers_in_small_chunks(setting, monkeypatch):
    ctx, X, Y = setting
    products = ctx.products(X, Y)
    for entries in (2 * ctx.dim * ctx.dim, 1):  # two rows, one row at a time
        monkeypatch.setattr(algebra, "_GATHER_ENTRIES", entries)
        assert np.array_equal(ctx.products(X, Y), products)


def test_products_and_rowwise_refuse_other_widths(setting):
    # a support gather would read a narrower row as zero-padded and give a
    # wrong table with no error, so every row must have width |G|; the
    # row-wise Frobenius and power refuse other widths too
    ctx, X, Y = setting
    Z = ctx.center_subspace().basis
    for bad in (X[:, :-1], np.concatenate([X, X[:, :1]], axis=1), X[0],
                X[:, :, None]):
        with pytest.raises(AlgebraError):
            ctx.products(bad, Y)
        with pytest.raises(AlgebraError):
            ctx.products(Y, bad)
    for bad in (Z[:, :-1], np.concatenate([Z, Z[:, :1]], axis=1), Z[0],
                Z[:, :, None]):
        with pytest.raises(AlgebraError):
            ctx.frobenius(bad)
    # frobenius_chain takes one vector as a row, but not two rows in one
    W = ctx.central_ideal_part().basis
    assert np.array_equal(frobenius_chain(ctx, W[-1]),
                          frobenius_chain(ctx, W[-1:]))
    for bad in (W[:, :-1], W[:, :, None], np.append(W[-1], W[-1])):
        with pytest.raises(AlgebraError):
            frobenius_chain(ctx, bad)
    # p_power takes one vector, power one vector, and no other width
    assert np.array_equal(ctx.p_power(Z[1], 1), ctx.frobenius(Z[1:2])[0])
    for bad in (X[0, :-1], X[:1], np.append(X[0], 0)):
        for m in (0, 2):
            with pytest.raises(AlgebraError):
                ctx.power(bad, m)
        for i in (0, 1):
            with pytest.raises(AlgebraError):
                ctx.p_power(bad, i)


def coordinate_factor(a_name, g0_name):
    """(ctx, I(C)) for C = F_pG0, the coordinate factor of A x G0: its rows
    touch |G0| of the |G| columns."""
    G0 = catalog_by_name(g0_name)
    ctx = AlgebraContext(catalog_build("direct_product",
                                       catalog_by_name(a_name), G0))
    return ctx, group_algebra_subalgebra(ctx, range(G0.order)).aug_ideal.basis


def sparse_inputs(ctx, rng):
    """Rows with zero columns, a zero row, all zero and one column."""
    n, p = ctx.dim, ctx.p
    X = rng.integers(0, p, size=(6, n))
    X[:, rng.random(n) < 0.7] = 0
    yield "zero-columns", X
    Z = X.copy()
    Z[2] = 0
    yield "zero-row", Z
    yield "all-zero", np.zeros((3, n), dtype=np.int64)
    S = np.zeros((4, n), dtype=np.int64)
    S[:, rng.integers(n)] = rng.integers(1, p, size=4)
    yield "one-column", S


SPARSE_CASES = [("D8", None), ("Q8", None), ("C2", "D8"), ("He3", None),
                ("C3", "He3"), ("C5xC5", None), ("C5", "C5")]


@pytest.mark.parametrize("name, g0_name", SPARSE_CASES,
                         ids=[f"{a}-{g}" if g else a for a, g in SPARSE_CASES])
def test_support_products_and_powers_match_scatter(monkeypatch, name,
                                                   g0_name):
    # products gathers only over the columns where the left factor is
    # nonzero; on sparse rows, a zero row, an all-zero X, a single column
    # and I(C) of a coordinate factor it equals the scatter reference,
    # also gathering one row at a time, and so do the powers of
    # oracles.row_powers, which the tests read for rows off the centre
    if g0_name:
        ctx, IC = coordinate_factor(name, g0_name)
        inputs = [("coordinate-IC", IC)]
        assert IC.any(axis=0).sum() == catalog_by_name(g0_name).order
    else:
        ctx, inputs = AlgebraContext(catalog_by_name(name)), []
    G, p = ctx.group, ctx.p
    rng = np.random.default_rng(sum(map(ord, name)) + ctx.dim)
    inputs += list(sparse_inputs(ctx, rng))
    Y = rng.integers(0, p, size=(3, ctx.dim))
    for entries in (algebra._GATHER_ENTRIES, 1):
        monkeypatch.setattr(algebra, "_GATHER_ENTRIES", entries)
        for label, X in inputs:
            for left, right in ((X, Y), (Y, X), (X, X)):
                want = np.array([ref_multiply(G, x, y) for x in left
                                 for y in right]).reshape(-1, ctx.dim)
                assert np.array_equal(ctx.products(left, right), want), label
            for m in (0, 1, 2, 3, p, p + 1):
                want = np.array([functools.reduce(
                    lambda acc, _: ref_multiply(G, acc, x), range(m),
                    unit(G, 0)) for x in X])
                assert np.array_equal(row_powers(ctx, X, m), want), \
                    (label, m)


def test_translates_match_scatter(setting):
    ctx, X, _ = setting
    G = ctx.group
    left = np.array([ref_multiply(G, unit(G, g), x)
                     for x in X for g in range(G.order)])
    right = np.array([ref_multiply(G, x, unit(G, g))
                      for x in X for g in range(G.order)])
    assert np.array_equal(ctx.left_translates(X), left)
    assert np.array_equal(ctx.right_translates(X), right)
    if not G.is_abelian():
        assert not np.array_equal(left, right)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8, 9])
def test_rowwise_powers_match_scatter(setting, m):
    # oracles.row_powers, the reference for powers of rows off the centre,
    # and power, square-and-multiply over multiply, equal m scatters
    ctx, X, _ = setting
    G = ctx.group
    for x, got in zip(X, row_powers(ctx, X, m)):
        acc = unit(G, 0)
        for _ in range(m):
            acc = ref_multiply(G, acc, x)
        assert np.array_equal(got, acc)
        assert np.array_equal(ctx.power(x, m), acc)


def test_normal_subgroup_ideal_matches_scatter(setting):
    ctx, _, _ = setting
    G = ctx.group
    for N in all_subgroups(G):
        if not N.is_normal():
            continue
        rows = [(ref_multiply(G, unit(G, n), unit(G, g)) - unit(G, g)) % G.p
                for n in N.elements if n for g in range(G.order)]
        want = FpSubspace(G.p, G.order, np.array(rows).reshape(-1, G.order))
        assert normal_subgroup_ideal(ctx, N) == want
        if N.order == G.order:
            assert ctx.augmentation_ideal() == want


def test_conjugacy_classes_match_group_conjugation(setting):
    # center_subspace's one gather against the class sums of the oracle's
    # loop over sets of conjugates: the same rows, each pivoted on the
    # least element of its class, in canonical RREF as written
    ctx, _, _ = setting
    G = ctx.group
    classes = conjugacy_classes(ctx)
    sums = np.zeros((len(classes), G.order), dtype=np.int64)
    for k, cls in enumerate(classes):
        sums[k, list(cls)] = 1
    Z = ctx.center_subspace()
    assert np.array_equal(Z.basis, sums)
    assert Z.pivots == tuple(cls[0] for cls in classes)
    assert Z == FpSubspace(G.p, G.order, sums)


def test_jennings_rows_match_scatter(setting):
    # row sum_k a_k p^{k-1} is (x_1 - 1)^{a_1} (x_2 - 1)^{a_2} ..., of
    # weight sum_k a_k w_k
    ctx, _, _ = setting
    G = ctx.group
    rows, weights = jennings_rows(ctx)
    basis = jennings_basis(G)
    assert rows.shape == (G.order, G.order)
    for r in range(G.order):
        digits = [r // G.p ** k % G.p for k in range(len(basis))]
        acc = unit(G, 0)
        for (x, _), a in zip(basis, digits):
            for _ in range(a):
                acc = ref_multiply(G, acc, (unit(G, x) - unit(G, 0)) % G.p)
        assert np.array_equal(rows[r], acc), r
        assert weights[r] == sum(a * w for (_, w), a in zip(basis, digits))


@pytest.mark.parametrize("G", CATALOG, ids=lambda G: f"p{G.p}-{G.name}")
def test_jennings_powers_match_product_chain(G):
    # I(G)^m from the Jennings rows against the chain of power_space,
    # X^m = X^{m-1} X, stepped once per m up to the first zero power (a
    # fresh power_space per m would repeat the chain m times), and the
    # algebra-side dimension subgroups {g : g - 1 in I(G)^m} against the
    # group-side series
    ctx = AlgebraContext(G)
    I = ctx.augmentation_ideal()
    assert augmentation_power(ctx, 2) == power_space(ctx, I, 2)
    series = jennings_series(G)
    chain, m = I, 1
    while True:
        assert augmentation_power(ctx, m) == chain, m
        assert dimension_subgroup(ctx, m) == series[min(m, len(series)) - 1]
        if not chain.dim:
            break
        chain = product_space(ctx, chain, I)
        m += 1
    # past the Loewy length every power is the chain's zero, and X + I^m
    # is X, with no functional row left to eliminate
    X = ctx.center_subspace()
    for past in (m + 1, 2 * m, G.order + 1):
        assert augmentation_power(ctx, past) == chain
        assert ctx.plus_power(X, past) is X
        assert len(ctx.jennings_functionals(past)) == G.order
    rows, _ = jennings_rows(ctx)
    assert FpSubspace(G.p, G.order, rows).dim == G.order


@pytest.mark.parametrize("G", CATALOG, ids=lambda G: f"p{G.p}-{G.name}")
def test_jennings_functionals_are_the_dual_basis(G):
    # f_k(e_g) = prod_j C(b_j(g), k_j), from the words of the elements,
    # against the Jennings rows built by products: F J^T = 1, and the rows
    # of weight < m are the functionals of jennings_functionals(m)
    ctx = AlgebraContext(G)
    rows, weights = jennings_rows(ctx)
    F = ctx.jennings_functionals(G.order + 1)
    assert np.array_equal(matmul_mod(F, rows.T, G.p),
                          np.eye(G.order, dtype=np.int64))
    for m in range(1, int(weights.max()) + 2):
        assert np.array_equal(ctx.jennings_functionals(m), F[weights < m])
    assert np.array_equal(ctx.jennings_functionals(1),
                          np.ones((1, G.order), dtype=np.int64))


@pytest.mark.parametrize("G", CATALOG, ids=lambda G: f"p{G.p}-{G.name}")
def test_jennings_functionals_match_per_m_construction(G, monkeypatch):
    # for every m, up to one past the top weight, the rows selected from
    # the context's one table against the oracle's construction for that
    # m alone: the same rows in the same order, read only; the table is
    # built once for all of them
    builds = []
    monkeypatch.setattr(algebra, "jennings_basis",
                        lambda H: builds.append(H) or jennings_basis(H))
    ctx = AlgebraContext(G)
    top = (G.p - 1) * sum(w for _, w in jennings_basis(G))
    for m in range(1, top + 3):
        F = ctx.jennings_functionals(m)
        assert np.array_equal(F, jennings_functionals_per_m(ctx, m)), m
        assert not F.flags.writeable
    assert builds == [G]


@pytest.mark.parametrize("name", GROUPS + ("C4xC2", "M16", "C9xC3"))
def test_plus_power_matches_elimination(name):
    # X + I(G)^m from the functionals against the elimination of the two
    # bases, on the zero space, F_pG, a central and a normal-subgroup
    # ideal and seeded random subspaces, for every m up to the Loewy
    # length; each result comes back in canonical RREF (_from_rref)
    G = catalog_by_name(name)
    ctx = AlgebraContext(G)
    rng = np.random.default_rng(5)
    spaces = [FpSubspace(G.p, G.order), full_space(ctx.p, ctx.dim),
              ctx.center_subspace(), ctx.augmentation_ideal(),
              normal_subgroup_ideal(
                  ctx, characteristic_subgroup(G, "frattini"))]
    spaces += [FpSubspace(G.p, G.order, rng.integers(0, G.p, (k, G.order)))
               for k in (1, 2, 5)]
    I = ctx.augmentation_ideal()
    Im, m = I, 1
    while True:
        assert augmentation_power(ctx, m) == Im
        for X in spaces:
            assert ctx.plus_power(X, m) == X + Im, (m, X)
        if not Im.dim:
            break
        Im, m = product_space(ctx, Im, I), m + 1


@given(st.integers(0, 12), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_unique_rows_match_numpy(nrows, ncols, seed):
    A = np.random.default_rng(seed).integers(0, 3, size=(nrows, ncols))
    assert np.array_equal(unique_rows(A), np.unique(A, axis=0))


def test_product_spaces_match_scatter(setting):
    ctx, _, _ = setting
    G = ctx.group
    I = ctx.augmentation_ideal()
    rows = [ref_multiply(G, x, y) for x in I.basis for y in I.basis]
    assert product_space(ctx, I, I) == FpSubspace(G.p, G.order, np.array(rows))
    full = full_space(ctx.p, ctx.dim)
    comm = [(ref_multiply(G, x, y) - ref_multiply(G, y, x)) % G.p
            for x in full.basis for y in full.basis]
    assert commutator_span(ctx, full, full) == \
        FpSubspace(G.p, G.order, np.array(comm))


# (A, G0, twist seed): B is the coordinate F_pA of A x G0, or, with a
# seed, F_pA twisted by a central unit of F_pG0 (perfbench's fixture)
STREAM_CASES = [
    pytest.param(a, g0, seed,
                 id=f"{a}-{g0}" + ("" if seed is None else "-twisted"))
    for a, g0, seed in [("C2xC4", "D8", None), ("C8", "Q8", None),
                        ("C3xC3", "C3", None), ("C5", "C5", None),
                        ("C2xC4", "D8", 0), ("C3", "He3", 0),
                        ("C5", "C5", 0)]]


@pytest.fixture(scope="module")
def bench_fixtures():
    """perfbench/fixtures.py, imported as it is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("fixtures")


def stream_subalgebra(bench_fixtures, a_name, g0_name, twist_seed):
    rng = None if twist_seed is None else np.random.default_rng(twist_seed)
    data, twist = bench_fixtures.factorization_fixture(a_name, g0_name, rng)
    assert (twist["w"] is None) == (rng is None)
    _, B, _ = group_from_dict(data)
    return B


def all_coefficient_rows(p, d):
    return np.array(list(itertools.product(range(p), repeat=d)))[1:]


def ref_order(ctx, u):
    k, acc = 1, u
    while not np.array_equal(acc, ctx.one):
        acc = ref_multiply(ctx.group, acc, u)
        k += 1
    return k


@pytest.mark.parametrize("a_name,g0_name,twist_seed", STREAM_CASES)
def test_units_by_order_match_per_unit_orders(bench_fixtures, a_name,
                                              g0_name, twist_seed):
    B = stream_subalgebra(bench_fixtures, a_name, g0_name, twist_seed)
    ctx, IB, p = B.ctx, B.aug_ideal, B.ctx.p
    coeffs = all_coefficient_rows(p, IB.dim)
    units = [(ctx.one + c @ IB.basis) % p for c in coeffs]
    orders = [ref_order(ctx, u) for u in units]
    want = sorted((u for u, k in zip(units, orders) if k == max(orders)),
                  key=lambda u: u.tobytes())
    got = list(_units_by_order(ctx, IB, frobenius_chain(ctx, IB.basis)))
    assert len(got) == len(want)
    assert all(np.array_equal(u, v) for u, v in zip(got, want))


@pytest.mark.parametrize("a_name,g0_name,twist_seed", [
    ("C4xC4", "C2", None), ("C3xC3", "C3", None), ("C5", "C5", None),
    ("C5", "C5", 0)])
def test_units_by_order_match_the_fixed_chunk_reference(
        monkeypatch, bench_fixtures, a_name, g0_name, twist_seed):
    # the growing chunks, drained in full (all 2^15 coefficient rows of
    # C4xC4 x C2), give the units of the fixed 4,096-row chunks in order
    B = stream_subalgebra(bench_fixtures, a_name, g0_name, twist_seed)
    ctx, IB = B.ctx, B.aug_ideal
    frobs = frobenius_chain(ctx, IB.basis)
    real, formed = decompose.matmul_mod, []

    def counted(A, Bm, p):
        formed.append(len(A))
        return real(A, Bm, p)

    monkeypatch.setattr(decompose, "matmul_mod", counted)
    got = np.array(list(_units_by_order(ctx, IB, frobs)))
    want = np.array(list(units_of_order(ctx, IB, frobs, len(frobs))))
    assert len(got) and np.array_equal(got, want)
    # 64 rows first, each chunk twice the last up to the entry cap
    cap = decompose._UNIT_ENTRIES // (2 * ctx.dim)
    assert sum(formed) == ctx.p ** IB.dim
    assert formed[0] == min(64, ctx.p ** IB.dim)
    assert all(b == min(2 * a, cap) for a, b in zip(formed, formed[1:-1]))


def test_units_by_order_without_an_identity_pivot():
    # B = span{1, x, y, xy} with x = e_1 + e_2, y = e_3 + e_4 in F_2[C2^3]:
    # no element of I(B) touches the identity, so the byte order is the
    # plain lexicographic order of the coefficients
    ctx = AlgebraContext(catalog_by_name("C2xC2xC2"))
    x, y = unit(ctx.group, 1) + unit(ctx.group, 2), \
        unit(ctx.group, 3) + unit(ctx.group, 4)
    B = AugmentedSubalgebra.from_space(
        ctx, span(2, 8, [ctx.one, x, y, ctx.multiply(x, y)]))
    IB = B.aug_ideal
    assert IB.pivots[0] != 0
    frobs = frobenius_chain(ctx, IB.basis)
    assert np.array_equal(np.array(list(_units_by_order(ctx, IB, frobs))),
                          ref_top_units(ctx, IB))


def test_units_by_order_counts_past_int64():
    # 1 + I(F_2[C2^7]) has 2^127 units, all of order 2: a digit whose
    # place value p^j does not fit in int64 must read 0, so the stream
    # starts with the odd-weight 0/1 rows in lexicographic order
    ctx = AlgebraContext(catalog_by_name("C2xC2xC2xC2xC2xC2xC2"))
    IB = ctx.augmentation_ideal()
    frobs = frobenius_chain(ctx, IB.basis)
    with np.errstate(all="raise"):
        got = list(itertools.islice(_units_by_order(ctx, IB, frobs), 8))
    want = [[(n >> (127 - t)) & 1 for t in range(128)]
            for n in range(1, 64) if bin(n).count("1") % 2][:8]
    assert np.array_equal(np.array(got), np.array(want))


def count_rref_rows(monkeypatch) -> list[int]:
    """The row count of every later call of rref, through each binding of
    it in the library's modules."""
    real, rows = fplin.rref, []

    def counting(A, p):
        rows.append(len(A))
        return real(A, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("pgroupalg") and getattr(module, "rref",
                                                    None) is real:
            monkeypatch.setattr(module, "rref", counting)
    return rows


def test_recover_of_c3_he3_eliminates_few_rows(bench_fixtures, monkeypatch):
    # one twisted recovery of C3 x He3 (order 81), from the group file to
    # the report: a dense elimination of about |G| rows for each I(G)^m
    # and X + I(G)^m passed 1,100 rows, |G|-row eliminations of the
    # cyclic split's ideal and of Lambda's kernel passed 475, and the
    # split's ideal eliminated apart from its section passed 185, each
    # level's projection of C with B's passed 157, and Lambda's rank test
    # in Jennings coordinates passed 130
    data, _ = bench_fixtures.factorization_fixture(
        "C3", "He3", np.random.default_rng(7))
    rows = count_rref_rows(monkeypatch)
    G, B, C = group_from_dict(data)
    report = decompose.recover_decomposition(
        verify_tensor_factorization(B.ctx, B, C))
    assert report.b_invariants == (3,)
    assert 0 < sum(rows) <= 128, sum(rows)


def recover_corpus(bench_fixtures):
    """The (A, G0) pairs that perfbench's recover and odd-p workloads
    recover, at p = 2, 3 and 5."""
    f = bench_fixtures
    pairs = [(a, g0) for a in f.RECOVER_A for g0 in f.RECOVER_G0
             if catalog_by_name(a).order * catalog_by_name(g0).order
             <= f.RECOVER_MAX_ORDER]
    return pairs + [f.UNIT_HEAVY, *f.ODD_P_RECOVER]


def test_recover_corpus_eliminates_few_rows(bench_fixtures, monkeypatch):
    # the recover corpus twisted at seed 7, from the loaded factorization
    # to the report: 6,035 rows when each level eliminated |G| rows for
    # its split ideal, its quotient's whole space and Lambda's kernel,
    # 2,253 when it eliminated the split's ideal apart from its section,
    # 1,994 when each level projected C with B, and 1,818 when each level
    # tested b - 1 outside ker Lambda by a rank in Jennings coordinates
    rows = count_rref_rows(monkeypatch)
    total = 0
    for a_name, g0_name in recover_corpus(bench_fixtures):
        data, _ = bench_fixtures.factorization_fixture(
            a_name, g0_name, np.random.default_rng(7))
        _, B, C = group_from_dict(data)
        rows.clear()
        report = decompose.recover_decomposition(
            verify_tensor_factorization(B.ctx, B, C))
        assert report.b_invariants == abelian_invariants(
            catalog_by_name(a_name))
        total += sum(rows)
    assert 0 < total <= 1700, total


def test_lemma_checks_eliminate_few_rows(bench_fixtures, monkeypatch):
    # every lemma check of the identities and odd-p workloads at seed 1,
    # each on a fresh group: 11,529 and 7,072 rows when Omega_i(Z(I(G)))
    # F_pG eliminated all |G| right translates of Omega_i(Z(I(G))), and
    # 2,413 and 828 from the translates over a transversal of the centre
    rows = count_rref_rows(monkeypatch)
    totals = {}
    for workload in ("identities", "odd-p"):
        rows.clear()
        for item, data in bench_fixtures.workload_items(workload, 1):
            if item["command"] == "lemmas":
                G, _, _ = group_from_dict(data)
                assert cli._lemmas(G, None)["pass"], item["id"]
        totals[workload] = sum(rows)
    assert totals["identities"] <= 2500 and totals["odd-p"] <= 900, totals


def test_a_lattice_pass_builds_each_quotient_once(bench_fixtures, monkeypatch,
                                                  tmp_path):
    # every item of the lattice workload at seed 1 through cli.run, each on
    # a fresh group: one quotient group, one AlgebraContext and one
    # class-sum table per distinct (group, normal subgroup) that the
    # cyclic-factor items ask for, 38 in all; 58 when cyclic_factor_test
    # built a fresh quotient and context for each i
    real_quotient, real_trusted = groups.quotient_group, \
        PGroup._trusted.__func__
    real_init, asked, quotients, contexts = AlgebraContext.__init__, {}, [], []

    def quotient_group(G, N):
        asked[id(G), N.elements] = G  # keeps G, so its id is not reused
        return real_quotient(G, N)

    def trusted(cls, p, table, name=""):
        Q = real_trusted(cls, p, table, name)
        if sys._getframe(1).f_code.co_name == "quotient_group":
            quotients.append(Q)
        return Q

    def init(ctx, group):
        real_init(ctx, group)
        contexts.append(ctx)

    monkeypatch.setattr(groups, "quotient_group", quotient_group)
    monkeypatch.setattr(PGroup, "_trusted", classmethod(trusted))
    monkeypatch.setattr(AlgebraContext, "__init__", init)
    path, out = tmp_path / "input.json", str(tmp_path / "report.json")
    for item, data in bench_fixtures.workload_items("lattice", 1):
        path.write_text(json.dumps(data))
        assert cli.run([item["command"], "--input", str(path),
                        "--out", out]) == 0, item["id"]
    tables = sum(("class_sum_powers",) in ctx._memo for ctx in contexts)
    assert {id(ctx.group) for ctx in contexts} <= {id(Q) for Q in quotients}
    assert (len(asked), len(quotients), len(contexts), tables) == \
        (38, 38, 38, 38)


def assert_invariants_agree(B, want, label):
    units = find_group_basis_commutative(B)
    closure = unit_closure_invariants(B.ctx, units, B.dim + 1)
    assert closure == B.invariants == want, label


@pytest.mark.parametrize("twist_seed", [None, 7],
                         ids=["coordinate", "twisted"])
def test_frobenius_invariants_match_unit_closure(bench_fixtures, twist_seed):
    # the invariants of A read off the ranks of Frobenius on B = F_pA equal
    # those of the group the found units generate, built as a PGroup
    for a_name, g0_name in recover_corpus(bench_fixtures):
        rng = None if twist_seed is None else np.random.default_rng(twist_seed)
        data, _ = bench_fixtures.factorization_fixture(a_name, g0_name, rng)
        _, B, _ = group_from_dict(data)
        assert_invariants_agree(B, abelian_invariants(catalog_by_name(a_name)),
                                (a_name, g0_name))


def test_frobenius_invariants_match_unit_closure_on_sampled_units():
    # 1 + I(F_3[C9xC3]) has 3^26 units, past the 2^22 at which an earlier
    # backtracking search fell back to seeded samples
    A = catalog_by_name("C9xC3")
    G = catalog_build("direct_product", A, catalog_by_name("C3"))
    ctx = AlgebraContext(G)
    B = group_algebra_subalgebra(ctx, [a * 3 for a in range(A.order)])
    assert ctx.p ** B.aug_ideal.dim == 3 ** 26
    assert_invariants_agree(B, (9, 3), "C9xC3")


# (A, G0, twist seed) of the inputs on which the group-basis search once
# read seeded samples, past 2^22 units of 1 + I(B)
ONCE_SAMPLED = [("C9xC3", "C3", None), ("C5xC5", "C5", 7), ("C25", "C5", 7),
                ("C2xC2xC2xC2xC2xC2", "C4", None)]


def catalog_pairs(p, max_order=64):
    """Every (A, G0) of the catalog at p with A abelian and
    |A||G0| <= max_order."""
    return [(A.name, G0.name)
            for A in builtin_catalog(p=p, max_order=max_order // p)
            if A.is_abelian()
            for G0 in builtin_catalog(p=p, max_order=max_order // A.order)]


# the catalog pairs to order 64 at each p, coordinate and seed-7 twisted
LEVEL_CASES = [pytest.param([(a, g0, seed) for a, g0 in catalog_pairs(p)],
                            id=f"p{p}-{kind}")
               for p in (2, 3, 5) for seed, kind in ((None, "coordinate"),
                                                     (7, "twisted"))]


@pytest.mark.parametrize("cases", [
    *LEVEL_CASES, pytest.param(ONCE_SAMPLED, id="once-sampled")])
def test_group_basis_is_the_search_oracles_first_unit(monkeypatch,
                                                      bench_fixtures, cases):
    # on every recovery level, the I(B)^2 read off Jennings coordinates
    # is the span of the products I(B)·I(B), the constructed basis starts
    # with the unit that the backtracking search over all units picks
    # first, and the group of all the units it returns closes to B
    real, levels = decompose.find_group_basis_commutative, []
    real_square, squares = decompose._aug_square, []

    def checked_square(ctx, IB):
        square = real_square(ctx, IB)
        assert square == aug_square(ctx, IB)
        squares.append(IB.dim)
        return square

    def checked(B):
        units = real(B)
        assert np.array_equal(units[0], group_basis_search(B)[0])
        closure = group_closure_vectors(B.ctx, units, B.dim + 1)
        assert closure is not None and len(closure) == B.dim
        assert FpSubspace(B.ctx.p, B.ctx.dim, np.array(closure)) == B.space
        levels.append(B.dim)
        return units

    monkeypatch.setattr(decompose, "_aug_square", checked_square)
    monkeypatch.setattr(decompose, "find_group_basis_commutative", checked)
    for a_name, g0_name, seed in cases:
        rng = None if seed is None else np.random.default_rng(seed)
        data, _ = bench_fixtures.factorization_fixture(a_name, g0_name, rng)
        _, B, C = group_from_dict(data)
        rep = decompose.recover_decomposition(
            verify_tensor_factorization(B.ctx, B, C))
        assert rep.b_invariants == abelian_invariants(catalog_by_name(a_name))
    assert len(squares) == len(levels) >= len(cases)


def closed_form_groups():
    """The 46 catalog groups, C5xC5, C25 and C3 x He3."""
    return builtin_catalog() + [
        catalog_by_name("C5xC5"), catalog_by_name("C25"),
        catalog_build("direct_product", catalog_by_name("C3"),
                      catalog_by_name("He3"))]


def recovery_levels(monkeypatch, bench_fixtures, cases):
    """(C, levels) for each (A, G0, twist seed): the input's C, and (ctx,
    B) of the input and of every recovery level, from the one
    AugmentedSubalgebra that each level builds."""
    real, runs = decompose.AugmentedSubalgebra, []

    def recorded(ctx, *args):
        B = real(ctx, *args)
        runs[-1][1].append((ctx, B))
        return B

    monkeypatch.setattr(decompose, "AugmentedSubalgebra", recorded)
    for a_name, g0_name, seed in cases:
        rng = None if seed is None else np.random.default_rng(seed)
        data, _ = bench_fixtures.factorization_fixture(a_name, g0_name, rng)
        _, B, C = group_from_dict(data)
        runs.append((C, [(B.ctx, B)]))
        decompose.recover_decomposition(
            verify_tensor_factorization(B.ctx, B, C))
    return runs


def recover_corpus_facts(bench_fixtures):
    """(verified factorization, invariants of A) of the recover corpus,
    twisted at seed 7."""
    facts = []
    for a_name, g0_name in recover_corpus(bench_fixtures):
        data, _ = bench_fixtures.factorization_fixture(
            a_name, g0_name, np.random.default_rng(7))
        _, B, C = group_from_dict(data)
        facts.append((verify_tensor_factorization(B.ctx, B, C),
                      abelian_invariants(catalog_by_name(a_name))))
    return facts


@pytest.mark.parametrize("cases", [*LEVEL_CASES,
                                   pytest.param(None, id="recover-corpus")])
def test_split_projection_matches_the_ideal_oracle(monkeypatch,
                                                   bench_fixtures, cases):
    # each level's projection pi along J = (b - 1)F_pG onto F_pG_0, read
    # off one elimination, against the ideal that b - 1 generates and no
    # quotient: pi(v), set on G_0's columns and zero off them, differs from
    # v by an element of J, for every basis row v of B.  Recovery calls no
    # ideal_generated
    if cases is None:
        cases = [(a, g0, 7) for a, g0 in recover_corpus(bench_fixtures)]
    real, checked = decompose._project_along, []

    def project(ctx, b_minus_1, G0, X):
        pi = real(ctx, b_minus_1, G0, X)
        J = ideal_generated(ctx, span(ctx.p, ctx.dim, [b_minus_1]))
        lifted = np.zeros_like(X)
        lifted[:, list(G0.elements)] = pi
        assert not J.reduce(X - lifted).any(), (ctx.group.name, G0)
        checked.append(ctx.dim)
        return pi

    def forbidden(*args, **kwargs):
        raise AssertionError("recovery built an ideal")

    facts = []  # the inputs are built before recovery is watched
    for a_name, g0_name, seed in cases:
        rng = None if seed is None else np.random.default_rng(seed)
        data, _ = bench_fixtures.factorization_fixture(a_name, g0_name, rng)
        _, B, C = group_from_dict(data)
        facts.append((verify_tensor_factorization(B.ctx, B, C),
                      abelian_invariants(catalog_by_name(a_name))))
    monkeypatch.setattr(decompose, "_project_along", project)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("pgroupalg") and getattr(
                module, "ideal_generated", None) is ideal_generated:
            monkeypatch.setattr(module, "ideal_generated", forbidden)
    for fact, invariants in facts:
        assert decompose.recover_decomposition(fact).b_invariants == \
            invariants
    assert len(checked) >= len(cases)


@pytest.mark.parametrize("cases", [
    *LEVEL_CASES, pytest.param([("C3", "He3", 7)], id="C3xHe3")])
def test_recovery_levels_inherit_the_factorization(monkeypatch,
                                                   bench_fixtures, cases):
    # a level carries B_0 = pi(B) alone and checks only dimension-product:
    # with pi(C) projected here from each level's b - 1 and G_0, the
    # subalgebra and factorization checks it skips pass on pi(B) ⊗ pi(C),
    # as _aug_square needs, and the B_0 they rebuild carries the same I(B)
    # and commutativity as the one the level carries
    real, splits = decompose._project_along, []

    def project(ctx, b_minus_1, G0, X):
        splits.append((b_minus_1, G0))
        return real(ctx, b_minus_1, G0, X)

    monkeypatch.setattr(decompose, "_project_along", project)
    runs = recovery_levels(monkeypatch, bench_fixtures, cases)
    levels, splits = 0, iter(splits)
    for C, chain in runs:
        C = C.space
        for (ctx, _), (ctx0, B0) in zip(chain, chain[1:]):
            b_minus_1, G0 = next(splits)
            C = FpSubspace(ctx.p, ctx0.dim, real(ctx, b_minus_1, G0, C.basis))
            rebuilt = AugmentedSubalgebra.from_space(ctx0, B0.space)
            verify_tensor_factorization(
                ctx0, rebuilt, AugmentedSubalgebra.from_space(ctx0, C))
            assert B0.aug_ideal == rebuilt.aug_ideal
            assert B0.commutative == rebuilt.commutative
            levels += 1
    assert next(splits, None) is None and levels >= len(cases)


@pytest.mark.parametrize("cases", [*LEVEL_CASES,
                                   pytest.param(None, id="recover-corpus")])
def test_recovery_levels_split_outside_ker_lambda(monkeypatch,
                                                  bench_fixtures, cases):
    # the kernel exclusion that no level checks, as its split element
    # proves it: each level's b, of order p^s, the one whose b - 1 the
    # split projects along, has (b - 1)^{p^{s-1}} outside lambda_map(G, s)
    if cases is None:
        cases = [(a, g0, 7) for a, g0 in recover_corpus(bench_fixtures)]
    real, splits = decompose._project_along, []

    def project(ctx, b_minus_1, G0, X):
        splits.append(b_minus_1)
        return real(ctx, b_minus_1, G0, X)

    monkeypatch.setattr(decompose, "_project_along", project)
    runs = recovery_levels(monkeypatch, bench_fixtures, cases)
    levels, splits = 0, iter(splits)
    for _, chain in runs:
        for ctx, B in chain[:-1]:
            s = len(B.frobs)
            top = row_powers(ctx, next(splits), ctx.p ** (s - 1))[0]
            assert not decompose.lambda_map(ctx.group, s).contains_vector(
                top), (ctx.group.name, s)
            levels += 1
    assert next(splits, None) is None and levels >= len(cases)


def test_recovery_levels_carry_b_alone(monkeypatch, bench_fixtures):
    # below depth 0 a level projects B's basis alone and reads its I(B)
    # once: no TensorFactorizationInput is built, verify_tensor_factorization
    # is not called, and _project_along and augmentation_part run once a
    # level on the recover corpus.  No level reads Lambda, whose kernel the
    # split element proves b - 1 outside: no lambda_map, and no
    # normal_subgroup_ideal or agemo_derived, which build its codomain
    facts = recover_corpus_facts(bench_fixtures)
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("recovery built or verified a factorization, "
                             "or read Lambda")

    for name in ("_project_along", "augmentation_part"):
        monkeypatch.setattr(decompose, name,
                            counted(name, getattr(decompose, name)))
    monkeypatch.setattr(TensorFactorizationInput, "__init__", forbidden)
    refused = {f.__name__: f for f in (
        verify_tensor_factorization, normal_subgroup_ideal, agemo_derived,
        decompose.lambda_map)}
    for module in list(sys.modules.values()):
        if module.__name__.startswith("pgroupalg"):
            for name, real in refused.items():
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, forbidden)
    levels = 0
    for fact, invariants in facts:
        report = decompose.recover_decomposition(fact)
        assert report.b_invariants == invariants
        levels += len(report.steps)
    assert levels >= len(facts)
    assert calls == {"_project_along": levels, "augmentation_part": levels}


def test_library_rref_forms_are_canonical(monkeypatch, bench_fixtures,
                                          tmp_path):
    # FpSubspace._from_rref takes a basis as it is; every basis that its
    # seven callers hand it on the benchmark's workloads is the RREF that
    # an elimination of it gives
    real, callers = FpSubspace._from_rref.__func__, set()

    def checked(cls, p, ambient, basis, pivots):
        got = real(cls, p, ambient, basis, pivots)
        assert got == FpSubspace(p, ambient, basis)
        callers.add(sys._getframe(1).f_code.co_name)
        return got

    monkeypatch.setattr(FpSubspace, "_from_rref", classmethod(checked))
    path, out = tmp_path / "input.json", str(tmp_path / "report.json")
    for workload in bench_fixtures.WORKLOADS:
        for item, data in bench_fixtures.workload_items(workload, 7):
            path.write_text(json.dumps(data))
            assert cli.run([item["command"], "--input", str(path),
                            "--out", out]) == 0, item["id"]
    assert callers == {"kernel", "center_subspace", "augmentation_part",
                       "_coset_ideal", "omega_central", "from_rows",
                       "extend"}


def test_recovery_forms_no_product(monkeypatch, bench_fixtures):
    # past the input's checks, recovery reads I(B)^2 off Jennings
    # coordinates and each level's top Frobenius power off B's chain:
    # no table of products is formed at any depth
    facts = [fact for fact, _ in recover_corpus_facts(bench_fixtures)]
    real, formed = AlgebraContext.products, []

    def counted(self, X, Y):
        formed.append((len(X), len(Y)))
        return real(self, X, Y)

    monkeypatch.setattr(AlgebraContext, "products", counted)
    steps = sum(len(decompose.recover_decomposition(fact).steps)
                for fact in facts)
    assert steps >= len(facts) and formed == []


def count_tables(monkeypatch, inside=None) -> list[str]:
    """The name of every later call of AlgebraContext.products and
    multiply; with inside, a Counter, only of the calls made within the
    library functions it names, wherever a library module binds them,
    and inside counts the calls of each."""
    formed, depth = [], [0]
    for name in ("products", "multiply"):
        real = getattr(AlgebraContext, name)

        def counted(self, *args, real=real, name=name):
            if inside is None or depth[0]:
                formed.append(name)
            return real(self, *args)

        monkeypatch.setattr(AlgebraContext, name, counted)

    def entered(name, real):
        def wrapper(*args, **kwargs):
            inside[name] += 1
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for module in list(sys.modules.values()):
        if inside is not None and module.__name__.startswith("pgroupalg"):
            for name in list(inside):
                real = getattr(module, name, None)
                if real is not None:
                    monkeypatch.setattr(module, name, entered(name, real))
    return formed


# the functions of the Frobenius paths that each workload runs
FROBENIUS_PATHS = {"recover": {"recover_decomposition"},
                   "odd-p": {"recover_decomposition", "lemma_identity_check"},
                   "identities": {"lemma_identity_check"},
                   "lattice": {"cyclic_factor_test"}}


@pytest.mark.parametrize("cases", [
    pytest.param((("recover", "odd-p"), 0), id="corpus-seed0"),
    pytest.param((("recover", "odd-p"), 7), id="corpus-seed7"),
    pytest.param((("identities", "lattice"), 0), id="identities-lattice"),
    *LEVEL_CASES])
def test_frobenius_paths_form_no_product(monkeypatch, bench_fixtures,
                                         tmp_path, cases):
    # every p-th power that recovery, the lemma items and cyclic-factor
    # take is of central rows, one product with the class-sum table: on
    # the benchmark's workloads and the catalog pairs no call of products
    # or multiply is made inside recover_decomposition,
    # lemma_identity_check or cyclic_factor_test, each loaded input
    # checked before them
    calls = collections.Counter(dict.fromkeys(set.union(
        *FROBENIUS_PATHS.values()), 0))
    if isinstance(cases, list):
        facts = []
        for a_name, g0_name, seed in cases:
            rng = None if seed is None else np.random.default_rng(seed)
            data, _ = bench_fixtures.factorization_fixture(a_name, g0_name,
                                                           rng)
            _, B, C = group_from_dict(data)
            facts.append(verify_tensor_factorization(B.ctx, B, C))
        formed = count_tables(monkeypatch, calls)
        for fact in facts:
            decompose.recover_decomposition(fact)
        ran = FROBENIUS_PATHS["recover"]
    else:
        workloads, seed = cases
        formed = count_tables(monkeypatch, calls)
        path, out = tmp_path / "input.json", str(tmp_path / "report.json")
        for workload in workloads:
            for item, data in bench_fixtures.workload_items(workload, seed):
                path.write_text(json.dumps(data))
                assert cli.run([item["command"], "--input", str(path),
                                "--out", out]) == 0, item["id"]
        ran = set.union(*(FROBENIUS_PATHS[w] for w in workloads))
    assert {name for name, n in calls.items() if n} == ran
    assert formed == []


@pytest.mark.parametrize("cases", [
    pytest.param(0, id="corpus-seed0"), pytest.param(7, id="corpus-seed7"),
    *LEVEL_CASES])
def test_verify_forms_no_product_on_passing_inputs(monkeypatch,
                                                   bench_fixtures, cases):
    # B commutative, commuting with C and spanning F_pG with it lies in
    # Z(F_pG), so on every input that passes, commuting holds by the
    # class-function test of I(B) and product-span by a rank of Jennings
    # coordinates: verify_tensor_factorization forms no table
    if not isinstance(cases, list):
        cases = [(a, g0, cases) for a, g0 in recover_corpus(bench_fixtures)]
    inputs = []
    for a_name, g0_name, seed in cases:
        rng = None if seed is None else np.random.default_rng(seed)
        data, _ = bench_fixtures.factorization_fixture(a_name, g0_name, rng)
        _, B, C = group_from_dict(data)
        assert B.ctx.is_central(B.aug_ideal.basis)
        inputs.append((B, C))
    formed = count_tables(monkeypatch)
    for B, C in inputs:
        assert verify_tensor_factorization(B.ctx, B, C).verified
    assert formed == []


def test_commuting_off_the_centre_forms_both_tables(monkeypatch):
    # where neither I(B) nor I(C) is central, commuting compares the
    # tables I(B)I(C) and I(C)I(B), both formed, and the first failed
    # check is the one that factorization_failure names
    G = catalog_by_name("D8")
    ctx = AlgebraContext(G)
    r = next(g for g in range(8) if G.element_order(g) == 4)
    s = next(g for g in range(8) if G.mul(r, g) != G.mul(g, r))

    def space(elements):
        return FpSubspace(2, 8, [unit(G, g) for g in elements])

    rotations = space(Subgroup.generated(G, (r,)).elements)
    cases = [(space([0, s]), rotations, "commuting"),
             (full_space(2, 8), full_space(2, 8), "commuting"),
             (rotations, rotations, "dimension-product")]
    for B, C, want in cases:
        assert factorization_failure(ctx, B, C) == want
        B, C = (AugmentedSubalgebra.from_space(ctx, X) for X in (B, C))
        assert not ctx.is_central(B.aug_ideal.basis)
        assert not ctx.is_central(C.aug_ideal.basis)
        formed = count_tables(monkeypatch)
        with pytest.raises(VerificationError) as exc:
            verify_tensor_factorization(ctx, B, C)
        assert exc.value.check == want
        assert formed == ["products", "products"]
        monkeypatch.undo()


def test_central_rows_are_the_class_functions():
    # is_central reads X == X[:, rep] off the least conjugates; on every
    # group of CATALOG it agrees with commuting with every e_g, and the
    # class sums, the basis of Z(F_pG), pass it
    for G in CATALOG:
        ctx = AlgebraContext(G)
        Z = ctx.center_subspace()
        assert ctx.is_central(Z.basis)
        rng = np.random.default_rng(G.order)
        X = rng.integers(0, G.p, size=(3, G.order))
        rows = np.concatenate([rng.integers(0, G.p, size=(2, Z.dim))
                               @ Z.basis % G.p, X])
        for x in rows:
            central = all(np.array_equal(ref_multiply(G, x, unit(G, g)),
                                         ref_multiply(G, unit(G, g), x))
                          for g in range(G.order))
            assert ctx.is_central(x[None]) == central, G.name
        assert ctx.is_central(rows) == all(ctx.is_central(x[None])
                                           for x in rows)


def test_trusted_constructors_match_the_checked_ones(monkeypatch,
                                                     bench_fixtures):
    # Subgroup.generated and PGroup._trusted take what they build with no
    # check; on the catalog to order 64 (p = 2), 81 (p = 3) and 25 (p = 5)
    # and on every recovery level of the recover corpus, each closure is a
    # subgroup that Subgroup's checks accept, and each derived table one
    # that PGroup's checks accept
    real_generated, real_trusted = Subgroup.generated.__func__, \
        PGroup._trusted.__func__
    callers = collections.Counter()

    def called():  # the function that called the constructor
        frame = sys._getframe(2)
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1

    def generated(cls, parent, gens):
        S = real_generated(cls, parent, gens)
        assert S == Subgroup(parent, S.elements)
        called()
        return S

    def trusted(cls, p, table, name=""):
        G = real_trusted(cls, p, table, name)
        assert np.array_equal(G._inv, PGroup(p, table, name)._inv)
        called()
        return G

    monkeypatch.setattr(Subgroup, "generated", classmethod(generated))
    monkeypatch.setattr(PGroup, "_trusted", classmethod(trusted))
    for p, max_order in ((2, 64), (3, 81), (5, 25)):
        for G in builtin_catalog(p=p, max_order=max_order):
            jennings_series(G)
            characteristic_subgroup(G, "center")
            for i in range(1, round(math.log(G.exponent(), p)) + 1):
                r_subquotient(G, i)  # G/(mho_i(G)G') and its R_i(G)
                characteristic_subgroup(G, "omega", i)
    for a_name, g0_name in recover_corpus(bench_fixtures):
        data, _ = bench_fixtures.factorization_fixture(
            a_name, g0_name, np.random.default_rng(7))
        _, B, C = group_from_dict(data)
        decompose.recover_decomposition(
            verify_tensor_factorization(B.ctx, B, C))
    assert set(callers) == {
        "jennings_series", "_characteristic_subgroup", "agemo_derived",
        "omega_center_derived", "r_subquotient", "recover_decomposition",
        "_abelian_basis", "quotient_group", "subgroup_to_pgroup",
        "_build_by_name"}, callers


@pytest.mark.parametrize("cases", [pytest.param(None, id="groups"),
                                   *LEVEL_CASES])
def test_closed_forms_match_the_intersection_oracle(monkeypatch,
                                                    bench_fixtures, cases):
    # Z(F_pG) from the class sums as they are, Z(I(G)) and every B ∩ I(G)
    # read off canonical bases equal the eliminated subspaces: the class
    # sums found by single conjugations, and the nullspace intersection
    if cases is None:
        spaces, rng = [], np.random.default_rng(20261019)
        for G in closed_form_groups():
            ctx = AlgebraContext(G)
            classes = {frozenset(conjugate(G, g, h) for h in range(G.order))
                       for g in range(G.order)}
            sums = np.zeros((len(classes), G.order), dtype=np.int64)
            for k, cls in enumerate(classes):
                sums[k, list(cls)] = 1
            Z = ctx.center_subspace()
            assert Z == FpSubspace(G.p, G.order, sums), G.name
            assert ctx.central_ideal_part() == \
                intersect(Z, ctx.augmentation_ideal()), G.name
            spaces.append((ctx, Z))
            # and a random subspace that holds 1, whose last row of nonzero
            # augmentation may have any augmentation, not only 1
            rows = rng.integers(0, G.p, size=(4, G.order))
            V = FpSubspace(G.p, G.order, np.vstack([ctx.one, rows]))
            assert augmentation_part(ctx, V) == \
                intersect(V, ctx.augmentation_ideal()), G.name
    else:
        spaces = [(ctx, B.space) for _, chain in recovery_levels(
            monkeypatch, bench_fixtures, cases) for ctx, B in chain]
        assert len(spaces) >= 2 * len(cases)
    for ctx, V in spaces:
        aug = AugmentedSubalgebra.from_space(ctx, V).aug_ideal
        assert aug == intersect(V, ctx.augmentation_ideal())
        assert aug == FpSubspace(ctx.p, ctx.dim, aug.basis)


def test_frobenius_gathers_match_powers_modulo_the_derived_ideal():
    # modulo I(G')F_pG the q-th power of a row is its coefficients moved
    # from g to g^q: the residuals equal those of the exact powers for the
    # bases of I(G) and I(G)^2 and for random rows, at every q <= exp(G)
    rng = np.random.default_rng(20261019)
    checks = 0
    for G in closed_form_groups():
        ctx = AlgebraContext(G)
        D = normal_subgroup_ideal(ctx, characteristic_subgroup(G, "derived"))
        row_sets = (ctx.augmentation_ideal().basis,
                    augmentation_power(ctx, 2).basis,
                    rng.integers(0, G.p, size=(8, G.order)))
        q = G.p
        while q <= G.exponent():
            for X in row_sets:
                assert np.array_equal(
                    D.reduce(frobenius_mod_derived(ctx, X, q)),
                    D.reduce(row_powers(ctx, X, q))), (G.name, q)
                checks += 1
            q *= G.p
    assert checks == 345


@st.composite
def matrices(draw, min_rows=0):
    """(rows, p) with entries mod p, of bounded rank, at most 120 rows, so
    that the blocked path (more than 32 rows) is exercised."""
    p = draw(st.sampled_from((2, 3, 5)))
    ncols = draw(st.integers(1, 40))
    nrows = draw(st.integers(min_rows, 120))
    rank = draw(st.integers(0, ncols))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = (rng.integers(0, p, size=(nrows, rank))
            @ rng.integers(0, p, size=(rank, ncols))) % p
    return rows, p


@given(matrices())
def test_blocked_rref_matches_dense(case):
    rows, p = case
    R0, pivots0 = ref_dense_rref(rows, p)
    R, pivots = rref(rows, p)
    assert pivots == pivots0
    assert np.array_equal(R, R0)
    with pytest.MonkeyPatch.context() as mp:  # many short blocks
        mp.setattr(fplin, "_BLOCK_MIN", 1)
        mp.setattr(fplin, "_BLOCK_MAX", 3)
        R, pivots = rref(rows, p)
    assert pivots == pivots0
    assert np.array_equal(R, R0)


@st.composite
def packed_blocks(draw, p, widths):
    """Rows mod p across the packed kernels' byte and word edges: a
    rank-deficient span with zero and duplicate rows mixed in, rows of all
    p - 1, which take every lane to its maximum, and at times a full-rank
    prefix, after which the kernel stops."""
    ncols = draw(st.sampled_from(widths))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(0, ncols))
    rows = (rng.integers(0, p, size=(draw(st.integers(0, 80)), rank))
            @ rng.integers(0, p, size=(rank, ncols))) % p
    extra = [rows, np.zeros((draw(st.integers(0, 5)), ncols), dtype=np.int64),
             np.full((draw(st.integers(0, 3)), ncols), p - 1)]
    if len(rows):
        extra.append(rows[rng.integers(0, len(rows), size=5)])
    if draw(st.booleans()):  # full rank early: a triangular basis first
        full = np.triu(rng.integers(0, p, size=(ncols, ncols)), 1)
        np.fill_diagonal(full, rng.integers(1, p, size=ncols))
        extra.insert(0, full[rng.permutation(ncols)])
    A = np.concatenate(extra).astype(np.int64)
    return A[rng.permutation(len(A))] if draw(st.booleans()) else A


@given(packed_blocks(2, (1, 7, 8, 9, 63, 64, 65, 129, 256)))
def test_packed_gf2_kernel_matches_dense(A):
    R0, pivots0 = ref_dense_rref(A, 2)
    R, pivots = fplin._rref_gf2(A.copy())
    assert tuple(pivots) == pivots0
    assert R.dtype == np.int64 and np.array_equal(R, R0)


# orders 4 to 128: widths on both sides of a byte and of a 64-bit word
_GF2_GROUPS = ("C2xC2", "D8", "C2xQ8", "C4xD8", "C8xC8", "C16xC8")


@st.composite
def gf2_rows(draw):
    """Rows over F_2 for rref's single-pass path: of every width from 1 to
    140, all zero, a rank-deficient span, a full-rank prefix, or the right
    translates of a few random rows through a catalog group's table, each
    of them repeated by translating some translates again."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("zero", "span", "full", "translates")))
    if kind == "translates":
        ctx = AlgebraContext(catalog_by_name(draw(st.sampled_from(
            _GF2_GROUPS))))
        X = rng.integers(0, 2, size=(draw(st.integers(1, 3)), ctx.dim))
        T = ctx.right_translates(X)
        again = T[rng.integers(0, len(T), size=draw(st.integers(1, 3)))]
        return np.concatenate([T, ctx.right_translates(again)])
    ncols, nrows = draw(st.integers(1, 140)), draw(st.integers(0, 160))
    if kind == "zero":
        return np.zeros((nrows, ncols), dtype=np.int64)
    rank = draw(st.integers(0, ncols))
    rows = (rng.integers(0, 2, size=(nrows, rank))
            @ rng.integers(0, 2, size=(rank, ncols))) % 2
    if kind == "full":  # a triangular basis first, then the span
        full = np.triu(rng.integers(0, 2, size=(ncols, ncols)), 1)
        np.fill_diagonal(full, 1)
        rows = np.concatenate([full[rng.permutation(ncols)], rows])
    return rows


@given(gf2_rows(), st.integers(0, 2 ** 32 - 1))
def test_gf2_rref_matches_dense_under_shuffles_and_repeats(rows, seed):
    R0, pivots0 = ref_dense_rref(rows, 2)
    R, pivots = rref(rows, 2)
    assert pivots == pivots0
    assert R.dtype == np.int64 and np.array_equal(R, R0)
    # the same row space: rows shuffled, repeated, negated, shifted by
    # even numbers past a byte, and column-major
    rng = np.random.default_rng(seed)
    repeats = rows[rng.integers(0, len(rows), size=len(rows))]
    mixed = np.concatenate([rows, repeats, -rows, rows + 254])
    mixed = np.asfortranarray(mixed[rng.permutation(len(mixed))])
    R2, pivots2 = rref(mixed, 2)
    assert pivots2 == pivots0 and np.array_equal(R2, R0)


_ODD_WIDTHS = (1, 7, 8, 9, 15, 16, 17, 25, 27, 64, 81, 125, 243)


@pytest.mark.parametrize("p", [3, 5])
@given(data=st.data())
def test_packed_odd_kernel_matches_dense(p, data):
    A = data.draw(packed_blocks(p, _ODD_WIDTHS))
    R0, pivots0 = ref_dense_rref(A, p)
    R, pivots = fplin._rref_packed(A.copy(), p)
    assert tuple(pivots) == pivots0
    assert R.dtype == np.int64 and np.array_equal(R, R0)


def _pack(lanes, W):
    return sum(int(x) << (W * k) for k, x in enumerate(reversed(lanes)))


@pytest.mark.parametrize("p", [3, 5])
def test_lane_reduction_is_exact_within_each_lane(p):
    # every lane value x in [0, p(p - 1)], among them every product
    # v * inv(c), each between two lanes at the maximum: the multiply-shift
    # remainder of the packed kernel gives x mod p lane by lane, so no
    # carry or borrow crosses a lane
    W, M, S = fplin._LANES[p]
    top = p * (p - 1)
    products = [v * pow(c, p - 2, p) for v in range(p) for c in range(1, p)]
    xs = list(range(top + 1)) + products
    assert max(xs) == top
    lanes = [top] + [y for x in xs for y in (x, top)]
    one = _pack([1] * len(lanes), W)
    x = _pack(lanes, W)
    got = x - (((x * M) >> S) & (((1 << (W - S)) - 1) * one)) * p
    assert got == _pack([y % p for y in lanes], W)
    assert top * M < 1 << W  # no product leaves its lane


@pytest.mark.parametrize("p", [3, 5])
def test_packed_kernel_row_operations_reach_every_lane_value(p):
    # row v, led by c, past pivot row r: v + (p - c) r takes every pair
    # (v_j, r_j) to a lane, each beside lanes where both rows hold p - 1,
    # so that with c = 1 the lanes reach every value up to p(p - 1); a
    # leading v is scaled by inv(c) lane by lane, and r is reduced by it
    pairs = [(a, b) for a in range(p) for b in range(p)]
    for c in range(1, p):
        r = [1] + [y for _, b in pairs for y in (p - 1, b)] + [p - 1]
        v = [c] + [y for a, _ in pairs for y in (p - 1, a)] + [p - 1]
        for rows in ([r, v], [v, r], [v]):
            A = np.array(rows, dtype=np.int64)
            R0, pivots0 = ref_dense_rref(A, p)
            R, pivots = fplin._rref_packed(A.copy(), p)
            assert tuple(pivots) == pivots0 and np.array_equal(R, R0)


@given(st.sampled_from((2, 3, 5)), st.integers(1, 70),
       st.integers(0, 2 ** 32 - 1))
def test_rref_across_residual_blocks(p, ncols, seed):
    """rref where the rank grows from block to block: each stage of rows
    spans one more basis row than the stage before."""
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, p, size=(ncols, ncols))
    stages = [(rng.integers(0, p, size=(rng.integers(1, 60), k + 1))
               @ basis[:k + 1]) % p for k in range(ncols)]
    rows = np.concatenate(stages)
    R0, pivots0 = ref_dense_rref(rows, p)
    for block_min, block_max in ((fplin._BLOCK_MIN, fplin._BLOCK_MAX),
                                 (1, 3)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fplin, "_BLOCK_MIN", block_min)
            mp.setattr(fplin, "_BLOCK_MAX", block_max)
            R, pivots = rref(rows, p)
        assert pivots == pivots0
        assert np.array_equal(R, R0)


@given(matrices(min_rows=1), st.integers(0, 2 ** 32 - 1))
def test_rref_canonical_under_shuffles_duplicates_and_zeros(case, seed):
    rows, p = case
    rng = np.random.default_rng(seed)
    extra = rows[rng.integers(0, len(rows), size=rng.integers(0, 40))]
    zeros = np.zeros((rng.integers(0, 40), rows.shape[1]), dtype=np.int64)
    mixed = np.concatenate([rows, extra, zeros, p * rows])
    mixed = mixed[rng.permutation(len(mixed))]
    R, pivots = rref(rows, p)
    R2, pivots2 = rref(mixed, p)
    assert pivots == pivots2
    assert np.array_equal(R, R2)


@given(matrices(), st.integers(0, 2 ** 32 - 1))
def test_dimension_formula(case, seed):
    rows, p = case
    rng = np.random.default_rng(seed)
    n = rows.shape[1]
    U = FpSubspace(p, n, rows)
    # W shares part of U's span so that the intersection is not always 0
    W = FpSubspace(p, n, np.concatenate([
        rows[:rng.integers(0, len(rows) + 1)],
        rng.integers(0, p, size=(rng.integers(0, n + 1), n))]))
    assert (U + W).dim + intersect(U, W).dim == U.dim + W.dim
    assert (U + W).contains(U) and (U + W).contains(W)
    assert U.contains(intersect(U, W)) and W.contains(intersect(U, W))


@given(matrices(), st.integers(0, 2 ** 32 - 1))
def test_reduce_matches_rowwise_elimination(case, seed):
    rows, p = case
    n = rows.shape[1]
    U = FpSubspace(p, n, rows)
    vecs = np.random.default_rng(seed).integers(0, p, size=(6, n))
    got = U.reduce(vecs)
    assert U.contains_vector(vecs) == (not got.any())
    for v, r in zip(vecs, got):
        want = v.copy()
        for row, c in zip(U.basis, U.pivots):
            want = (want - want[c] * row) % p
        assert np.array_equal(r, want)
        assert np.array_equal(U.reduce(v), want)
        in_span = not want.any()
        assert U.contains_vector(v) == in_span
        coords = coordinates(U, v)
        assert (coords is not None) == in_span
        if in_span:
            assert np.array_equal((coords @ U.basis) % p, v)


def test_quotient_section_and_batched_projection():
    # on every group of CATALOG, frattini_quotient's section, read off the
    # pivot columns of the weight-1 Jennings functionals on I(G), is the
    # greedy section of I(G) modulo the product span I(G)·I(G), of
    # dimension d(G); a batch projects row by row, and each row lifts
    # back modulo I(G)^2
    for G in CATALOG:
        ctx = AlgebraContext(G)
        Q = frattini_quotient(ctx)
        I = ctx.augmentation_ideal()
        I2 = power_space(ctx, I, 2)
        assert np.array_equal(Q.section, greedy_section(I, I2)), G.name
        assert Q.dim == len(Q.section) == I.dim - I2.dim, G.name
        V = np.concatenate([
            [ctx.group_minus_one(a) for a in range(G.order)],
            np.random.default_rng(G.order).integers(0, G.p, size=(6, I.dim))
            @ I.basis % G.p])
        coords = Q.project(V)
        assert coords.shape == (len(V), Q.dim)
        for v, c in zip(V, coords):
            assert np.array_equal(Q.project(v), c), G.name
            assert I2.contains_vector(c @ Q.section - v), G.name


def ref_ideal_generated(ctx, X):
    """The smallest two-sided ideal containing X, as the fixpoint of adding
    the left and right translates of a basis."""
    acc = X
    while True:
        rows = np.concatenate([acc.basis, ctx.left_translates(acc.basis),
                               ctx.right_translates(acc.basis)])
        new = FpSubspace(ctx.p, ctx.dim, rows)
        if new.dim == acc.dim:
            return new
        acc = new


def ref_translate_ideal(ctx, elements):
    """I(N)F_pG as the span of the right translates (e_n - 1)e_g."""
    gens = [n for n in elements if n]
    diffs = np.zeros((len(gens), ctx.dim), dtype=np.int64)  # e_n - 1
    diffs[np.arange(len(gens)), gens] = 1
    diffs[:, 0] = ctx.p - 1
    return ctx.right_translates(diffs)


@given(st.sampled_from(GROUPS), st.integers(0, 3), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_ideal_generated_matches_fixpoint(name, level, central, seed):
    # X drawn from the centre, or from I(G)^level (F_pG itself at level 0),
    # so that the ideal is not always the whole algebra
    G = catalog_by_name(name)
    ctx = AlgebraContext.of(G)
    p, n = G.p, G.order
    rng = np.random.default_rng(seed)
    if central:
        space = ctx.center_subspace()
    else:
        space = (augmentation_power(ctx, level) if level
                 else full_space(ctx.p, ctx.dim))
    X = FpSubspace(p, n, rng.integers(0, p, size=(rng.integers(0, 4),
                                                  space.dim)) @ space.basis)
    assert ideal_generated(ctx, X) == ref_ideal_generated(ctx, X)


def test_closed_form_ideal_on_every_normal_subgroup():
    # all normal subgroups of the catalog groups to order 64 (p = 2), 81
    # (p = 3) and 25 (p = 5).  The translates of e_n - 1 for generators n
    # of N span the same right ideal as those of all of N.  Both inclusions
    # are checked without an elimination: those translates reduce to zero
    # modulo the closed form, and each closed-form row, 1 on its pivot c
    # and p - 1 on one column t, is the translate (e_n - 1)e_t, n = c t^-1
    pairs = 0
    for p, max_order in ((2, 64), (3, 81), (5, 25)):
        for G in builtin_catalog(p=p, max_order=max_order):
            ctx = AlgebraContext(G)
            for N in all_subgroups(G):
                if not N.is_normal():
                    continue
                C = normal_subgroup_ideal(ctx, N)
                gens, H = [], {0}
                for g in N.elements:
                    if g not in H:
                        gens.append(g)
                        H = _closure(G, gens)
                assert not C.reduce(ref_translate_ideal(ctx, gens)).any()
                c = np.array(C.pivots, dtype=np.int64)
                t = np.argmax(C.basis * (np.arange(G.order) != c[:, None]),
                              axis=1)
                assert ((C.basis != 0).sum(axis=1) == 2).all()
                assert (C.basis[np.arange(len(c)), t] == p - 1).all()
                assert np.isin(G.table[c, G._inv[t]], N.elements).all()
                assert C.dim == G.order - G.order // N.order
                pairs += 1
    assert pairs == 5878


def test_split_ideal_closed_form_on_every_central_element():
    # the closed form of I(<h>)F_pG, normal_subgroup_ideal, is the ideal
    # that e_h - 1 generates, for every central h of the catalog groups to
    # order 64 (p = 2), 81 (p = 3) and 25 (p = 5), h = 1 included
    pairs = 0
    for G in CATALOG:
        ctx = AlgebraContext(G)
        for h in range(G.order):
            if not np.array_equal(G.table[h], G.table[:, h]):
                continue
            J = normal_subgroup_ideal(ctx, Subgroup.generated(G, (h,)))
            assert J == ideal_generated(
                ctx, span(G.p, G.order, [ctx.group_minus_one(h)])), (G.name, h)
            pairs += 1
    assert pairs == 1698


@pytest.mark.parametrize("name", GROUPS)
def test_mho_ideal_mod_derived_matches_fixpoint(name):
    G = catalog_by_name(name)
    ctx = AlgebraContext(G)
    I = ctx.augmentation_ideal()
    derived = characteristic_subgroup(G, "derived").elements
    i = 1
    while G.p ** (i - 1) < G.exponent():
        P = FpSubspace(G.p, G.order, row_powers(ctx, I.basis, G.p ** i))
        want = ref_ideal_generated(ctx, P) + \
            FpSubspace(G.p, G.order, ref_translate_ideal(ctx, derived))
        assert mho_ideal_mod_derived(ctx, i) == want
        i += 1


@given(st.sampled_from((2, 3, 5)), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_matmul_mod_matches_integer_product(p, stack, seed):
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(0, 40, size=3)
    A = rng.integers(0, p, size=(m, k))
    B = rng.integers(0, p, size=(stack, k, n) if stack else (k, n))
    got = matmul_mod(A, B, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, A @ B % p)


def ref_top_units(ctx, IB):
    """The units 1 + c @ IB of the highest order, over every nonzero c:
    per-power orders, then one lexsort of the top class by its bytes."""
    p = ctx.p
    coeffs = all_coefficient_rows(p, IB.dim)
    orders = np.ones(len(coeffs), dtype=np.int64)
    frob = IB.basis
    while True:
        live = (coeffs @ frob % p).any(axis=1)
        if not live.any():
            break
        orders[live] *= p
        frob = row_powers(ctx, frob, p)
    U = (ctx.one + coeffs @ IB.basis) % p
    U = U[orders == orders.max()]
    return U[np.lexsort(U.T[::-1])]


@pytest.mark.parametrize("a_name,g0_name,twist_seed", STREAM_CASES)
@pytest.mark.parametrize("entries", [1, 1000])
def test_units_by_order_matches_lexsort(monkeypatch, bench_fixtures, a_name,
                                        g0_name, twist_seed, entries):
    # one-row chunks, then a few rows per chunk; the stream is drained in
    # full and replayed to the search
    B = stream_subalgebra(bench_fixtures, a_name, g0_name, twist_seed)
    monkeypatch.setattr(decompose, "_UNIT_ENTRIES", entries)
    real, seen = decompose._units_by_order, []

    def checked(ctx, IB, frobs):
        got = np.array(list(real(ctx, IB, frobs)))
        assert np.array_equal(got, ref_top_units(ctx, IB))
        seen.append(len(got))
        return iter(got)

    monkeypatch.setattr(decompose, "_units_by_order", checked)
    find_group_basis_commutative(B)
    assert len(seen) == 1
