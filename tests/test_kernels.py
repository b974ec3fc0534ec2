"""Batched F_p kernels against the per-pair and dense references they replace.

The references live here, not in the library: products as one ``np.add.at``
scatter per pair through the Cayley table, RREF as one dense
column-by-column elimination of the whole matrix, a quotient's section
as the greedy scan that keeps each row of W outside U plus the rows kept,
the two-sided ideal as the fixpoint of closing under left and right
translates, I(N)F_pG as the span of the translates (e_n - 1)e_g, and the
unit order as one ``lexsort`` of the units and their orders.
"""

import contextlib
import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pgroupalg.algebra as algebra
import pgroupalg.fplin as fplin
import pgroupalg.decompose as decompose
from pgroupalg.algebra import (AlgebraContext, AugmentedSubalgebra,
                               EnumerationCapExceeded,
                               group_algebra_subalgebra, ideal_generated,
                               mho_ideal_mod_derived, normal_subgroup_ideal,
                               power_space, product_space, unique_rows)
from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.decompose import _units_by_order, find_group_basis_commutative
from pgroupalg.fplin import FpSubspace, QuotientSpace, matmul_mod, rref, span
from pgroupalg.groups import (_closure, abelian_invariants, all_subgroups,
                              catalog_build, characteristic_subgroup,
                              jennings_basis, jennings_series)
from pgroupalg.io import group_from_dict

from oracles import (commutator_span, conjugate, coordinates,
                     dimension_subgroup, unit_closure_invariants)

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
    assert np.array_equal(ctx.commutators(X, Y), (want - swapped) % G.p)


def test_gathers_in_small_chunks(setting, monkeypatch):
    ctx, X, Y = setting
    products, powers = ctx.products(X, Y), ctx.powers(X, 5)
    for entries in (2 * ctx.dim * ctx.dim, 1):  # two rows, one row at a time
        monkeypatch.setattr(algebra, "_GATHER_ENTRIES", entries)
        assert np.array_equal(ctx.products(X, Y), products)
        assert np.array_equal(ctx.powers(X, 5), powers)


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
    ctx, X, _ = setting
    G = ctx.group
    for x, got in zip(X, ctx.powers(X, m)):
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
    ctx, _, _ = setting
    G = ctx.group
    for cls in ctx.conjugacy_classes():
        for g in cls:
            assert {conjugate(G, g, h) for h in range(G.order)} == set(cls)
    assert sorted(g for cls in ctx.conjugacy_classes() for g in cls) == \
        list(range(G.order))


def test_jennings_rows_match_scatter(setting):
    # row sum_k a_k p^{k-1} is (x_1 - 1)^{a_1} (x_2 - 1)^{a_2} ..., of
    # weight sum_k a_k w_k
    ctx, _, _ = setting
    G = ctx.group
    rows, weights = ctx.jennings_rows()
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
    assert ctx.augmentation_power(2) == power_space(ctx, I, 2)
    series = jennings_series(G)
    chain, m = I, 1
    while True:
        assert ctx.augmentation_power(m) == chain, m
        assert dimension_subgroup(ctx, m) == series[min(m, len(series)) - 1]
        if not chain.dim:
            break
        chain = product_space(ctx, chain, I)
        m += 1
    rows, _ = ctx.jennings_rows()
    assert FpSubspace(G.p, G.order, rows).dim == G.order


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
    full = ctx.full_space()
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
    want = sorted(units, key=lambda u: (-ref_order(ctx, u), u.tobytes()))
    shuffled = np.random.default_rng(1).permutation(coeffs)
    for got in (_units_by_order(ctx, IB), _units_by_order(ctx, IB, shuffled)):
        got = list(got)
        assert len(got) == len(want)
        assert all(np.array_equal(u, v) for u, v in zip(got, want))


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
    coeffs = all_coefficient_rows(2, IB.dim)
    want = ref_units_by_order(ctx, IB, coeffs)
    assert np.array_equal(np.array(list(_units_by_order(ctx, IB))), want)
    assert np.array_equal(
        np.array(list(_units_by_order(ctx, IB, coeffs[::-1]))), want)


def recover_corpus(bench_fixtures):
    """The (A, G0) pairs that perfbench's recover and odd-p workloads
    recover, at p = 2, 3 and 5."""
    f = bench_fixtures
    pairs = [(a, g0) for a in f.RECOVER_A for g0 in f.RECOVER_G0
             if catalog_by_name(a).order * catalog_by_name(g0).order
             <= f.RECOVER_MAX_ORDER]
    return pairs + [f.UNIT_HEAVY, *f.ODD_P_RECOVER]


def assert_invariants_agree(B, want, label):
    units = find_group_basis_commutative(B)
    closure = unit_closure_invariants(B.ctx, units, B.dim + 1)
    ranks = decompose._frobenius_invariants(B.ctx, B.aug_ideal)
    assert closure == ranks == want, label


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
    # 1 + I(F_3[C9xC3]) has 3^26 units, so the search reads samples
    A = catalog_by_name("C9xC3")
    G = catalog_build("direct_product", A, catalog_by_name("C3"))
    ctx = AlgebraContext(G)
    B = group_algebra_subalgebra(ctx, [a * 3 for a in range(A.order)])
    assert ctx.p ** B.aug_ideal.dim > decompose.ENUM_CAP
    assert_invariants_agree(B, (9, 3), "C9xC3")


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
def gf2_blocks(draw):
    """0/1 rows across the packed kernel's byte and word edges: a
    rank-deficient span with zero and duplicate rows mixed in, and at
    times a full-rank prefix, after which the kernel stops."""
    ncols = draw(st.sampled_from((1, 7, 8, 9, 63, 64, 65, 129, 256)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(0, ncols))
    rows = (rng.integers(0, 2, size=(draw(st.integers(0, 80)), rank))
            @ rng.integers(0, 2, size=(rank, ncols))) % 2
    extra = [rows, np.zeros((draw(st.integers(0, 5)), ncols), dtype=np.int64)]
    if len(rows):
        extra.append(rows[rng.integers(0, len(rows), size=5)])
    if draw(st.booleans()):  # full rank early: a unitriangular basis first
        full = np.triu(rng.integers(0, 2, size=(ncols, ncols)), 1)
        np.fill_diagonal(full, 1)
        extra.insert(0, full[rng.permutation(ncols)])
    A = np.concatenate(extra)
    return A[rng.permutation(len(A))] if draw(st.booleans()) else A


@given(gf2_blocks())
def test_packed_gf2_kernel_matches_dense(A):
    R0, pivots0 = fplin._rref_dense(A.copy(), 2)
    R, pivots = fplin._rref_gf2(A.copy())
    assert pivots == pivots0
    assert R.dtype == np.int64 and np.array_equal(R, R0)


@given(st.integers(1, 70), st.integers(0, 2 ** 32 - 1))
def test_gf2_rref_across_residual_blocks(ncols, seed):
    """rref(., 2) where the rank grows from block to block: each stage of
    rows spans one more direction than the stage before."""
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, 2, size=(ncols, ncols))
    stages = [(rng.integers(0, 2, size=(rng.integers(1, 60), k + 1))
               @ basis[:k + 1]) % 2 for k in range(ncols)]
    rows = np.concatenate(stages)
    R0, pivots0 = ref_dense_rref(rows, 2)
    for block_min, block_max in ((fplin._BLOCK_MIN, fplin._BLOCK_MAX),
                                 (1, 3)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fplin, "_BLOCK_MIN", block_min)
            mp.setattr(fplin, "_BLOCK_MAX", block_max)
            R, pivots = rref(rows, 2)
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
    assert (U + W).dim + U.intersect(W).dim == U.dim + W.dim
    assert (U + W).contains(U) and (U + W).contains(W)
    assert U.contains(U.intersect(W)) and W.contains(U.intersect(W))


@given(matrices(), st.integers(0, 2 ** 32 - 1))
def test_reduce_matches_rowwise_elimination(case, seed):
    rows, p = case
    n = rows.shape[1]
    U = FpSubspace(p, n, rows)
    vecs = np.random.default_rng(seed).integers(0, p, size=(6, n))
    got = U.reduce(vecs)
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


def ref_greedy_section(U, W):
    """Each row of W's basis that is outside U plus the rows kept so far."""
    chosen, acc = [], U
    for row in W.basis:
        if not acc.contains_vector(row):
            chosen.append(row)
            acc = acc + span(U.p, U.ambient, [row])
    return FpSubspace(U.p, U.ambient,
                      np.array(chosen).reshape(-1, U.ambient)).basis


@given(matrices(), st.integers(0, 2 ** 32 - 1))
def test_quotient_section_and_batched_projection(case, seed):
    rows, p = case
    n = rows.shape[1]
    rng = np.random.default_rng(seed)
    W = FpSubspace(p, n, rows)
    U = FpSubspace(p, n, rng.integers(0, p, size=(rng.integers(0, 8), W.dim))
                   @ W.basis % p)
    Q = QuotientSpace(W, U)
    assert np.array_equal(Q.section, ref_greedy_section(U, W))
    S = FpSubspace(p, n, Q.section)
    assert U + S == W and U.intersect(S).dim == 0
    V = rng.integers(0, p, size=(6, W.dim)) @ W.basis % p
    coords = Q.project(V)
    assert coords.shape == (6, Q.dim)
    for v, c in zip(V, coords):
        assert np.array_equal(Q.project(v), c)
        assert U.contains_vector(Q.lift(c) - v)


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
        space = ctx.augmentation_power(level) if level else ctx.full_space()
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


@pytest.mark.parametrize("name", GROUPS)
def test_mho_ideal_mod_derived_matches_fixpoint(name):
    G = catalog_by_name(name)
    ctx = AlgebraContext(G)
    I = ctx.augmentation_ideal()
    derived = characteristic_subgroup(G, "derived").elements
    i = 1
    while G.p ** (i - 1) < G.exponent():
        P = FpSubspace(G.p, G.order, ctx.powers(I.basis, G.p ** i))
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


def ref_units_by_order(ctx, IB, coeffs):
    """Per-power orders, then one lexsort by (-order, bytes of the unit)."""
    p = ctx.p
    orders = np.ones(len(coeffs), dtype=np.int64)
    frob = IB.basis
    while True:
        live = (coeffs @ frob % p).any(axis=1)
        if not live.any():
            break
        orders[live] *= p
        frob = ctx.powers(frob, p)
    U = (ctx.one + coeffs @ IB.basis) % p
    return U[np.lexsort(np.vstack([U.T[::-1], -orders]))]


@pytest.mark.parametrize("a_name,g0_name,twist_seed", STREAM_CASES)
@pytest.mark.parametrize("entries", [1, 1000])
def test_units_by_order_matches_lexsort(monkeypatch, bench_fixtures, a_name,
                                        g0_name, twist_seed, entries):
    # one-row chunks, then a few rows per chunk, on the coefficient rows
    # of both the exhaustive search and a sampled one (cap 0); each stream
    # is drained in full and replayed to the search
    B = stream_subalgebra(bench_fixtures, a_name, g0_name, twist_seed)
    p, d = B.ctx.p, B.aug_ideal.dim
    monkeypatch.setattr(decompose, "_UNIT_ENTRIES", entries)
    real, seen = decompose._units_by_order, []

    def checked(ctx, IB, coeffs=None):
        got = np.array(list(real(ctx, IB, coeffs)))
        rows = all_coefficient_rows(p, d) if coeffs is None else coeffs
        assert np.array_equal(got, ref_units_by_order(ctx, IB, rows))
        seen.append(len(rows))
        return iter(got)

    monkeypatch.setattr(decompose, "_units_by_order", checked)
    find_group_basis_commutative(B)
    with contextlib.suppress(EnumerationCapExceeded):
        find_group_basis_commutative(B, cap=0)
    assert len(seen) == 2 and seen[0] == p ** d - 1
