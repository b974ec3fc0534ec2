"""Structural identities, the cyclic factor criterion and factorization
verification."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import pgroupalg.cli as cli
import pgroupalg.fplin as fplin
from pgroupalg.algebra import (AlgebraContext, AugmentedSubalgebra,
                               group_algebra_subalgebra)
from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.fplin import FpSubspace
import pgroupalg.decompose as decompose
from pgroupalg.decompose import recover_decomposition
from pgroupalg.groups import (PGroup, Subgroup, abelian_invariants,
                              catalog_build)
from pgroupalg.io import group_from_dict
from pgroupalg.lemmas import (VerificationError, cyclic_factor_test,
                              lemma_identity_check,
                              verify_tensor_factorization)

from oracles import (aug_square, babelian_checks, factorization_failure,
                     full_space, has_cyclic_factor_of_order,
                     span, subalgebra_failure)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

IDENTITY_GROUPS = ["C2", "C4", "C8", "C2xC2", "C2xC4", "D8", "Q8",
                   "D16", "Q16", "SD16", "M16", "C2xD8",
                   "C3", "C9", "C3xC3", "He3"]


def smax_of(G):
    return max(1, round(math.log(G.exponent(), G.p)))


@pytest.mark.parametrize("name", IDENTITY_GROUPS)
def test_identity_items_hold(name):
    G = catalog_by_name(name)
    smax = smax_of(G)
    for i in range(1, smax + 1):
        for item in (1, 2):
            rep = lemma_identity_check(G, item, i)
            assert rep.equal, (name, item, i, rep.witness)
        for j in range(1, smax + 1):
            rep = lemma_identity_check(G, 3, i, j)
            assert rep.equal, (name, 3, i, j, rep.witness)


@pytest.mark.parametrize("name", ["C2xD16", "C8xC2", "C9xC3", "C5xC5"])
def test_second_round_of_lemma_checks_forms_no_elimination(monkeypatch, name):
    # the context memo keys ideals and lemma right sides by their content,
    # so running every lemma check of the CLI again eliminates nothing;
    # abelian C5xC5 eliminates nothing in the first round either, as each
    # right side there is closed form or K F_pG = K for central K
    G = catalog_by_name(name)
    G = PGroup(G.p, G.table.copy(), G.name)  # empty memos
    real, calls = fplin.rref, []

    def counted(A, p):
        calls.append(len(A))
        return real(A, p)

    monkeypatch.setattr(fplin, "rref", counted)
    first = cli._lemmas(G, None)
    formed = len(calls)
    assert first["pass"] and (formed == 0) == (name == "C5xC5")
    assert cli._lemmas(G, None) == first
    assert len(calls) == formed


def test_identity_report_shape():
    rep = lemma_identity_check(catalog_by_name("D8"), 1, 1)
    d = rep.to_json()
    assert d["equal"] is True
    assert d["left_dim"] == d["right_dim"]
    assert d["witness"] is None
    assert isinstance(d["id"], str)


def test_identity_rejects_bad_item():
    with pytest.raises(ValueError):
        lemma_identity_check(catalog_by_name("C4"), 4, 1)


CYCLIC_FACTOR_GROUPS = ["C2", "C4", "C8", "C2xC2", "C2xC4", "D8", "Q8",
                        "C2xD8", "C4xD8", "M16", "SD16", "C3", "C9",
                        "C3xC9", "He3"]


@pytest.mark.parametrize("name", CYCLIC_FACTOR_GROUPS)
def test_cyclic_factor_criterion_matches_oracle(name):
    G = catalog_by_name(name)
    for i in range(1, smax_of(G) + 1):
        has, exponent = cyclic_factor_test(G, i)
        oracle = has_cyclic_factor_of_order(G, G.p ** i)
        assert has == oracle, (name, i, exponent)


def test_cyclic_factor_exponent_values():
    # C2xC4, i=2: the criterion exponent reaches 4, so a C4 factor exists
    has, exponent = cyclic_factor_test(catalog_by_name("C2xC4"), 2)
    assert has and exponent == 4
    # D8 has no cyclic direct factor at all
    for i in (1, 2):
        has, _ = cyclic_factor_test(catalog_by_name("D8"), i)
        assert not has
    # C4xD8 has a C4 factor but no C2 factor
    has4, _ = cyclic_factor_test(catalog_by_name("C4xD8"), 2)
    has2, _ = cyclic_factor_test(catalog_by_name("C4xD8"), 1)
    assert has4 and not has2


def coordinate_factorization(a_name, g0_name):
    A = catalog_by_name(a_name)
    G0 = catalog_by_name(g0_name)
    G = catalog_build("direct_product", A, G0)
    ctx = AlgebraContext(G)
    B = group_algebra_subalgebra(ctx, [a * G0.order for a in range(A.order)])
    C = group_algebra_subalgebra(ctx, list(range(G0.order)))
    return ctx, B, C


def test_verify_tensor_factorization():
    ctx, B, C = coordinate_factorization("C2", "D8")
    fact = verify_tensor_factorization(ctx, B, C)
    assert fact.B.dim * fact.C.dim == 16
    assert fact.B.commutative


def test_verify_rejects_noncommuting_pair():
    # both factors sitting on the same nonabelian coordinate cannot commute
    # elementwise
    ctx, _, C = coordinate_factorization("C2", "D8")
    with pytest.raises(VerificationError) as exc:
        verify_tensor_factorization(ctx, C, C)
    assert "commuting" in str(exc.value)


def test_babelian_requires_commutative_b():
    # with the roles swapped, B = kD8 is noncommutative and the checks refuse
    ctx, B, C = coordinate_factorization("C2", "D8")
    fact = verify_tensor_factorization(ctx, C, B)
    with pytest.raises(VerificationError):
        babelian_checks(fact, "a")


def test_verify_rejects_dimension_mismatch():
    ctx, B, _ = coordinate_factorization("C2", "D8")
    with pytest.raises(VerificationError):
        verify_tensor_factorization(ctx, B, B)


def test_babelian_checks_pass():
    ctx, B, C = coordinate_factorization("C2xC4", "Q8")
    fact = verify_tensor_factorization(ctx, B, C)
    for part in ("a", "c", "d"):
        rep = babelian_checks(fact, part)
        assert rep.equal, (part, rep.witness)


def test_babelian_rejects_unknown_part():
    ctx, B, C = coordinate_factorization("C2", "C2")
    fact = verify_tensor_factorization(ctx, B, C)
    with pytest.raises(ValueError):
        babelian_checks(fact, "b")


@pytest.fixture(scope="module")
def bench_fixtures():
    """perfbench/fixtures.py, imported as it is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("fixtures")


def catalog_inputs(fixtures, p, seed):
    """(ctx, B, C) of every catalog pair A x G0 at p of order at most 32,
    A abelian, from perfbench's factorization fixture: B = F_pA, twisted
    by a central unit drawn at seed unless seed is None, and C = F_pG0."""
    for A in builtin_catalog(p=p, max_order=32 // p):
        if not A.is_abelian():
            continue
        for G0 in builtin_catalog(p=p, max_order=32 // A.order):
            rng = None if seed is None else np.random.default_rng(seed)
            data, _ = fixtures.factorization_fixture(A.name, G0.name, rng)
            rows = data.pop("factorization")
            G, _, _ = group_from_dict(data)
            yield (AlgebraContext.of(G), FpSubspace(p, G.order, rows["B"]),
                   FpSubspace(p, G.order, rows["C"]))


def element_span(ctx, elements):
    return span(ctx.p, ctx.dim, [ctx.basis_vector(g) for g in elements])


def special_input(case):
    """(ctx, B, C) of a hand-made input, and the check it fails."""
    if case in ("unit-p2", "unit-p3"):
        # B = F_p.1, with empty I(B), and C = F_pG: a trivial factorization
        ctx = AlgebraContext(catalog_by_name("C4" if case == "unit-p2"
                                             else "C3xC3"))
        return ctx, element_span(ctx, [0]), full_space(ctx.p, ctx.dim), None
    ctx = AlgebraContext(catalog_by_name("D8" if case == "D8" else "C4"))
    one = element_span(ctx, [0])
    half = element_span(ctx, [0, 2])  # F_2[<e_2>], e_2 of order 2 in C4
    if case == "not-closed":
        return ctx, span(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]), half, \
            "subalgebra-closure"
    if case == "same-half":
        # commuting, 2 * 2 = 4, but B C = B spans only dimension 2
        return ctx, half, half, "product-span"
    if case == "unit-with-half":
        return ctx, one, half, "dimension-product"
    # F_2[<s>] and F_2[<r>] in F_2[D8]: r of order 4 and a reflection s
    # do not commute
    G = ctx.group
    r = next(g for g in range(8) if G.element_order(g) == 4)
    s = next(g for g in range(8) if G.mul(r, g) != G.mul(g, r))
    return ctx, element_span(ctx, [0, s]), \
        element_span(ctx, Subgroup.generated(G, (r,)).elements), "commuting"


def named_failure(ctx, B, C):
    """The check that from_space or verify_tensor_factorization names
    first on the subspaces B and C, or None."""
    try:
        verify_tensor_factorization(
            ctx, AugmentedSubalgebra.from_space(ctx, B),
            AugmentedSubalgebra.from_space(ctx, C))
    except VerificationError as exc:
        return exc.check
    return None


def oracle_failure(ctx, B, C):
    return (subalgebra_failure(ctx, B) or subalgebra_failure(ctx, C)
            or factorization_failure(ctx, B, C))


SPECIAL = ("not-closed", "same-half", "unit-with-half", "D8", "unit-p2",
           "unit-p3")


@pytest.mark.parametrize("case", [
    *((p, seed) for p in (2, 3, 5) for seed in (None, 7)), *SPECIAL],
    ids=[*(f"p{p}-{kind}" for p in (2, 3, 5)
           for kind in ("coordinate", "twisted")), *SPECIAL])
def test_checks_read_off_one_table_fail_as_their_definitions(
        bench_fixtures, case):
    # from_space reads closure and commutativity off the table I(B) I(B),
    # and verify_tensor_factorization reads commuting off the centre or
    # the tables I(B) I(C) and I(C) I(B), and product-span off Jennings
    # coordinates; the oracles apply each check's definition to the whole
    # bases of B and C.  augmentation-decomposition
    # gets no input of its own: once dimension-product and product-span
    # pass, dim I(B) + dim I(C) + dim I(B)I(C) is at least the dimension
    # |G| - 1 of their sum and at most (b-1) + (c-1) + (b-1)(c-1) =
    # bc - 1 = |G| - 1, so the sum is direct and the check cannot fire
    if case in SPECIAL:
        ctx, B, C, want = special_input(case)
        assert oracle_failure(ctx, B, C) == want
        inputs = [(ctx, B, C)]
    else:
        inputs = list(catalog_inputs(bench_fixtures, *case))
        assert inputs
    for ctx, B, C in inputs:
        assert named_failure(ctx, B, C) == oracle_failure(ctx, B, C), \
            ctx.group.name


@pytest.mark.parametrize("name", ["D8", "Q8", "C2xC4", "He3", "C9",
                                  "C5xC5"])
def test_closure_fails_as_its_definition(name):
    # from_space tests I(B)^2 in B on B's free columns; on seeded spaces
    # holding 1 (group subalgebras, those with a random row added, and
    # random spans) it names subalgebra-closure exactly where
    # subalgebra_failure, which reduces every product of basis elements,
    # does
    G = catalog_by_name(name)
    ctx, p, n = AlgebraContext(G), G.p, G.order
    rng = np.random.default_rng(sum(map(ord, name)))
    spaces = []
    for g in range(n):
        H = element_span(ctx, Subgroup.generated(G, (g,)).elements)
        spaces += [H, H + span(p, n, rng.integers(0, p, size=(1, n)))]
    for k in (1, 2, 4):
        spaces.append(element_span(ctx, [0]) + span(
            p, n, rng.integers(0, p, size=(k, n))))
    named = []
    for V in spaces:
        try:
            AugmentedSubalgebra.from_space(ctx, V)
            named.append(None)
        except VerificationError as exc:
            named.append(exc.check)
        assert named[-1] == subalgebra_failure(ctx, V)
    assert None in named and "subalgebra-closure" in named


def conjugate_space(ctx, X, u, u_inv):
    """u X u^-1, row by row."""
    rows = ctx.products(ctx.products(u[None], X.basis), u_inv[None])
    return FpSubspace(ctx.p, ctx.dim, rows)


# A x G0 to order 64 at p = 2, 3, 5, and at p = 3 also C3 x He3 and
# C3 x M27 (order 81): below that every p-odd pair is abelian
CONJUGATED_PAIRS = [(A.name, G0.name) for p in (2, 3, 5)
                    for A in builtin_catalog(p=p, max_order=32)
                    if A.is_abelian()
                    for G0 in builtin_catalog(p=p, max_order=64 // A.order)
                    ] + [("C3", "He3"), ("C3", "M27")]


@pytest.mark.parametrize("a_name, g0_name", CONJUGATED_PAIRS,
                         ids=[f"{a}-{g}" for a, g in CONJUGATED_PAIRS])
def test_unit_conjugated_factorizations(monkeypatch, a_name, g0_name):
    # the paper's case: F_pA and F_pG0 conjugated by a unit u = 1 + x, x
    # in I(G) drawn at a fixed seed.  B = F_pA is central and stays; C
    # leaves the span of group elements when G0 is nonabelian.  recover
    # finds A's invariants, reading at every level the I(B)^2 that the
    # products I(B)·I(B) span, and on the input and on mangled copies of it
    # (B with a basis row moved off it, B twice, the factors swapped, C
    # conjugated by a second unit, beside B and beside C) every check
    # names what its definition names
    A, G0 = catalog_by_name(a_name), catalog_by_name(g0_name)
    G = catalog_build("direct_product", A, G0)
    ctx = AlgebraContext(G)
    rng = np.random.default_rng([G.order, A.order])
    I = ctx.augmentation_ideal()
    units = []
    for _ in range(2):
        u = (ctx.one + rng.integers(0, G.p, I.dim) @ I.basis) % G.p
        u_inv = ctx.power(u, G.order - 1)  # u^|G| = 1 + x^|G| = 1
        assert np.array_equal(ctx.multiply(u, u_inv), ctx.one)
        units.append((u, u_inv))
    B = conjugate_space(ctx, element_span(
        ctx, [a * G0.order for a in range(A.order)]), *units[0])
    coordinate_C = element_span(ctx, range(G0.order))
    C = conjugate_space(ctx, coordinate_C, *units[0])
    assert (C == coordinate_C) == G0.is_abelian()
    fact = verify_tensor_factorization(
        ctx, AugmentedSubalgebra.from_space(ctx, B),
        AugmentedSubalgebra.from_space(ctx, C))
    real, levels = decompose._aug_square, []

    def checked(level_ctx, IB):
        square = real(level_ctx, IB)
        assert square == aug_square(level_ctx, IB)
        levels.append(IB.dim)
        return square

    monkeypatch.setattr(decompose, "_aug_square", checked)
    report = recover_decomposition(fact)
    assert len(levels) == len(report.steps) >= 1
    assert report.b_invariants == abelian_invariants(A)
    assert report.c_side.order == G0.order
    moved = B.basis.copy()
    moved[-1, rng.integers(G.order)] += 1
    C2 = conjugate_space(ctx, C, *units[1])
    mangled = [(B, C), (FpSubspace(G.p, G.order, moved), C), (B, B),
               (C, B), (B, C2), (C, C2)]
    for X, Y in mangled:
        assert named_failure(ctx, X, Y) == oracle_failure(ctx, X, Y)
