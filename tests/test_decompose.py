"""Decomposition pipeline: the p-power map, cyclic splitting, group bases
and full recovery."""

import itertools
import tracemalloc

import numpy as np
import pytest

import pgroupalg.decompose as decompose
from pgroupalg.algebra import (AlgebraContext, AugmentedSubalgebra,
                               EnumerationCapExceeded,
                               group_algebra_subalgebra, power_space)
from pgroupalg.catalog import catalog_by_name
from pgroupalg.decompose import (_group_closure_vectors,
                                 certify_indecomposable,
                                 find_group_basis_commutative, lambda_map,
                                 recover_decomposition, split_cyclic)
from pgroupalg.fplin import FpSubspace, span
from pgroupalg.groups import (RetractionError, abelian_invariants,
                              all_subgroups, catalog_build,
                              is_internal_direct_product, subgroup_to_pgroup,
                              trivial_subgroup)
from pgroupalg.lemmas import VerificationError, verify_tensor_factorization

from oracles import group_from_unit_vectors


def coordinate_factorization(a_name, g0_name):
    A = catalog_by_name(a_name)
    G0 = catalog_by_name(g0_name)
    G = catalog_build("direct_product", A, G0)
    ctx = AlgebraContext(G)
    B = group_algebra_subalgebra(ctx, [a * G0.order for a in range(A.order)])
    C = group_algebra_subalgebra(ctx, list(range(G0.order)))
    return A, G0, ctx, B, C


def test_lambda_map_c2():
    L = lambda_map(catalog_by_name("C2"), 1)
    # s = 1: the map is the identity on a 1-dimensional domain
    assert L.domain.dim == 1
    assert L.kernel.dim == 0


def test_lambda_map_c2xc4():
    G = catalog_by_name("C2xC4")
    ctx = AlgebraContext(G)
    L = lambda_map(G, 2)
    assert L.domain.dim == 2
    assert L.kernel.dim == 1
    # an order-4 element stays outside the kernel: its p-th power of g-1
    # survives in degree p
    b = next(g for g in range(8) if G.element_order(g) == 4)
    rep = L.domain.project(ctx.group_minus_one(b))
    assert not L.kernel.contains_vector(L.domain.lift(rep))
    # some involution t has t - 1 in the kernel (the C2 coordinate dies)
    kern_hits = [g for g in range(1, 8) if G.element_order(g) == 2
                 and L.kernel.contains_vector(
                     L.domain.lift(L.domain.project(ctx.group_minus_one(g))))]
    assert kern_hits


def test_lambda_map_degenerate_on_d8():
    # Omega_2(Z(D8))D8' = Z(D8) = D8', so the domain collapses to zero
    L = lambda_map(catalog_by_name("D8"), 2)
    assert L.domain.dim == 0
    assert L.images.shape == (0, 8)
    assert L.kernel.dim == 0


@pytest.mark.parametrize("name,s", [("C2xC4", 2), ("D8", 2), ("Q8", 2),
                                    ("C9", 2), ("C3xC3", 1)])
def test_lambda_map_constant_on_every_i2_shift(name, s):
    # brute force over all of I(G)^2: the basis check in lambda_map is exact
    G = catalog_by_name(name)
    ctx = AlgebraContext(G)
    L = lambda_map(G, s)
    I2 = power_space(ctx, ctx.augmentation_ideal(), 2)
    coeffs = np.array(list(itertools.product(range(G.p), repeat=I2.dim)))
    shifts = coeffs @ I2.basis % G.p
    for z, img in zip(L.domain.section, L.images):
        w = ctx.powers((z + shifts) % G.p, G.p ** (s - 1))
        assert np.array_equal(L.codomain.reduce(w), np.tile(img, (len(w), 1)))
    # ker Lambda: the section combinations whose power lies in the codomain
    coeffs = np.array(list(itertools.product(range(G.p), repeat=L.domain.dim)))
    for x in coeffs @ L.domain.section % G.p:
        dies = not L.codomain.reduce(ctx.power(x, G.p ** (s - 1))).any()
        assert L.kernel.contains_vector(x) == dies


def test_lambda_map_failure_names_its_check(monkeypatch):
    real = AlgebraContext.powers

    def off_by_unit(self, X, m):
        out = real(self, X, m)
        out[:, 0] = (out[:, 0] + 1) % self.p
        return out

    monkeypatch.setattr(AlgebraContext, "powers", off_by_unit)
    with pytest.raises(VerificationError) as exc:
        lambda_map(catalog_by_name("C2xC4"), 2)
    assert exc.value.check == "lambda-well-defined"


@pytest.mark.parametrize("field, check", [
    ("codomain", "jennings-nonmembership"),
    ("kernel", "kernel-exclusion"),
])
def test_recovery_step_checks_name_themselves(monkeypatch, field, check):
    # widen Lambda's codomain ideal or kernel to the whole algebra, so that
    # the class of b - 1 falls into it
    real = decompose.lambda_map

    def widened(G, s):
        lam = real(G, s)
        setattr(lam, field, FpSubspace.full(G.p, G.order))
        return lam

    monkeypatch.setattr(decompose, "lambda_map", widened)
    _, _, ctx, B, C = coordinate_factorization("C2xC4", "D8")
    with pytest.raises(VerificationError) as exc:
        recover_decomposition(verify_tensor_factorization(ctx, B, C))
    assert exc.value.check == check


def test_split_cyclic():
    G = catalog_by_name("C2xC4")
    h = next(g for g in range(8) if G.element_order(g) == 4)
    H, K = split_cyclic(G, h)
    assert H.order == 4 and K.order == 2
    assert is_internal_direct_product(G, H, K)


def test_split_cyclic_rejects_non_factor():
    C4 = catalog_by_name("C4")
    h = next(g for g in range(4) if C4.element_order(g) == 2)
    with pytest.raises(RetractionError):
        split_cyclic(C4, h)


def test_find_group_basis_commutative():
    _, _, ctx, B, _ = coordinate_factorization("C2xC4", "D8")
    gens = find_group_basis_commutative(B)
    orders = [_order_of(ctx, u) for u in gens]
    assert max(orders) == 4
    closed = _group_closure_vectors(ctx, gens, B.dim + 1)
    assert closed is not None and len(closed) == B.dim == 8
    Gb = group_from_unit_vectors(ctx, closed)
    assert abelian_invariants(Gb) == (4, 2)


def _order_of(ctx, u):
    k, acc = 1, np.asarray(u) % ctx.group.p
    while not np.array_equal(acc, ctx.one):
        acc = ctx.multiply(acc, u)
        k += 1
    return k


def test_group_basis_spans_subalgebra():
    _, _, ctx, B, _ = coordinate_factorization("C4", "Q8")
    gens = find_group_basis_commutative(B)
    closed = _group_closure_vectors(ctx, gens, B.dim + 1)
    S = span(ctx.group.p, ctx.dim, closed)
    assert S == B.space


def test_sampled_group_basis_search_matches_exhaustive():
    # cap=0 forces sampling; 4096 seeded draws hit all 127 units of 1 + I(B)
    _, _, _, B, _ = coordinate_factorization("C2xC4", "D8")
    exhaustive = find_group_basis_commutative(B)
    sampled = find_group_basis_commutative(B, cap=0)
    assert [u.tolist() for u in sampled] == [u.tolist() for u in exhaustive]


def test_exhaustive_unit_search_forms_one_chunk(monkeypatch):
    # 1 + I(C4xC4) has 32,767 units of 32 entries, 8.4 MB as int64 rows;
    # the search reads a few of the first, so it forms one chunk of rows
    _, _, ctx, B, _ = coordinate_factorization("C4xC4", "C2")
    real, formed = decompose.matmul_mod, []

    def counted(A, Bm, p):
        formed.append(len(A))
        return real(A, Bm, p)

    monkeypatch.setattr(decompose, "matmul_mod", counted)
    tracemalloc.start()
    try:
        gens = find_group_basis_commutative(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(gens) == 2
    # two Frobenius levels (exponent 4) of 32 entries per unit row
    assert formed == [decompose._UNIT_ENTRIES // (2 * 32)]
    assert peak < 8e6  # below one copy of every unit row


def test_group_basis_search_failure_names_its_cause():
    # span{1, a-1, (a-1)(b-1)} in F_2[C2xC2] is a commutative augmented
    # subalgebra of dimension 3, not a power of 2, so it has no group basis
    ctx = AlgebraContext(catalog_by_name("C2xC2"))
    x, y = ctx.group_minus_one(1), ctx.group_minus_one(2)
    B = AugmentedSubalgebra.from_space(
        ctx, span(2, 4, [ctx.one, x, ctx.multiply(x, y)]))
    with pytest.raises(VerificationError) as exc:
        find_group_basis_commutative(B)
    assert exc.value.check == "group-basis"
    assert "sampled" not in str(exc.value)
    # past the cap only samples are tried, so failure proves nothing; the
    # 4096 draws hold 3 distinct units, and each is tried once
    with pytest.raises(EnumerationCapExceeded):
        find_group_basis_commutative(B, cap=0)


RECOVERY_PAIRS = [("C2", "C2"), ("C2", "D8"), ("C4", "Q8"),
                  ("C2xC2", "C4"), ("C2xC4", "D8"), ("C8", "C8"),
                  ("C2xC2", "Q8")]


@pytest.mark.parametrize("a_name,g0_name", RECOVERY_PAIRS)
def test_recover_decomposition(a_name, g0_name):
    A, G0, ctx, B, C = coordinate_factorization(a_name, g0_name)
    fact = verify_tensor_factorization(ctx, B, C)
    rep = recover_decomposition(fact, seed=0)
    assert rep.verified
    assert rep.b_invariants == abelian_invariants(A)
    assert rep.c_side.order == G0.order
    assert is_internal_direct_product(ctx.group, rep.b_side, rep.c_side)
    Cp, _ = subgroup_to_pgroup(rep.c_side)
    assert Cp.is_abelian() == G0.is_abelian()


def test_recover_is_deterministic():
    _, _, ctx, B, C = coordinate_factorization("C2xC4", "D8")
    fact = verify_tensor_factorization(ctx, B, C)
    r1 = recover_decomposition(fact, seed=0)
    r2 = recover_decomposition(fact, seed=0)
    assert r1.to_json() == r2.to_json()


def test_certificates_catalog():
    expected = {
        "D8": "three_generated",
        "Q8": "three_generated",
        "SD16": "three_generated",
        "M16": "three_generated",
        "D16": "three_generated",
        "Q16": "three_generated",
        "He3": "three_generated",
    }
    for name, kind in expected.items():
        cert = certify_indecomposable(catalog_by_name(name))
        assert cert.kind == kind, name
        assert cert.directly_indecomposable


def test_certificates_refused():
    # abelian groups sit outside the certificate's scope
    cert = certify_indecomposable(catalog_by_name("C8"))
    assert cert.kind == "none"
    # directly decomposable groups cannot be certified
    cert = certify_indecomposable(catalog_by_name("C2xD8"))
    assert cert.kind == "none"
    assert not cert.directly_indecomposable


@pytest.mark.parametrize("wrong", ["trivial", "through h"])
def test_theorem_splitting_failure_names_its_check(monkeypatch, wrong):
    # a G_0 with F_pG != (b-1)F_pG + F_pG_0: the trivial group, or a
    # subgroup of the right order that contains h
    real = decompose._find_split_element

    def wrong_complement(G, ctx, I2, target, s):
        h, H, G0 = real(G, ctx, I2, target, s)
        if wrong == "trivial":
            return h, H, trivial_subgroup(G)
        return h, H, next(S for S in all_subgroups(G)
                          if S.order == G0.order and h in S.elements)

    monkeypatch.setattr(decompose, "_find_split_element", wrong_complement)
    _, _, ctx, B, C = coordinate_factorization("C2xC4", "D8")
    with pytest.raises(VerificationError) as exc:
        recover_decomposition(verify_tensor_factorization(ctx, B, C))
    assert exc.value.check == "theorem-splitting"


@pytest.mark.parametrize("name", ["C2xC8", "D8", "He3", "C5xC5"])
def test_coset_candidates_match_per_element_scan(name):
    # the targets e_t - 1, and e_t - 1 plus an element of I(G)^2 or of
    # I(G), against one membership test per group element
    G = catalog_by_name(name)
    ctx = AlgebraContext(G)
    I2 = ctx.augmentation_power(2)
    I = ctx.augmentation_ideal()
    rng = np.random.default_rng(0)
    for t in range(G.order):
        for shift in (0, rng.integers(0, G.p, I2.dim) @ I2.basis,
                      rng.integers(0, G.p, I.dim) @ I.basis):
            target = (ctx.group_minus_one(t) + shift) % G.p
            want = [g for g in range(G.order) if I2.contains_vector(
                (ctx.group_minus_one(g) - target) % G.p)]
            assert decompose._coset_candidates(ctx, I2, target) == want


def test_lift_failure_lists_every_rejected_candidate(monkeypatch):
    # D8 has no cyclic direct factor: the coset of its central involution z
    # modulo I(G)^2 is {1, z}; 1 has the wrong order and z no retraction
    G = catalog_by_name("D8")
    ctx = AlgebraContext(G)
    I2 = ctx.augmentation_power(2)
    z = next(g for g in range(1, 8) if np.array_equal(G.table[g], G.table[:, g]))
    with pytest.raises(VerificationError) as exc:
        decompose._find_split_element(G, ctx, I2, ctx.group_minus_one(z), 1)
    assert exc.value.check == "order-p^s-lift"
    assert str(exc.value).endswith(f"rejected: 0 (order 1), {z} (retraction)")
    # in C2xC8 the coset of an involution t outside Phi(G) = <g^2> holds
    # elements of order 2 and 4; with the algebra check forced to fail, an
    # order-2 candidate is listed by that check's name, the rest by order
    G = catalog_by_name("C2xC8")
    ctx = AlgebraContext(G)
    I2 = ctx.augmentation_power(2)
    t = next(g for g in range(16) if G.element_order(g) == 2
             and not I2.contains_vector(ctx.group_minus_one(g)))

    def fails(G, h):
        raise VerificationError("split-cyclic-algebra", "forced")

    monkeypatch.setattr(decompose, "split_cyclic", fails)
    with pytest.raises(VerificationError) as exc:
        decompose._find_split_element(G, ctx, I2, ctx.group_minus_one(t), 1)
    coset = decompose._coset_candidates(ctx, I2, ctx.group_minus_one(t))
    want = ", ".join(
        f"{g} (split-cyclic-algebra)" if G.element_order(g) == 2
        else f"{g} (order {G.element_order(g)})" for g in coset)
    assert str(exc.value).endswith("rejected: " + want)
    assert "split-cyclic-algebra" in want and "(order 4)" in want
