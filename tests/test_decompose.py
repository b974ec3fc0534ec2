"""Decomposition pipeline: the p-power map, cyclic splitting, group bases
and full recovery."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

import pgroupalg.algebra as algebra
import pgroupalg.decompose as decompose
import pgroupalg.fplin as fplin
from pgroupalg.algebra import (AlgebraContext, AugmentedSubalgebra,
                               frobenius_mod_derived, group_algebra_subalgebra,
                               normal_subgroup_ideal, omega_central,
                               power_space)
from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.decompose import (certify_indecomposable,
                                 find_group_basis_commutative, lambda_map,
                                 recover_decomposition, split_cyclic)
from pgroupalg.fplin import FpSubspace
from pgroupalg.groups import (GroupError, PGroup, RetractionError, Subgroup,
                              abelian_invariants, agemo_derived,
                              all_subgroups, catalog_build,
                              characteristic_subgroup,
                              is_internal_direct_product,
                              retraction_complement, subgroup_to_pgroup)
from pgroupalg.lemmas import VerificationError, verify_tensor_factorization

from oracles import (augmentation_power, full_space, group_closure_vectors,
                     group_from_unit_vectors, jennings_rows, lambda_data,
                     row_powers, span, splits_as_algebra, subgroup_ideal)


def coordinate_factorization(a_name, g0_name):
    A = catalog_by_name(a_name)
    G0 = catalog_by_name(g0_name)
    G = catalog_build("direct_product", A, G0)
    ctx = AlgebraContext(G)
    B = group_algebra_subalgebra(ctx, [a * G0.order for a in range(A.order)])
    C = group_algebra_subalgebra(ctx, list(range(G0.order)))
    return A, G0, ctx, B, C


def test_lambda_map_c2():
    L = lambda_data(catalog_by_name("C2"), 1)
    # s = 1: the map is the identity on a 1-dimensional domain
    assert len(L.section) == 1
    assert L.kernel.dim == 0


def test_lambda_map_c2xc4():
    G = catalog_by_name("C2xC4")
    ctx = AlgebraContext(G)
    L = lambda_data(G, 2)
    assert len(L.section) == 2
    assert L.kernel.dim == 1
    # an order-4 element stays outside the kernel: its p-th power of g-1
    # survives in degree p
    b = next(g for g in range(8) if G.element_order(g) == 4)
    assert not L.kernel.contains_vector(L.lift(ctx.group_minus_one(b)))
    # some involution t has t - 1 in the kernel (the C2 coordinate dies)
    kern_hits = [g for g in range(1, 8) if G.element_order(g) == 2
                 and L.kernel.contains_vector(L.lift(ctx.group_minus_one(g)))]
    assert kern_hits


def test_lambda_map_degenerate_on_d8():
    # Omega_2(Z(D8))D8' = Z(D8) = D8', so the domain collapses to zero
    L = lambda_data(catalog_by_name("D8"), 2)
    assert len(L.section) == 0
    assert L.images.shape == (0, 8)
    assert L.kernel.dim == 0


@pytest.mark.parametrize("name,s", [("C2xC4", 2), ("D8", 2), ("Q8", 2),
                                    ("C9", 2), ("C3xC3", 1)])
def test_lambda_map_constant_on_every_i2_shift(name, s):
    # brute force over all of I(G)^2: the basis check in lambda_map is exact
    G = catalog_by_name(name)
    ctx = AlgebraContext(G)
    L = lambda_data(G, s)
    I2 = power_space(ctx, ctx.augmentation_ideal(), 2)
    coeffs = np.array(list(itertools.product(range(G.p), repeat=I2.dim)))
    shifts = coeffs @ I2.basis % G.p
    for z, img in zip(L.section, L.images):
        w = row_powers(ctx, (z + shifts) % G.p, G.p ** (s - 1))
        assert np.array_equal(L.codomain.reduce(w), np.tile(img, (len(w), 1)))
    # ker Lambda: the section combinations whose power lies in the codomain
    coeffs = np.array(list(itertools.product(range(G.p),
                                             repeat=len(L.section))))
    for x in coeffs @ L.section % G.p:
        dies = not L.codomain.reduce(ctx.power(x, G.p ** (s - 1))).any()
        assert L.kernel.contains_vector(x) == dies


def _omega_central_samples(ctx, s, rng, extra=4):
    """The basis of omega_central(ctx, s), plus extra seeded random
    combinations of it."""
    Om = omega_central(ctx, s).basis
    coeffs = rng.integers(0, ctx.p, size=(extra if len(Om) else 0, len(Om)))
    return np.concatenate([Om, coeffs @ Om % ctx.p])


def test_lambda_kernel_exclusion_is_jennings_nonmembership():
    # every (G, s) of the catalog to order 64 (p = 2), 81 (p = 3) and 25
    # (p = 5): the codomain ideal is I(G)^{p^{s-1}+1} + I(mho_s(G)G')F_pG
    # from Jennings rows and translates; each central v in Omega_s(Z(I(G)))
    # lies in Lambda's domain, and its class is outside ker Lambda exactly
    # when v^{p^{s-1}} is outside the codomain, which a recovery level's
    # split element proves with no test
    rng = np.random.default_rng(24)
    cases = outside = 0
    for p, max_order in ((2, 64), (3, 81), (5, 25)):
        for G in builtin_catalog(p=p, max_order=max_order):
            ctx = AlgebraContext(G)
            rows, weights = jennings_rows(ctx)
            for s in range(1, round(math.log(G.exponent(), p)) + 1):
                L = lambda_data(G, s)  # L.codomain is lambda_map(G, s)
                assert L.codomain == FpSubspace(
                    p, G.order, rows[weights >= p ** (s - 1) + 1]) + \
                    subgroup_ideal(ctx, agemo_derived(G, s)), (G.name, s)
                for v in _omega_central_samples(ctx, s, rng):
                    assert L.W.contains_vector(v), (G.name, s)
                    out = not L.kernel.contains_vector(L.lift(v))
                    assert out == (not L.codomain.contains_vector(
                        row_powers(ctx, v, p ** (s - 1))[0])), (G.name, s)
                    cases += 1
                    outside += out
    assert (cases, outside) == (5276, 1918)


# the catalog to order 64 (p = 2), 81 (p = 3) and 125 (p = 5)
THEOREM_CATALOG = [G for p, max_order in ((2, 64), (3, 81), (5, 125))
                   for G in builtin_catalog(p=p, max_order=max_order)]


@pytest.mark.parametrize("G", THEOREM_CATALOG,
                         ids=lambda G: f"p{G.p}-{G.name}")
def test_lambda_is_well_defined(G):
    # the theorem that lambda_map states in place of a check: for
    # every s, the p^{s-1}-th powers of a basis of I(G)^2, exact modulo
    # I(G')F_pG (frobenius_mod_derived), lie in Lambda's codomain U
    ctx = AlgebraContext.of(G)
    I2 = augmentation_power(ctx, 2).basis
    for s in range(1, round(math.log(G.exponent(), G.p)) + 1):
        powers = frobenius_mod_derived(ctx, I2, G.p ** (s - 1))
        assert not lambda_map(G, s).reduce(powers).any(), s


def record_eliminations(monkeypatch) -> list[str]:
    """The name of every later call of rref, through each binding of it
    in the library's modules, and of AlgebraContext.__init__."""
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    real = fplin.rref
    for name, module in list(sys.modules.items()):
        if name.startswith("pgroupalg") and getattr(module, "rref",
                                                    None) is real:
            monkeypatch.setattr(module, "rref", recorded("rref", real))
    monkeypatch.setattr(AlgebraContext, "__init__", recorded(
        "AlgebraContext", AlgebraContext.__init__))
    return calls


@pytest.mark.parametrize("G", THEOREM_CATALOG,
                         ids=lambda G: f"p{G.p}-{G.name}")
def test_dim_I_mod_I2_is_the_frattini_rank(G, monkeypatch):
    # the d that certify_indecomposable reports, the number of weight-1
    # Jennings generators, is dim I - dim I^2, and p^d |Phi(G)| = |G|; on
    # a fresh copy of G, certify builds no context and eliminates nothing
    fresh = PGroup(G.p, G.table.copy(), G.name)
    calls = record_eliminations(monkeypatch)
    d = certify_indecomposable(fresh, oracle_cap=G.order).min_generators
    assert calls == []
    monkeypatch.undo()
    ctx = AlgebraContext(G)
    assert d == ctx.augmentation_ideal().dim - augmentation_power(ctx, 2).dim
    assert G.p ** d * characteristic_subgroup(G, "frattini").order == G.order


@pytest.mark.parametrize("G", THEOREM_CATALOG,
                         ids=lambda G: f"p{G.p}-{G.name}")
def test_lambda_map_eliminates_only_its_codomain(G, monkeypatch):
    # with X = I(mho_s(G)G')F_pG and the Jennings table built, lambda_map
    # makes exactly the eliminations of plus_power(X, q + 1), which gives
    # the U it returns
    fresh = PGroup(G.p, G.table.copy(), G.name)
    ctx = AlgebraContext.of(fresh)
    for s in range(1, round(math.log(G.exponent(), G.p)) + 1):
        X = normal_subgroup_ideal(ctx, agemo_derived(fresh, s))
        ctx.jennings_functionals(G.p ** (s - 1) + 1)
        calls = record_eliminations(monkeypatch)
        U = lambda_map(fresh, s)
        mapped = len(calls)
        V = ctx.plus_power(X, G.p ** (s - 1) + 1)
        monkeypatch.undo()
        assert calls == ["rref"] * (2 * mapped), s
        assert U == V


def test_recovery_forms_no_power_of_the_augmentation_ideal(monkeypatch):
    # a recovery level reads I(B)^2 in Jennings coordinates and never
    # Lambda: it asks for no I(G)^m and no Frobenius power modulo the
    # derived ideal
    _, _, ctx, B, C = coordinate_factorization("C2xC4", "D8")
    fact = verify_tensor_factorization(ctx, B, C)

    def refused(*args):
        raise AssertionError("called during recovery")

    monkeypatch.setattr(AlgebraContext, "plus_power", refused)
    monkeypatch.setattr(algebra, "frobenius_mod_derived", refused)
    assert recover_decomposition(fact).verified


def test_split_elements_lie_outside_ker_lambda():
    # the kernel exclusion that recovery proves with no check: for every
    # central h of order p^s >= p with a retraction, G = <h> x
    # G_0, in the catalog to order 64 (p = 2), 81 (p = 3) and 125 (p = 5),
    # e_{h^q} - 1, q = p^{s-1}, lies outside lambda_map(G, s), as
    # D_{q+1}(C_{p^s}) = 1; so the b - 1 of any split is outside ker Lambda
    pairs = 0
    for G in THEOREM_CATALOG:
        ctx = AlgebraContext.of(G)
        codomains = {}
        for h in range(1, G.order):
            if not np.array_equal(G.table[h], G.table[:, h]):
                continue
            try:
                retraction_complement(G, h)
            except RetractionError:
                continue
            s = round(math.log(G.element_order(h), G.p))
            if s not in codomains:
                codomains[s] = lambda_map(G, s)
            hq = h
            for _ in range(G.p ** (s - 1) - 1):
                hq = G.mul(hq, h)
            assert not codomains[s].contains_vector(
                ctx.group_minus_one(hq)), (G.name, h)
            pairs += 1
    assert pairs == 1634


def test_split_cyclic():
    G = catalog_by_name("C2xC4")
    h = next(g for g in range(8) if G.element_order(g) == 4)
    H, K = split_cyclic(G, h)
    assert H.order == 4 and K.order == 2
    assert is_internal_direct_product(G, H, K)


def test_split_cyclic_splits_every_central_element_with_a_retraction():
    # every central h of the catalog to order 64 (p = 2), 81 (p = 3) and
    # 25 (p = 5) that has a retraction, h = 1 included: G = <h> x G_0 as
    # groups, and F_pG = I(<h>)F_pG ⊕ F_pG_0 as algebras, by the oracle's
    # spanning set
    pairs = 0
    for p, max_order in ((2, 64), (3, 81), (5, 25)):
        for G in builtin_catalog(p=p, max_order=max_order):
            ctx = AlgebraContext(G)
            for h in range(G.order):
                if not np.array_equal(G.table[h], G.table[:, h]):
                    continue
                try:
                    H, G0 = split_cyclic(G, h)
                except RetractionError:
                    continue
                assert is_internal_direct_product(G, H, G0), (G.name, h)
                assert splits_as_algebra(ctx, H, G0), (G.name, h)
                pairs += 1
    assert pairs == 1355


def test_split_cyclic_rejects_non_factor():
    C4 = catalog_by_name("C4")
    h = next(g for g in range(4) if C4.element_order(g) == 2)
    with pytest.raises(RetractionError):
        split_cyclic(C4, h)


@pytest.mark.parametrize("name, h, error", [
    ("C2xC4", 8, "element index 8 out of range"),
    ("C2xC4", 99, "element index 99 out of range"),
    ("C2xC4", -1, "element index -1 out of range"),
    ("D8", 1, "h must be central")])
def test_split_refuses_an_element_that_is_not_central(name, h, error):
    # the range is checked before the centre, so the error names it
    G = catalog_by_name(name)
    assert h not in characteristic_subgroup(G, "center").elements
    for split in (retraction_complement, split_cyclic):
        with pytest.raises(GroupError, match=error):
            split(G, h)


def test_find_group_basis_commutative():
    _, _, ctx, B, _ = coordinate_factorization("C2xC4", "D8")
    gens = find_group_basis_commutative(B)
    orders = [_order_of(ctx, u) for u in gens]
    assert max(orders) == 4
    closed = group_closure_vectors(ctx, gens, B.dim + 1)
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
    closed = group_closure_vectors(ctx, gens, B.dim + 1)
    S = span(ctx.group.p, ctx.dim, closed)
    assert S == B.space


def test_exhaustive_unit_search_forms_one_chunk(monkeypatch):
    # 1 + I(C4xC4) has 32,767 units of 32 entries, 8.4 MB as int64 rows;
    # the search reads the first of the highest order, so it forms one
    # small first chunk of rows
    _, _, ctx, B, _ = coordinate_factorization("C4xC4", "C2")
    # I(B)^2 as a recovery level reads it, formed before matmul_mod is
    # counted so that only the unit chunks are
    square = decompose._aug_square(ctx, B.aug_ideal)
    monkeypatch.setattr(decompose, "_aug_square", lambda ctx, IB: square)
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
    # the unit and its top Frobenius power, 32 entries each, per row
    assert formed == [decompose._UNIT_FIRST_ROWS] == [64]
    # below one 2,048-row chunk of unit rows (0.5 MB as int64)
    assert peak < 4e5


def test_group_basis_search_failure_names_its_cause(monkeypatch):
    # span{1, a-1, (a-1)(b-1)} in F_2[C2xC2] is a commutative augmented
    # subalgebra of dimension 3, not a power of 2, so it has no group
    # basis, which the Frobenius invariants show before any unit is formed
    ctx = AlgebraContext(catalog_by_name("C2xC2"))
    x, y = ctx.group_minus_one(1), ctx.group_minus_one(2)
    B = AugmentedSubalgebra.from_space(
        ctx, span(2, 4, [ctx.one, x, ctx.multiply(x, y)]))

    def no_units(*args):
        raise AssertionError("a unit was formed")

    monkeypatch.setattr(decompose, "_units_by_order", no_units)
    with pytest.raises(VerificationError) as exc:
        find_group_basis_commutative(B)
    assert exc.value.check == "group-basis"


RECOVERY_PAIRS = [("C2", "C2"), ("C2", "D8"), ("C4", "Q8"),
                  ("C2xC2", "C4"), ("C2xC4", "D8"), ("C8", "C8"),
                  ("C2xC2", "Q8")]


@pytest.mark.parametrize("a_name,g0_name", RECOVERY_PAIRS)
def test_recover_decomposition(a_name, g0_name):
    A, G0, ctx, B, C = coordinate_factorization(a_name, g0_name)
    fact = verify_tensor_factorization(ctx, B, C)
    rep = recover_decomposition(fact)
    assert rep.verified
    assert rep.b_invariants == abelian_invariants(A)
    assert rep.c_side.order == G0.order
    assert is_internal_direct_product(ctx.group, rep.b_side, rep.c_side)
    Cp, _ = subgroup_to_pgroup(rep.c_side)
    assert Cp.is_abelian() == G0.is_abelian()


def test_recover_is_deterministic():
    _, _, ctx, B, C = coordinate_factorization("C2xC4", "D8")
    fact = verify_tensor_factorization(ctx, B, C)
    r1 = recover_decomposition(fact)
    r2 = recover_decomposition(fact)
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

    def wrong_complement(G, ctx, target, s):
        h, G0 = real(G, ctx, target, s)
        if wrong == "trivial":
            return h, Subgroup.generated(G, ())
        return h, next(S for S in all_subgroups(G)
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
    I2 = augmentation_power(ctx, 2)
    I = ctx.augmentation_ideal()
    rng = np.random.default_rng(0)
    for t in range(G.order):
        for shift in (0, rng.integers(0, G.p, I2.dim) @ I2.basis,
                      rng.integers(0, G.p, I.dim) @ I.basis):
            target = (ctx.group_minus_one(t) + shift) % G.p
            want = [g for g in range(G.order) if I2.contains_vector(
                (ctx.group_minus_one(g) - target) % G.p)]
            assert decompose._coset_candidates(ctx, target) == want


def test_lift_failure_lists_every_rejected_candidate(monkeypatch):
    # D8 has no cyclic direct factor: the coset of its central involution z
    # modulo I(G)^2 is {1, z}; 1 has the wrong order and z no retraction
    G = catalog_by_name("D8")
    ctx = AlgebraContext(G)
    z = next(g for g in range(1, 8) if np.array_equal(G.table[g], G.table[:, g]))
    with pytest.raises(VerificationError) as exc:
        decompose._find_split_element(G, ctx, ctx.group_minus_one(z), 1)
    assert exc.value.check == "order-p^s-lift"
    assert str(exc.value).endswith(f"rejected: 0 (order 1), {z} (retraction)")
    # in C2xC8 the coset of an involution t outside Phi(G) = <g^2> holds
    # elements of order 2 and 4; with the retraction forced to fail, an
    # order-2 candidate is listed as such, the rest by order
    G = catalog_by_name("C2xC8")
    ctx = AlgebraContext(G)
    I2 = augmentation_power(ctx, 2)
    t = next(g for g in range(16) if G.element_order(g) == 2
             and not I2.contains_vector(ctx.group_minus_one(g)))

    def fails(G, h):
        raise RetractionError("forced")

    monkeypatch.setattr(decompose, "retraction_complement", fails)
    with pytest.raises(VerificationError) as exc:
        decompose._find_split_element(G, ctx, ctx.group_minus_one(t), 1)
    coset = decompose._coset_candidates(ctx, ctx.group_minus_one(t))
    want = ", ".join(
        f"{g} (retraction)" if G.element_order(g) == 2
        else f"{g} (order {G.element_order(g)})" for g in coset)
    assert str(exc.value).endswith("rejected: " + want)
    assert "(retraction)" in want and "(order 4)" in want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_form_at_order_one(p):
    # d = 0: no Jennings generator, and the augmentation is the one
    # functional; F_pG = F_p.1 = B = C factors trivially
    G = PGroup(p, np.zeros((1, 1), dtype=np.int64), name="1")
    ctx = AlgebraContext(G)
    assert np.array_equal(ctx.jennings_functionals(2), [[1]])
    assert augmentation_power(ctx, 2).dim == ctx.augmentation_ideal().dim == 0
    one = full_space(p, 1)
    assert ctx.plus_power(one, 2) is one
    assert decompose._coset_candidates(ctx, np.zeros(1, dtype=np.int64)) \
        == [0]
    B = AugmentedSubalgebra.from_space(ctx, one)
    report = recover_decomposition(verify_tensor_factorization(ctx, B, B))
    assert report.b_invariants == () and report.c_side.order == 1
    assert certify_indecomposable(G).min_generators == 0


@pytest.mark.parametrize("name", ["C4xC2", "C9xC3", "C5xC5", "D8", "He3"])
def test_factorizations_with_a_trivial_factor(name):
    # B or C = F_p.1, with empty augmentation ideal: the product span is
    # the other factor's, and recover peels nothing or, for abelian G and
    # B = F_pG, all of G
    G = catalog_by_name(name)
    ctx = AlgebraContext(G)
    one = AugmentedSubalgebra.from_space(ctx, span(G.p, G.order, [ctx.one]))
    whole = AugmentedSubalgebra.from_space(ctx,
                                           full_space(G.p, G.order))
    report = recover_decomposition(verify_tensor_factorization(ctx, one, whole))
    assert report.b_invariants == () and report.c_side.order == G.order
    fact = verify_tensor_factorization(ctx, whole, one)
    if G.is_abelian():
        report = recover_decomposition(fact)
        assert report.b_invariants == abelian_invariants(G)
        assert report.c_side.order == 1
    else:
        with pytest.raises(VerificationError) as exc:
            recover_decomposition(fact)
        assert exc.value.check == "B-commutative"
    with pytest.raises(VerificationError) as exc:
        verify_tensor_factorization(ctx, one, one)
    assert exc.value.check == "dimension-product"
