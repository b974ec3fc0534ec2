"""Group algebra arithmetic and the augmentation ideal calculus."""

import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from pgroupalg.algebra import (AlgebraContext, AlgebraError,
                               AugmentedSubalgebra, frattini_quotient,
                               frobenius_chain, group_algebra_subalgebra,
                               ideal_generated, mho_ideal_mod_derived,
                               normal_subgroup_ideal, omega_central,
                               omega_central_ideal, power_space,
                               product_space, right_ideal, tables_commute,
                               unit_exponent_commutative)
from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.groups import (PGroup, agemo_derived, catalog_build,
                              characteristic_subgroup, omega_center_derived,
                              r_subquotient)

from oracles import (EnumerationCapExceeded, aug_square, augmentation,
                     commutator_span, conjugacy_classes, dimension_subgroup,
                     full_space, omega_central_enumerated, span)


def ctx_of(name):
    return AlgebraContext(catalog_by_name(name))


def test_multiply_convolution():
    ctx = ctx_of("C4")
    g = ctx.basis_vector(1)
    # (1 + g)(1 + g) = 1 + 2g + g^2 = 1 + g^2 over F_2
    u = (ctx.one + g) % 2
    sq = ctx.multiply(u, u)
    assert sq.tolist() == [1, 0, 1, 0]
    # independent check: expand (1+g)^2 termwise in the group
    G = ctx.group
    acc = np.zeros(4, dtype=np.int64)
    for a in (0, 1):
        for b in (0, 1):
            acc[G.mul(a, b)] += 1
    assert np.array_equal(sq, acc % 2)


def test_cube_zero_f3c3():
    # (g - 1)^3 = g^3 - 3g^2 + 3g - 1 = 0 in F_3 C_3
    ctx = ctx_of("C3")
    v = ctx.group_minus_one(1)
    assert ctx.power(v, 3).tolist() == [0, 0, 0]
    # oracle: expand the cube as a full termwise triple product
    G = ctx.group
    acc = np.zeros(3, dtype=np.int64)
    terms = [(1, 1), (-1, 0)]  # g - 1 as (coefficient, element) pairs
    for c1, a in terms:
        for c2, b in terms:
            for c3, c in terms:
                acc[G.mul(G.mul(a, b), c)] += c1 * c2 * c3
    assert np.all(acc % 3 == 0)


def test_augmentation_ideal():
    ctx = ctx_of("D8")
    I = ctx.augmentation_ideal()
    assert I.dim == 7
    for g in range(1, 8):
        assert I.contains_vector(ctx.group_minus_one(g))
    assert not I.contains_vector(ctx.one)
    assert augmentation(ctx, ctx.one) == 1
    assert augmentation(ctx, ctx.group_minus_one(3)) == 0


def test_power_space_nilpotency():
    # dims of I^m strictly decrease to zero; nilpotency index of I(F_2C4)
    # is 4 since I is spanned by g-1 with (g-1)^4 = 0, (g-1)^3 != 0
    ctx = ctx_of("C4")
    I = ctx.augmentation_ideal()
    dims = []
    X = I
    while X.dim:
        dims.append(X.dim)
        X = product_space(ctx, X, I)
    assert dims == [3, 2, 1]
    assert power_space(ctx, I, 3).dim == 1
    assert power_space(ctx, I, 4).dim == 0


def test_commutator_span_class_count():
    # dim [kG, kG] = |G| - #conjugacy classes; D8 has 5 classes
    ctx = ctx_of("D8")
    full = full_space(ctx.p, ctx.dim)
    C = commutator_span(ctx, full, full)
    assert C.dim == 8 - 5
    assert len(conjugacy_classes(ctx)) == 5
    # center of kG has dimension = #classes
    assert ctx.center_subspace().dim == 5


def test_normal_subgroup_ideal_dimension():
    G = catalog_by_name("D8")
    ctx = AlgebraContext(G)
    Z = characteristic_subgroup(G, "center")
    J = normal_subgroup_ideal(ctx, Z)
    assert J.dim == 8 - 8 // 2
    Dp = characteristic_subgroup(G, "derived")
    assert normal_subgroup_ideal(ctx, Dp) == J  # Z(D8) = D8'


def test_ideal_generated_vs_right_ideal():
    ctx = ctx_of("D8")
    x = ctx.group_minus_one(1)
    X = span(2, 8, [x])
    R = right_ideal(ctx, X)
    J = ideal_generated(ctx, X)
    assert J.contains(R)
    # two-sidedness of J
    for g in range(8):
        for row in J.basis:
            assert J.contains_vector(ctx.multiply(ctx.basis_vector(g), row))
            assert J.contains_vector(ctx.multiply(row, ctx.basis_vector(g)))


def test_omega_central_c4():
    # Omega_1(Z(I)) for F_2C4 is 2-dimensional: both g^2 - 1 and g + g^3
    # square to zero ((g + g^3)^2 = g^2 + 2g^4 + g^6 = 2 + 2g^2 = 0)
    ctx = ctx_of("C4")
    W = omega_central(ctx, 1)
    assert W.dim == 2
    assert W.contains_vector(ctx.group_minus_one(2))  # g^2 at index 2
    v = np.zeros(4, dtype=np.int64)
    v[1] = v[3] = 1
    assert W.contains_vector(v)
    assert ctx.power(v, 2).tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("name", ["C2", "C4", "C8", "C2xC4", "D8", "Q8",
                                  "C3", "C9", "He3"])
def test_omega_central_linear_matches_enumeration(name):
    ctx = ctx_of(name)
    import math
    smax = max(1, round(math.log(ctx.group.exponent(), ctx.group.p)))
    for i in range(1, smax + 1):
        fast = omega_central(ctx, i)
        slow = omega_central_enumerated(ctx, i)
        assert fast == slow, (name, i)


@pytest.mark.parametrize("G", builtin_catalog(p=2, max_order=64)
                         + builtin_catalog(p=3, max_order=81)
                         + builtin_catalog(p=5, max_order=25),
                         ids=lambda G: G.name)
def test_omega_central_is_closed_under_products(G):
    # omega_central reads the kernel of Frobenius on Z(I(G)) as closed, by
    # (zw)^{p^i} = z^{p^i} w^{p^i}, with no check of its own
    ctx = AlgebraContext(G)
    for i in range(1, round(math.log(G.exponent(), G.p)) + 2):
        K = omega_central(ctx, i)
        assert not K.reduce(ctx.products(K.basis, K.basis)).any(), i


@pytest.mark.parametrize("G", builtin_catalog(p=2, max_order=32)
                         + builtin_catalog(p=3, max_order=81)
                         + builtin_catalog(p=5, max_order=125),
                         ids=lambda G: G.name)
def test_omega_central_ideal_matches_all_translates(G):
    # omega_central_ideal takes the right translates of K = Omega_i(Z(I(G)))
    # over a transversal of the centre only; right_ideal takes all |G|
    ctx = AlgebraContext(G)
    for i in range(1, round(math.log(G.exponent(), G.p)) + 1):
        assert omega_central_ideal(ctx, i) == \
            right_ideal(ctx, omega_central(ctx, i)), i


def test_omega_central_enumeration_cap():
    ctx = ctx_of("C2xC2xC2xC2xC2")
    with pytest.raises(EnumerationCapExceeded):
        omega_central_enumerated(ctx, 1, cap=2 ** 10)


def test_mho_ideal_mod_derived():
    # for C4 and i=1: agemo part is the ideal generated by (g^2-1) = (g-1)^2,
    # derived part vanishes, so the result is I^2 (dimension 2)
    ctx = ctx_of("C4")
    X = mho_ideal_mod_derived(ctx, 1)
    I = ctx.augmentation_ideal()
    assert X == power_space(ctx, I, 2)


def test_unit_exponent_commutative():
    for name, expected in [("C2", 2), ("C4", 4), ("C8", 8), ("C2xC4", 4),
                           ("C3", 3), ("C9", 9), ("C3xC3", 3)]:
        ctx = ctx_of(name)
        I = ctx.augmentation_ideal()
        assert unit_exponent_commutative(ctx, I) == expected, name
    # brute-force oracle on C4: max multiplicative order over all of 1 + I
    ctx = ctx_of("C4")
    I = ctx.augmentation_ideal()
    best = 1
    for mask in range(2 ** 3):
        coeffs = [(mask >> k) & 1 for k in range(3)]
        u = (ctx.one + (np.array(coeffs) @ I.basis)) % 2
        k, acc = 1, u
        while not np.array_equal(acc, ctx.one):
            acc = ctx.multiply(acc, u)
            k += 1
        best = max(best, k)
    assert best == 4


def test_unit_exponent_rejects_noncommutative():
    ctx = ctx_of("D8")
    with pytest.raises(AlgebraError):
        unit_exponent_commutative(ctx, ctx.augmentation_ideal())


@pytest.mark.parametrize("G", [
    G for p, max_order in ((2, 64), (3, 81), (5, 125))
    for G in builtin_catalog(p=p, max_order=max_order)],
    ids=lambda G: f"p{G.p}-{G.name}")
def test_unit_exponent_of_an_abelian_quotient_forms_no_table(G):
    # on every quotient Q = G/(mho_i(G)G') that cyclic-factor reads, Q is
    # abelian, so the ideal I(R)F_pQ commutes with no product table: its
    # table is symmetric, and the exponent is the one read with it
    smax = round(math.log(G.exponent(), G.p))
    for i in range(1, smax + 1):
        R = r_subquotient(G, i)
        ctx = AlgebraContext(R.parent)
        ideal = normal_subgroup_ideal(ctx, R)
        table = ctx.products(ideal.basis, ideal.basis)
        assert ctx.group.is_abelian() and tables_commute(
            table, table, ideal.dim, ideal.dim)
        ctx.products = None  # unit_exponent_commutative forms no product
        assert unit_exponent_commutative(ctx, ideal) == \
            G.p ** len(frobenius_chain(ctx, ideal.basis)), i


def assert_chains_give_unit_orders(ctx, rng, samples):
    """For seeded random central x in Z(I(G)), 1 + x has order
    p^len(frobenius_chain(x)) by repeated multiplication, and chain[j] is
    x^{p^j} by multiply."""
    Z = ctx.central_ideal_part()
    for c in rng.integers(0, ctx.p, size=(samples, Z.dim)):
        x = c @ Z.basis % ctx.p
        chain = frobenius_chain(ctx, x)
        u, acc, k = (ctx.one + x) % ctx.p, (ctx.one + x) % ctx.p, 1
        while not np.array_equal(acc, ctx.one):
            acc, k = ctx.multiply(acc, u), k + 1
        assert k == ctx.p ** len(chain), (ctx.group.name, c)
        for j, rows in enumerate(chain):
            assert np.array_equal(rows[0], ctx.power(x, ctx.p ** j))


@pytest.mark.parametrize("name", ["C8", "C2xC4", "D8", "C9xC3", "C5xC5"])
def test_frobenius_chain_gives_every_unit_order(name):
    # 1 + x has order p^len(chain(x)), by repeated multiplication, for x
    # central; a row off the centre is refused, as Frobenius is additive
    # only there
    ctx = ctx_of(name)
    assert_chains_give_unit_orders(ctx, np.random.default_rng(3), 6)
    assert frobenius_chain(ctx, np.zeros(ctx.dim, dtype=np.int64)).shape == \
        (0, 1, ctx.dim)
    with pytest.raises(AlgebraError, match="not nilpotent"):
        frobenius_chain(ctx, ctx.one)
    I = ctx.augmentation_ideal()
    outside = [x for x in I.basis if not ctx.is_central(x[None])]
    assert bool(outside) == (not ctx.group.is_abelian())
    for x in outside:
        with pytest.raises(AlgebraError, match="not central"):
            frobenius_chain(ctx, x)


@pytest.mark.parametrize("G", [
    *(G for p, max_order in ((2, 64), (3, 81), (5, 125))
      for G in builtin_catalog(p=p, max_order=max_order)),
    catalog_by_name("He5")], ids=lambda G: f"p{G.p}-{G.name}")
def test_class_sum_powers_match_products(G):
    # each row of the context's table is the p-th power of its class sum
    # formed by multiply, and the chains it gives hold every unit's order
    ctx = AlgebraContext(G)
    P, Z = ctx.class_sum_powers(), ctx.center_subspace()
    assert P.shape == Z.basis.shape and not P.flags.writeable
    for K, row in zip(Z.basis, P):
        want = functools.reduce(lambda acc, _: ctx.multiply(acc, K),
                                range(G.p - 1), K)
        assert np.array_equal(row, want), G.name
    assert_chains_give_unit_orders(ctx, np.random.default_rng(G.order), 4)


def test_dimension_subgroup_two_is_frattini():
    for name in ("C4", "C2xC4", "D8", "Q8", "He3", "M16"):
        G = catalog_by_name(name)
        ctx = AlgebraContext(G)
        D2 = dimension_subgroup(ctx, 2)
        assert D2 == characteristic_subgroup(G, "frattini"), name


def test_frattini_quotient_dimension():
    # dim I/I^2 = minimal number of generators of G
    for name, d in [("C8", 1), ("C2xC4", 2), ("D8", 2), ("Q8", 2),
                    ("He3", 2), ("C2xD8", 3)]:
        ctx = ctx_of(name)
        assert frattini_quotient(ctx).dim == d, name


def test_augmented_subalgebra_validation():
    ctx = ctx_of("C2xC4")
    G0 = 4  # C2 coordinate stride: elements {0,4} form the C2 factor
    B = group_algebra_subalgebra(ctx, [0, 4])
    assert B.dim == 2
    assert B.commutative
    assert unit_exponent_commutative(ctx, B.aug_ideal) == 2
    # a subspace that is not multiplicatively closed is rejected
    bad = span(2, 8, [ctx.one, ctx.basis_vector(1)])
    with pytest.raises(ValueError):
        AugmentedSubalgebra.from_space(ctx, bad)
    # a subspace without the unit is rejected
    bad2 = span(2, 8, [ctx.group_minus_one(1)])
    with pytest.raises(ValueError):
        AugmentedSubalgebra.from_space(ctx, bad2)


def test_subalgebra_checks_form_one_bounded_table():
    # B = F_2[C2^7] in F_2[C2^7 x C2], of dimension 128: the one table
    # I(B) I(B) and the elimination of its span stay below 80 MB traced,
    # where reducing all 16,384 products of B with B at once takes 150 MB
    A = catalog_by_name("C2xC2xC2xC2xC2xC2xC2")
    ctx = AlgebraContext(catalog_build("direct_product", A,
                                       catalog_by_name("C2")))
    tracemalloc.start()
    try:
        B = group_algebra_subalgebra(ctx, [2 * a for a in range(A.order)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # I(B)/I(B)^2 has dimension d(C2^7) = 7
    assert B.dim == 128 and B.commutative
    assert aug_square(B.ctx, B.aug_ideal).dim == B.aug_ideal.dim - 7
    assert peak < 80e6


def _memoized_builders(G):
    """What the group and context memos hold, keyed by what it is; each
    value builds that object on a given context."""
    smax = max(1, round(math.log(G.exponent(), G.p)))
    subgroups = {kind: lambda ctx, kind=kind:
                 characteristic_subgroup(ctx.group, kind)
                 for kind in ("center", "derived", "frattini")}
    for i in range(1, smax + 1):
        for kind in ("omega", "agemo"):
            subgroups[kind, i] = lambda ctx, kind=kind, i=i: \
                characteristic_subgroup(ctx.group, kind, i)
        subgroups["omega_center_derived", i] = \
            lambda ctx, i=i: omega_center_derived(ctx.group, i)
        subgroups["agemo_derived", i] = \
            lambda ctx, i=i: agemo_derived(ctx.group, i)
    builders = dict(subgroups)
    for key, sub in subgroups.items():
        builders["I(N)", key] = \
            lambda ctx, sub=sub: normal_subgroup_ideal(ctx, sub(ctx))
    builders["I"] = lambda ctx: ctx.augmentation_ideal()
    builders["Z"] = lambda ctx: ctx.center_subspace()
    builders["Z(I)"] = lambda ctx: ctx.central_ideal_part()
    for i in range(1, smax + 1):
        for fn in (omega_central, omega_central_ideal, mho_ideal_mod_derived):
            builders[fn.__name__, i] = lambda ctx, fn=fn, i=i: fn(ctx, i)
    return builders


def _same(a, b) -> bool:
    return a.elements == b.elements if hasattr(a, "elements") else a == b


@pytest.mark.parametrize("name", ["D8", "Q16", "He3", "C2xC2xD8"])
def test_memo_matches_fresh_context(name):
    G = catalog_by_name(name)
    ctx = AlgebraContext.of(G)
    assert AlgebraContext.of(G) is ctx
    builders = _memoized_builders(G)
    built = {key: build(ctx) for key, build in builders.items()}
    for key, build in builders.items():
        assert build(ctx) is built[key], key
        # each object alone on a fresh context, and on a copy of G that
        # starts with an empty group memo as well
        copy = PGroup(G.p, G.table.copy(), G.name)
        for fresh in (AlgebraContext(G), AlgebraContext(copy)):
            assert _same(build(fresh), built[key]), key


def test_memo_dies_with_its_group():
    G = catalog_by_name("C2xD8")
    ctx = AlgebraContext.of(G)
    for build in _memoized_builders(G).values():
        build(ctx)
    ref = weakref.ref(G)
    del G, ctx
    gc.collect()
    assert ref() is None
