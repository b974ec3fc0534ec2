"""Cayley-table p-groups, characteristic subgroups, quotients, oracles."""

import gc
import weakref

import numpy as np
import pytest

from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.groups import (GroupError, OracleCapExceeded, PGroup,
                              RetractionError, Subgroup, _abelian_basis,
                              _element_orders, abelian_invariants,
                              all_subgroups, catalog_build,
                              characteristic_subgroup, cyclic_factor_orders,
                              direct_factor_oracle, full_subgroup,
                              has_cyclic_factor_of_order,
                              is_internal_direct_product, normal_subgroups,
                              quotient_group, r_subquotient,
                              retraction_complement,
                              split_into_indecomposables, subgroup_to_pgroup,
                              trivial_subgroup)


def test_cyclic_table_and_orders():
    C8 = catalog_build("cyclic", 2, 3)
    assert C8.order == 8
    assert C8.mul(3, 7) == 2
    assert C8.element_order(1) == 8
    assert C8.element_order(2) == 4
    assert C8.element_order(0) == 1
    assert C8.exponent() == 8
    assert C8.is_abelian()


def test_invalid_table_rejected():
    # break associativity while keeping the Latin-square property:
    # swap two entries of a cyclic table's row
    T = catalog_build("cyclic", 2, 2).table.copy()
    T[2, 2], T[2, 3] = T[2, 3], T[2, 2]
    with pytest.raises(GroupError):
        PGroup(2, T)


def test_identity_must_sit_at_zero():
    T = np.array([[1, 0], [0, 1]], dtype=np.int64)
    with pytest.raises(GroupError):
        PGroup(2, T)


def test_unsupported_prime_rejected():
    a = np.arange(7)
    with pytest.raises(GroupError, match="unsupported prime"):
        PGroup(7, (a[:, None] + a[None, :]) % 7)


def test_non_prime_power_order_rejected():
    T = np.zeros((6, 6), dtype=np.int64)
    for a in range(6):
        for b in range(6):
            T[a, b] = (a + b) % 6
    with pytest.raises(GroupError):
        PGroup(2, T)


def test_dihedral_structure():
    D8 = catalog_build("dihedral", 8)
    assert D8.order == 8
    assert not D8.is_abelian()
    assert D8.exponent() == 4
    Z = characteristic_subgroup(D8, "center")
    Dp = characteristic_subgroup(D8, "derived")
    assert Z.order == 2
    assert Dp.order == 2
    assert Z == Dp
    Phi = characteristic_subgroup(D8, "frattini")
    assert Phi.order == 2


def test_quaternion_unique_involution():
    Q8 = catalog_build("quaternion", 8)
    involutions = [g for g in range(8) if Q8.element_order(g) == 2]
    assert len(involutions) == 1
    assert Q8.exponent() == 4
    Z = characteristic_subgroup(Q8, "center")
    assert Z.order == 2


def test_semidihedral_and_modular():
    SD16 = catalog_build("semidihedral", 16)
    M16 = catalog_build("modular_maximal_cyclic", 2, 16)
    assert SD16.order == 16 and not SD16.is_abelian()
    assert M16.order == 16 and not M16.is_abelian()
    # M16 has a cyclic subgroup of index 2 and derived subgroup of order 2
    assert characteristic_subgroup(M16, "derived").order == 2
    assert characteristic_subgroup(SD16, "derived").order == 4
    assert SD16.exponent() == 8 and M16.exponent() == 8


def test_heisenberg_p3():
    He3 = catalog_build("heisenberg", 3)
    assert He3.order == 27
    assert He3.exponent() == 3
    assert characteristic_subgroup(He3, "center").order == 3
    assert characteristic_subgroup(He3, "derived").order == 3


def test_omega_and_agemo_cyclic():
    C8 = catalog_build("cyclic", 2, 3)
    om1 = characteristic_subgroup(C8, "omega", 1)
    ag1 = characteristic_subgroup(C8, "agemo", 1)
    assert om1.order == 2
    assert ag1.order == 4
    assert characteristic_subgroup(C8, "omega", 2).order == 4
    assert characteristic_subgroup(C8, "agemo", 2).order == 2


def test_quotient_group_and_kernel():
    D8 = catalog_build("dihedral", 8)
    Z = characteristic_subgroup(D8, "center")
    Q, pi = quotient_group(D8, Z)
    assert Q.order == 4
    assert Q.is_abelian()
    assert abelian_invariants(Q) == (2, 2)
    assert pi.kernel() == Z
    assert len(set(pi.images)) == Q.order


def test_abelian_invariants():
    A = catalog_build("abelian", 2, [3, 1, 1])
    assert abelian_invariants(A) == (8, 2, 2)
    B = catalog_build("abelian", 3, [2, 1])
    assert abelian_invariants(B) == (9, 3)
    C = catalog_build("cyclic", 2, 0)
    assert abelian_invariants(C) == ()


def test_r_subquotient_examples():
    # R_i(G) = Omega_i(Z(G)) agemo_i(G) G' / agemo_i(G) G'
    C4 = catalog_build("cyclic", 2, 2)
    R1, _ = r_subquotient(C4, 1)
    # Omega_1(C4) = agemo_1(C4) = <g^2>, so R_1 is trivial
    assert R1.order == 1
    R2, _ = r_subquotient(C4, 2)
    assert R2.order == 4
    D8 = catalog_build("dihedral", 8)
    R1, _ = r_subquotient(D8, 1)
    assert R1.order == 1  # Z(D8) = D8' = Phi(D8)
    R2, _ = r_subquotient(D8, 2)
    assert R2.order == 1  # agemo_2(D8)D8' = D8' contains Z(D8)


def test_all_subgroups_counts():
    # classical counts: C4 has 3 subgroups, C2xC2 has 5, D8 has 10, Q8 has 6
    assert len(all_subgroups(catalog_build("cyclic", 2, 2))) == 3
    assert len(all_subgroups(catalog_build("abelian", 2, [1, 1]))) == 5
    assert len(all_subgroups(catalog_build("dihedral", 8))) == 10
    assert len(all_subgroups(catalog_build("quaternion", 8))) == 6


# -- independent references: generator-subset closure and per-element loops


def _closure_reference(G, seed):
    elems = set(seed) | {0}
    while True:
        new = {G.mul(a, b) for a in elems for b in elems} - elems
        if not new:
            return frozenset(elems)
        elems |= new


def _all_subgroups_reference(G):
    """Every subgroup, by closing H + {g} for every found H and every g."""
    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        H = frontier.pop()
        for g in range(1, G.order):
            if g not in H:
                K = _closure_reference(G, H | {g})
                if K not in seen:
                    seen.add(K)
                    frontier.append(K)
    return sorted((len(S), tuple(sorted(S))) for S in seen)


def _is_normal_reference(S):
    G, eset = S.parent, set(S.elements)
    return all(G.conjugate(h, g) in eset
               for h in S.elements for g in range(G.order))


def _derived_reference(G):
    gens = {G.commutator(a, b) for a in range(G.order) for b in range(G.order)}
    return tuple(sorted(_closure_reference(G, gens)))


def _subgroup_table_reference(S):
    elems = list(S.elements)
    pos = {e: i for i, e in enumerate(elems)}
    return [[pos[S.parent.mul(a, b)] for b in elems] for a in elems]


def _quotient_table_reference(G, N):
    """Cosets ranked by their smallest element, then multiplied by reps."""
    rep = [min(G.mul(g, x) for x in N.elements) for g in range(G.order)]
    reps = sorted(set(rep))
    idx = {r: i for i, r in enumerate(reps)}
    return ([[idx[rep[G.mul(a, b)]] for b in reps] for a in reps],
            [idx[r] for r in rep])


def _lattice_reference_groups():
    return (builtin_catalog(p=2, max_order=32)
            + builtin_catalog(p=3, max_order=27) + [catalog_by_name("C5xC5")])


@pytest.mark.parametrize("G", _lattice_reference_groups(),
                         ids=lambda G: G.name)
def test_all_subgroups_match_closure_reference(G):
    got = [(S.order, S.elements) for S in all_subgroups(G)]
    assert got == _all_subgroups_reference(G)


@pytest.mark.parametrize("name, subgroups, normal", [
    ("C2xC2xC2xC2", 67, 67), ("C2xC2xC2xC2xC2", 374, 374),
    ("C3xC3xC3", 28, 28), ("He3", 19, 7), ("D16", 19, 7), ("Q16", 11, 7),
    ("C2xD8", 35, 19)])
def test_subgroup_and_normal_counts(name, subgroups, normal):
    subs = all_subgroups(catalog_by_name(name))
    assert len(subs) == subgroups
    assert sum(S.is_normal() for S in subs) == normal


@pytest.mark.parametrize("name", ["D8", "Q16", "He3", "C2xD8"])
def test_group_checks_match_loop_references(name):
    G = catalog_by_name(name)
    derived = characteristic_subgroup(G, "derived")
    assert derived.elements == _derived_reference(G)
    for S in all_subgroups(G):
        assert S.is_normal() == _is_normal_reference(S)
        P, elems = subgroup_to_pgroup(S)
        assert elems == list(S.elements)
        assert P.table.tolist() == _subgroup_table_reference(S)
        if S.is_normal():
            Q, pi = quotient_group(G, S)
            table, coset = _quotient_table_reference(G, S)
            assert Q.table.tolist() == table
            assert list(pi.images) == coset


def test_is_internal_direct_product():
    G = catalog_by_name("C2xC4")
    subs = all_subgroups(G)
    hits = [(H, K) for H in subs for K in subs
            if H.order == 2 and K.order == 4
            and is_internal_direct_product(G, H, K)]
    assert hits
    H, K = hits[0]
    Kp, _ = subgroup_to_pgroup(K)
    assert abelian_invariants(Kp) == (4,)


def test_direct_factor_oracle():
    # directly indecomposable groups give no pairs
    for name in ("C8", "D8", "Q8", "M16", "SD16"):
        assert direct_factor_oracle(catalog_by_name(name)) == []
    pairs = direct_factor_oracle(catalog_by_name("C2xD8"))
    assert pairs
    orders = {(min(H.order, K.order), max(H.order, K.order))
              for H, K in pairs}
    assert (2, 8) in orders
    for H, K in pairs:
        G = catalog_by_name("C2xD8")
        assert is_internal_direct_product(G, H, K)


def test_oracle_cap():
    G = catalog_build("abelian", 2, [1] * 7)  # order 128 > default cap
    with pytest.raises(OracleCapExceeded):
        direct_factor_oracle(G, cap=64)


def test_split_into_indecomposables():
    G = catalog_by_name("C2xC4xD8")
    parts = split_into_indecomposables(G)
    orders = sorted(P.order for P in parts)
    assert orders == [2, 4, 8]
    kinds = sorted((P.order, P.is_abelian()) for P in parts)
    assert kinds == [(2, True), (4, True), (8, False)]


def test_has_cyclic_factor_of_order():
    assert has_cyclic_factor_of_order(catalog_by_name("C2xC4"), 4)
    assert has_cyclic_factor_of_order(catalog_by_name("C2xC4"), 2)
    assert not has_cyclic_factor_of_order(catalog_by_name("C2xC4"), 8)
    assert not has_cyclic_factor_of_order(catalog_by_name("D8"), 2)
    assert has_cyclic_factor_of_order(catalog_by_name("C4xD8"), 4)
    assert not has_cyclic_factor_of_order(catalog_by_name("C4xD8"), 2)


def test_retraction_complement():
    G = catalog_by_name("C2xC4")
    # an element of maximal order 4 generating a direct factor
    h = next(g for g in range(G.order) if G.element_order(g) == 4)
    K = retraction_complement(G, h)
    H = Subgroup.generated(G, [h])
    assert is_internal_direct_product(G, H, K)


def test_retraction_complement_failure():
    C4 = catalog_by_name("C4")
    # g^2 generates no direct factor of C4
    h = next(g for g in range(4) if C4.element_order(g) == 2)
    with pytest.raises(RetractionError):
        retraction_complement(C4, h)


def test_retraction_complement_nonabelian():
    G = catalog_by_name("C4xD8")
    h = next(g for g in range(G.order)
             if G.element_order(g) == 4
             and all(G.mul(g, x) == G.mul(x, g) for x in range(G.order)))
    K = retraction_complement(G, h)
    assert is_internal_direct_product(G, Subgroup.generated(G, [h]), K)
    Kp, _ = subgroup_to_pgroup(K)
    assert Kp.order == 8 and not Kp.is_abelian()


def test_subgroup_validation():
    D8 = catalog_build("dihedral", 8)
    with pytest.raises(GroupError):
        Subgroup(D8, (0, 1))  # not closed unless 1 has order 2 in D8's table
    C4 = catalog_build("cyclic", 2, 2)
    with pytest.raises(GroupError, match="inverses"):
        Subgroup(C4, (0, 1))  # 1 + 3 = 0 in C4, and 3 is missing
    V4 = catalog_build("abelian", 2, [1, 1])
    with pytest.raises(GroupError, match="multiplication"):
        Subgroup(V4, (0, 1, 2))  # involutions, but 1 * 2 = 3 is missing
    with pytest.raises(GroupError, match="range"):
        Subgroup(C4, (0, 2, 4))
    assert trivial_subgroup(D8).order == 1
    assert full_subgroup(D8).order == 8


def test_builtin_catalog_deterministic():
    names1 = [G.name for G in builtin_catalog(max_order=32)]
    names2 = [G.name for G in builtin_catalog(max_order=32)]
    assert names1 == names2
    assert len(names1) == len(set(names1))
    p3 = [G for G in builtin_catalog(p=3, max_order=27)]
    assert any(not G.is_abelian() for G in p3)
    assert all(G.p == 3 for G in p3)


# -- the normal lattice and subgroups read in place ------------------------
# References: the full lattice filtered by is_normal, the split that
# re-indexed each factor as a PGroup and split it on its own lattice, and
# the basis recursion that re-indexed each complement.


def _reference_corpus():
    return (builtin_catalog(p=2, max_order=64)
            + builtin_catalog(p=3, max_order=81)
            + builtin_catalog(p=5, max_order=25))


def _oracle_reference(G):
    normals = [S for S in all_subgroups(G)
               if 1 < S.order < G.order and S.is_normal()]
    masks = np.zeros((len(normals), G.order), dtype=bool)
    for row, S in zip(masks, normals):
        row[list(S.elements)] = True
    orders = np.array([S.order for S in normals])
    out = []
    for a, H in enumerate(normals):
        ks = a + np.flatnonzero(orders[a:] * H.order == G.order)
        meets = (masks[ks] & masks[a]).sum(axis=1)
        out.extend((H, normals[b]) for b in ks[meets == 1])
    return out


def _split_reference(G):
    pairs = _oracle_reference(G)
    if not pairs:
        return [G]
    H, K = pairs[0]
    return (_split_reference(subgroup_to_pgroup(H)[0])
            + _split_reference(subgroup_to_pgroup(K)[0]))


def _abelian_basis_reference(A):
    if A.order == 1:
        return []
    orders = np.array([A.element_order(g) for g in range(A.order)])
    g = int(orders.argmax())
    m = int(orders[g])
    if m == A.order:
        return [(g, m)]
    cyc = set(Subgroup.generated(A, (g,)).elements)
    for K in all_subgroups(A):
        if K.order == A.order // m and len(set(K.elements) & cyc) == 1:
            Kp, elems = subgroup_to_pgroup(K)
            return [(g, m)] + [(elems[x], o)
                               for x, o in _abelian_basis_reference(Kp)]
    raise GroupError("no complement found for a maximal cyclic factor")


def _factor_kind(F):
    abelian = F.is_abelian()
    return (F.order, abelian, abelian_invariants(F) if abelian else None)


@pytest.mark.parametrize("G", _reference_corpus(), ids=lambda G: G.name)
def test_normal_subgroups_match_filtered_lattice(G):
    got = [S.elements for S in normal_subgroups(G)]
    assert got == [S.elements for S in all_subgroups(G) if S.is_normal()]
    assert normal_subgroups(G) is normal_subgroups(G)  # memoized on G


@pytest.mark.parametrize("G", [G for G in _reference_corpus()
                               if G.order <= 64], ids=lambda G: G.name)
def test_oracle_and_split_match_references(G):
    pairs = [(H.elements, K.elements) for H, K in direct_factor_oracle(G)]
    assert pairs == [(H.elements, K.elements)
                     for H, K in _oracle_reference(G)]
    parts = split_into_indecomposables(G)
    assert all(F.parent is G for F in parts)
    assert sorted(map(_factor_kind, parts), key=repr) == \
        sorted(map(_factor_kind, _split_reference(G)), key=repr)
    assert cyclic_factor_orders(G) == frozenset(
        F.order for F in _split_reference(G) if F.exponent() == F.order)


@pytest.mark.parametrize("name", ["D8", "Q16", "C2xC4", "He3"])
def test_abelian_invariants_read_in_place(name):
    G = catalog_by_name(name)
    for S in all_subgroups(G):
        P, _ = subgroup_to_pgroup(S)
        assert S.is_abelian() == P.is_abelian()
        assert S.is_cyclic() == (P.exponent() == P.order)
        if P.is_abelian():
            assert abelian_invariants(S) == abelian_invariants(P)
        else:
            with pytest.raises(GroupError):
                abelian_invariants(S)


@pytest.mark.parametrize("G", _reference_corpus(), ids=lambda G: G.name)
def test_abelian_basis_matches_reindexing_recursion(G):
    A, _ = quotient_group(G, characteristic_subgroup(G, "derived"))
    assert _abelian_basis(A) == _abelian_basis_reference(A)


def test_element_orders_are_read_only():
    orders = _element_orders(catalog_by_name("C8"))
    with pytest.raises(ValueError):
        orders[0] = 2


def test_oracle_memo_dies_with_the_group():
    G = catalog_build("direct_product", catalog_by_name("C2"),
                      catalog_by_name("D8"))
    assert direct_factor_oracle(G)
    assert cyclic_factor_orders(G) == frozenset({2})
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None
