"""Cayley-table p-groups, characteristic subgroups, quotients, oracles."""

import gc
import hashlib
import itertools
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest

import pgroupalg.groups as groups
from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.cli import run
from pgroupalg.groups import (GroupError, OracleCapExceeded, PGroup,
                              RetractionError, Subgroup, _abelian_basis,
                              _element_orders, _normal_lattice, _powers,
                              abelian_invariants, abelianization_invariants,
                              all_subgroups, catalog_build,
                              characteristic_subgroup, cyclic_factor_orders,
                              direct_factor_oracle, full_subgroup,
                              is_internal_direct_product, jennings_basis,
                              jennings_series,
                              quotient_group, r_subquotient,
                              retraction_complement,
                              split_into_indecomposables, subgroup_to_pgroup)

from oracles import (commutator, conjugate, has_cyclic_factor_of_order,
                     least_failing_triple, normal_subgroups, power)


@pytest.mark.parametrize("p, max_order", [(2, 64), (3, 81), (5, 125)])
def test_power_maps_are_built_once_per_group(p, max_order):
    # g -> g^k is memoized on G, read-only: a second call returns the map
    # the first built, and each map is k single lookups per element
    for G in builtin_catalog(p=p, max_order=max_order):
        for k in (0, 1, 2, p, G.exponent() - 1, G.exponent()):
            got = _powers(G, k)
            assert got is _powers(G, k) and not got.flags.writeable
            assert got.tolist() == [power(G, g, k) for g in range(G.order)]


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
    # the Latin-square case: swapping two entries of a row of C4 repeats
    # an entry in each of the two columns
    T = catalog_build("cyclic", 2, 2).table.copy()
    T[2, 2], T[2, 3] = T[2, 3], T[2, 2]
    with pytest.raises(GroupError, match="not permutations"):
        PGroup(2, T)


def _intercalate_c8():
    """C8 with n/2 added at (1, 1), (1, 5), (5, 1) and (5, 5): the entries
    2 and 6 trade places there, so the rows and columns stay permutations."""
    T = catalog_build("cyclic", 2, 3).table.copy()
    for r, c in ((1, 1), (1, 5), (5, 1), (5, 5)):
        T[r, c] = (T[r, c] + 4) % 8
    return T


def _switched_c64xc2():
    """C64 x C2, (h, e) at index h + 64 e, with columns 1, 2 and 65, 66
    swapped in the rows of e = 1: a Latin square whose rows of e = 0 all
    associate, so its least failing triple lies past the first chunk of
    rows the check reads at order 128."""
    i = np.arange(128)
    h, e = i % 64, i // 64
    T = (h[:, None] + h[None, :]) % 64 + 64 * ((e[:, None] + e[None, :]) % 2)
    T[64:, [1, 2, 65, 66]] = T[64:, [2, 1, 66, 65]]
    return T


def _first_failing_triple(T):
    """The least (a, b, c) with (ab)c != a(bc), from the whole |G|^3 check."""
    T = T.astype(np.int32)
    return tuple(int(x) for x in np.argwhere(T[T] != T[:, T])[0])


@pytest.mark.parametrize("table, triple", [
    (_intercalate_c8, (1, 1, 2)),
    (_switched_c64xc2, (64, 1, 1)),
], ids=["C8-intercalate", "order128-past-first-chunk"])
def test_non_associative_latin_square_names_least_triple(table, triple):
    T = table()
    assert _first_failing_triple(T) == triple
    message = f"associativity fails at triple {triple}"
    with pytest.raises(GroupError, match=re.escape(message)):
        PGroup(2, T)


# orders 64 to 256, past the whole scan's range, p = 2 and 3
_LIGHT_PRODUCTS = ("C8xD8", "C2xC2xC2xC2xC2xC2", "C4xC4xC4", "C3xHe3",
                   "C2xC2xC2xC2xC2xC2xC2", "C2xC2xC2xC2xC2xC2xC4",
                   "C16xC16")


@pytest.mark.parametrize("G", builtin_catalog(p=2, max_order=64)
                         + builtin_catalog(p=3, max_order=81)
                         + builtin_catalog(p=5, max_order=25)
                         + [catalog_by_name(name) for name in _LIGHT_PRODUCTS],
                         ids=lambda G: G.name)
def test_light_test_passes_every_group_table(G):
    # Light's test against the exhaustive scan, on tables that associate
    T = G.table.astype(np.int32)
    assert least_failing_triple(T) is None
    assert groups._light_associative(T) is True


def _subsquare_trade(G, seed):
    """G's table with one p x p Latin subsquare shifted: for z central of
    order p and r, c outside <z>, the entries r z^i c z^j = rc z^(i+j)
    become rc z^(i+j+1).  Each of those rows and columns keeps its set of
    entries, so the table stays a Latin square with identity 0; for p = 2
    the trade is an intercalate swap."""
    T = G.table.copy()
    center = characteristic_subgroup(G, "center").elements
    z = next(g for g in center if G.element_order(g) == G.p)
    zs = [0]
    for _ in range(G.p - 1):
        zs.append(G.mul(zs[-1], z))
    rng = np.random.default_rng(seed)
    r, c = rng.choice(np.setdiff1d(np.arange(G.order), zs), size=2)
    rows, cols = T[r, zs], T[c, zs]  # r z^i and c z^j
    T[np.ix_(rows, cols)] = T[np.ix_(rows, np.roll(cols, -1))]
    return T


@pytest.mark.parametrize("name", ["C8xD8", "C3xHe3", "C2xC2xC2xC2xC2xC2xC2",
                                  "C4xC4xC8"])
@pytest.mark.parametrize("seed", range(3))
def test_light_test_fails_every_traded_table(name, seed):
    # orders 64, 81 and 128: Light's test fails as the exhaustive scan
    # does, and the build names the least failing triple
    G = catalog_by_name(name)
    T = _subsquare_trade(G, seed)
    n = G.order
    assert (np.sort(T, axis=1) == np.arange(n)).all()
    assert (np.sort(T, axis=0) == np.arange(n)[:, None]).all()
    triple = least_failing_triple(T)
    assert triple is not None
    assert groups._light_associative(T.astype(np.int32)) is False
    with pytest.raises(GroupError, match=re.escape(
            f"associativity fails at triple {triple}")):
        PGroup(G.p, T)


def test_non_associative_order_81_table_names_least_triple():
    # p = 3: the subsquare trade of C3 x He3 at seed 0 first fails at this
    # triple, pinned from the exhaustive scan
    T = _subsquare_trade(catalog_by_name("C3xHe3"), 0)
    assert least_failing_triple(T) == (3, 66, 51)
    with pytest.raises(GroupError, match=re.escape(
            "associativity fails at triple (3, 66, 51)")):
        PGroup(3, T)


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


# sha256 of table.tobytes() for the metacyclic and Heisenberg families,
# recorded before their builders were vectorized, so that the tables, and
# with them every report body, stay byte-identical
TABLE_DIGESTS = {
    "D8":
        "b4fddc32be007c809e52f6d64b92c1beb18cd7b8a2b30d3cd5cfc0e7973f7470",
    "Q8":
        "8e22e58cdfd461b9dc9b0cb46006582407639e90c31c9bad0c84ef9dd13d74c8",
    "D16":
        "ffa0159e31fdd85fefb5bdd730a72b8631cebb8b80c321ebb25c4ddc3eab31a4",
    "Q16":
        "5cbc93d715d018c5af213a9c80ea5f97c16cfb7c2500fe5e1401e0c6a5de1fb8",
    "SD16":
        "0cce0d498dd3cb883652980f154e0b1efbf2c36f221e20d003347c64aa9db151",
    "M16":
        "f7edaf71111982f325a712f64792a88eb5d41d3e7edc57c978fff69bdbdb1d20",
    "D32":
        "d4bb5b6139e83e583e4e315cbac1cb7d0adf1cc35782b28cacb473123be085cd",
    "Q32":
        "fc1c4d0cf1791ba9b4b72a7a494d3a83f43d190209714d78e53ed7ad14d4f840",
    "SD32":
        "dcd1c65de7ff398a1264b24a505a533143a74b2e2ad963e7de4728b29e405173",
    "M32":
        "88c53ac35f782525852e00c99f7df71d7b9653b474124615f75976d9ec763284",
    "D64":
        "2550877b5a11a1dda1cbc8a86b9c2de9062cad16b16b9322367f34870a3e0056",
    "Q64":
        "ff2d3e1903a1c85aa099e48b912419df21456399ad0823571ea8f36b97294ca8",
    "SD64":
        "61446e8fd1bc7e64d846f766e9f012edc59c42a138ef1a425d36728b6aada80e",
    "M64":
        "337a0231031f15449113430d147560b6e6c3489a4f1b0d3d86611afcc2a02f38",
    "D128":
        "fb0a56ec5c18eb9df1d3723923bad7814b2b71bc63109793964baafa63303a4d",
    "Q128":
        "40add4c6a5529256d11fd81add18b1d9cfecd3a53acfd881ae6b441c9278dabe",
    "SD128":
        "6c1c03b8d3c2e3daf07c12d44ce8be9a49c352b6876609a4edb5693d70242e49",
    "M128":
        "c76e8fd6dd5732ad4a3f45bbf4ce794af0ea2a24729243de681530f072eb4620",
    "D256":
        "e43bac1f326289c1e790514276d7202ff69b8b0316866264de8e4a865acaf58f",
    "Q256":
        "32903ddd1c8f1f36d0a3ba3dd90fd88c7d7055aed1fdb70210ef407e770781ff",
    "SD256":
        "7db50a1719674a8d5cfb451f540aae80fe4b9497e950541a648011d51f6c6826",
    "M256":
        "46c274ea6dc8c1aa6f40bf107c90cb339b9ac1211c89ca5bfd1bc8351cd7a574",
    "M27":
        "7a4435911c1ea58755a073ee52b70d9ddbe4e3a3eb809038987bccd369878af5",
    "M81":
        "2fe4bc64ba953ce9dedd7aa826ff8d9a0d9179d69aa5250c9d1d2a435af22b6a",
    "M243":
        "d0e3f9556f63c694189919c21da1e64c0b4dd90d1ab88313d75dcc9c3727ab69",
    "M125":
        "e46379d1bdde00bdfb2c0ff73857c5d4a920ea58878700c6f0dab0d1d0e02416",
    "He2":
        "5359c50283b917a56695405a73bef51b82e02df94c999edd370014cfdd897c00",
    "He3":
        "b886c26833019f10e76ae1723d32c183f6f47208d9285c5ec79100fe2133163a",
    "He5":
        "7653d6b1d92b7a88aa17c7459cb2b0be73fcdc2463dfde3f741469bbc4f2880c",
}


@pytest.mark.parametrize("name", TABLE_DIGESTS)
def test_catalog_table_is_pinned(name):
    G = catalog_by_name(name)
    assert G.name == name
    assert hashlib.sha256(G.table.tobytes()).hexdigest() == TABLE_DIGESTS[name]


# builtin_catalog(*args) -> (the names in order, the sha256 over each
# group's name, its prime as one byte and its table as little-endian int64),
# recorded while the catalog was built by family calls rather than by name
CATALOG_DIGESTS = {
    (2, 256): (
        "C2 C2xC2 C4 C2xC2xC2 C4xC2 C8 D8 Q8 C16 C2xC2xC2xC2 C2xD8 C2xQ8 "
        "C4xC2xC2 C4xC4 C8xC2 D16 M16 Q16 SD16 C16xC2 C2xC2xC2xC2xC2 "
        "C2xC2xD8 C2xC2xQ8 C2xD16 C2xM16 C2xQ16 C2xSD16 C32 C4xC2xC2xC2 "
        "C4xC4xC2 C4xD8 C4xQ8 C8xC2xC2 C8xC4 D32 M32 Q32 SD32 C16xC2xC2 "
        "C16xC4 C2xC2xC2xC2xC2xC2 C32xC2 C4xC2xC2xC2xC2 C4xC4xC2xC2 "
        "C4xC4xC4 C64 C8xC2xC2xC2 C8xC4xC2 C8xC8 C128 C16xC2xC2xC2 "
        "C16xC4xC2 C16xC8 C2xC2xC2xC2xC2xC2xC2 C32xC2xC2 C32xC4 "
        "C4xC2xC2xC2xC2xC2 C4xC4xC2xC2xC2 C4xC4xC4xC2 C64xC2 C8xC2xC2xC2xC2 "
        "C8xC4xC2xC2 C8xC4xC4 C8xC8xC2 C128xC2 C16xC16 C16xC2xC2xC2xC2 "
        "C16xC4xC2xC2 C16xC4xC4 C16xC8xC2 C256 C2xC2xC2xC2xC2xC2xC2xC2 "
        "C32xC2xC2xC2 C32xC4xC2 C32xC8 C4xC2xC2xC2xC2xC2xC2 "
        "C4xC4xC2xC2xC2xC2 C4xC4xC4xC2xC2 C4xC4xC4xC4 C64xC2xC2 C64xC4 "
        "C8xC2xC2xC2xC2xC2 C8xC4xC2xC2xC2 C8xC4xC4xC2 C8xC8xC2xC2 C8xC8xC4",
        "82596b4a7ad70218d0d22f9bd18d0e65d11b619acb50fb187123601dfe9cb803"),
    (3, 243): (
        "C3 C3xC3 C9 C27 C3xC3xC3 C9xC3 He3 M27 C27xC3 C3xC3xC3xC3 C81 "
        "C9xC3xC3 C9xC9 C243 C27xC3xC3 C27xC9 C3xC3xC3xC3xC3 C81xC3 "
        "C9xC3xC3xC3 C9xC9xC3",
        "1cc695f406a3026d5658acdbe1c49bca834990f16c8cf04fcf8197584e1c433e"),
    (5, 125): (
        "C5 C25 C5xC5 C125 C25xC5 C5xC5xC5",
        "b1e23bb81303267af8b1a518157ca40207276969d3191a8151dae7f49585bc6a"),
    (): (
        "C2 C2xC2 C4 C2xC2xC2 C4xC2 C8 D8 Q8 C16 C2xC2xC2xC2 C2xD8 C2xQ8 "
        "C4xC2xC2 C4xC4 C8xC2 D16 M16 Q16 SD16 C16xC2 C2xC2xC2xC2xC2 "
        "C2xC2xD8 C2xC2xQ8 C2xD16 C2xM16 C2xQ16 C2xSD16 C32 C4xC2xC2xC2 "
        "C4xC4xC2 C4xD8 C4xQ8 C8xC2xC2 C8xC4 D32 M32 Q32 SD32 C3 C3xC3 C9 "
        "C27 C3xC3xC3 C9xC3 He3 M27",
        "31095ea277e93ff67b890dee144075d9bb51d8469113516ad19078ec1f00683f"),
}


@pytest.mark.parametrize("args", CATALOG_DIGESTS, ids=str)
def test_builtin_catalog_is_pinned(args):
    names, digest = CATALOG_DIGESTS[args]
    groups = builtin_catalog(*args)
    assert [G.name for G in groups] == names.split()
    h = hashlib.sha256()
    for G in groups:
        h.update(G.name.encode())
        h.update(bytes([G.p]))
        h.update(G.table.astype("<i8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("p, other", [(2, "Q8"), (3, "M27"), (5, "M125")])
def test_extraspecial_minus_is_the_pinned_table(p, other):
    # the two extraspecial groups of order p^3 by name: Z(G) = G' = Phi(G)
    # of order p, told apart by their counts of elements of order p
    G, He = catalog_by_name(other), catalog_by_name(f"He{p}")
    assert hashlib.sha256(G.table.tobytes()).hexdigest() == \
        TABLE_DIGESTS[other]
    for E in (G, He):
        assert E.p == p and E.order == p ** 3
        Z = characteristic_subgroup(E, "center")
        assert Z.order == p
        assert Z == characteristic_subgroup(E, "derived") == \
            characteristic_subgroup(E, "frattini")
    order_p = [sum(E.element_order(g) == p for g in range(p ** 3))
               for E in (G, He)]
    assert order_p[0] < order_p[1]


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
    Q, coset = quotient_group(D8, Z)
    assert Q.order == 4
    assert Q.is_abelian()
    assert abelian_invariants(Q) == (2, 2)
    assert np.flatnonzero(coset == 0).tolist() == list(Z.elements)
    assert len(set(coset.tolist())) == Q.order
    assert not coset.flags.writeable


def test_abelian_invariants():
    A = catalog_by_name("C8xC2xC2")
    assert abelian_invariants(A) == (8, 2, 2)
    B = catalog_by_name("C9xC3")
    assert abelian_invariants(B) == (9, 3)
    C = catalog_build("cyclic", 2, 0)
    assert abelian_invariants(C) == ()


def test_r_subquotient_examples():
    # R_i(G) = Omega_i(Z(G)) agemo_i(G) G' / agemo_i(G) G'
    C4 = catalog_build("cyclic", 2, 2)
    R1 = r_subquotient(C4, 1)
    # Omega_1(C4) = agemo_1(C4) = <g^2>, so R_1 is trivial
    assert R1.order == 1
    R2 = r_subquotient(C4, 2)
    assert R2.order == 4
    D8 = catalog_build("dihedral", 8)
    R1 = r_subquotient(D8, 1)
    assert R1.order == 1  # Z(D8) = D8' = Phi(D8)
    R2 = r_subquotient(D8, 2)
    assert R2.order == 1  # agemo_2(D8)D8' = D8' contains Z(D8)


def test_all_subgroups_counts():
    # classical counts: C4 has 3 subgroups, C2xC2 has 5, D8 has 10, Q8 has 6
    assert len(all_subgroups(catalog_build("cyclic", 2, 2))) == 3
    assert len(all_subgroups(catalog_by_name("C2xC2"))) == 5
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
    return all(conjugate(G, h, g) in eset
               for h in S.elements for g in range(G.order))


def _derived_reference(G):
    gens = {commutator(G, a, b) for a in range(G.order) for b in range(G.order)}
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
            Q, coset = quotient_group(G, S)
            table, want = _quotient_table_reference(G, S)
            assert Q.table.tolist() == table
            assert coset.tolist() == want


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
    G = catalog_by_name("x".join(["C2"] * 7))  # order 128 > default cap
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
    V4 = catalog_by_name("C2xC2")
    with pytest.raises(GroupError, match="multiplication"):
        Subgroup(V4, (0, 1, 2))  # involutions, but 1 * 2 = 3 is missing
    with pytest.raises(GroupError, match="range"):
        Subgroup(C4, (0, 2, 4))
    assert Subgroup.generated(D8, ()).order == 1
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
    want = [S.elements for S in normal_subgroups(G)]
    assert want == [S.elements for S in all_subgroups(G) if S.is_normal()]
    lattice = _normal_lattice(G)
    assert [tuple(row) for _, elems in lattice
            for row in elems.tolist()] == want
    for m, (words, elems) in enumerate(lattice):
        assert elems.shape[1] == G.p ** m
        # element x at bit x % 64 of word x // 64
        bits = np.unpackbits(words.view(np.uint8), axis=1,
                             bitorder="little")[:, :G.order]
        assert [tuple(np.flatnonzero(row)) for row in bits] == \
            [tuple(row) for row in elems.tolist()]
    assert _normal_lattice(G) is lattice  # memoized on G


@pytest.mark.parametrize("G", [
    G for p, max_order in ((2, 64), (3, 81), (5, 125))
    for G in builtin_catalog(p=p, max_order=max_order)],
    ids=lambda G: f"p{G.p}-{G.name}")
def test_lattice_entries_and_centre_pass_the_subgroup_checks(G):
    # the normal lattice's entries, the direct factors built from them and
    # the centre are taken with no check (Subgroup._trusted): each is a
    # set that Subgroup's checks accept, each entry of layer m is normal of
    # order p^m, and Subgroup.is_abelian, which skips the gather in an
    # abelian G, agrees with the gather of the entry's table
    T = G.table
    centre = characteristic_subgroup(G, "center")
    assert centre == Subgroup(G, centre.elements)
    assert centre.elements == tuple(
        g for g in range(G.order)
        if all(commutator(G, g, x) == 0 for x in range(G.order)))
    for m, (_, elems) in enumerate(_normal_lattice(G)):
        for row in elems.tolist():
            S = Subgroup(G, row)
            assert S.order == G.p ** m and S.is_normal()
            sub = T[np.ix_(row, row)]
            assert S.is_abelian() == np.array_equal(sub, sub.T)
    for pair in itertools.islice(groups._direct_pairs(full_subgroup(G)), 64):
        for F in pair:
            assert F == Subgroup(G, F.elements)
            assert all(type(x) is int for x in F.elements)


@pytest.mark.parametrize("G", _reference_corpus(), ids=lambda G: G.name)
def test_abelianization_invariants_match_quotient(G):
    derived = characteristic_subgroup(G, "derived")
    assert abelianization_invariants(G) == \
        abelian_invariants(quotient_group(G, derived)[0])


# C2^6 has 2,825 normal subgroups and 525,792 direct pairs; the digest
# reads each pair in order, H and K as bytes (every element is below 256)
C2_6_ORACLE_DIGEST = \
    "ee6cdd15d6f3e3cc273c6a7baf5739698dea64bbc54fb98c45f87a3d63492397"


def test_order_64_oracle_is_pinned_and_bounded():
    G = catalog_by_name("C2xC2xC2xC2xC2xC2")
    tracemalloc.start()
    try:
        _normal_lattice(G)
        pairs = direct_factor_oracle(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pairs themselves take about 33 MB; a meet matrix of all pairs
    # of the 1,395 normal subgroups of order 8 would take 124 MB more
    assert peak < 40 * 2 ** 20
    assert len(pairs) == 525_792
    digest = hashlib.sha256(b"".join(
        bytes(H.elements) + b"|" + bytes(K.elements) + b";"
        for H, K in pairs)).hexdigest()
    assert digest == C2_6_ORACLE_DIGEST


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


@pytest.mark.parametrize("name", ["C16xC4xC2", "C2xC4xD16"])
def test_oracle_on_masks_of_two_words_matches_references(name):
    # at order 128 each normal subgroup's mask is two 64-bit words
    G = catalog_by_name(name)
    pairs = [(H.elements, K.elements)
             for H, K in direct_factor_oracle(G, cap=128)]
    assert pairs == [(H.elements, K.elements)
                     for H, K in _oracle_reference(G)]
    parts = split_into_indecomposables(G, cap=128)
    assert sorted(map(_factor_kind, parts), key=repr) == \
        sorted(map(_factor_kind, _split_reference(G)), key=repr)


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


# the reference corpus (C4xC4xC4 and C3xC3xC3xC3 among it) and abelian
# groups of orders 125 and 128 beyond it
_BASIS_CORPUS = _reference_corpus() + [
    catalog_by_name(name)
    for name in ("C2xC2xC2xC2xC2xC4", "C25xC5", "C16xC4xC2")]


@pytest.mark.parametrize("G", _BASIS_CORPUS, ids=lambda G: G.name)
def test_abelian_basis_matches_reindexing_recursion(G):
    A, _ = quotient_group(G, characteristic_subgroup(G, "derived"))
    assert _abelian_basis(A) == _abelian_basis_reference(A)


def test_retraction_reads_no_subgroup_lattice(tmp_path, monkeypatch):
    def no_lattice(G):
        raise AssertionError("the subgroup lattice was read")
    monkeypatch.setattr(groups, "_normal_lattice", no_lattice)
    monkeypatch.setattr(groups, "all_subgroups", no_lattice)
    G = catalog_by_name("C2xC2xC2xC4")
    K = retraction_complement(G, 1)
    assert is_internal_direct_product(G, Subgroup.generated(G, [1]), K)
    fx, out = tmp_path / "fx.json", tmp_path / "report.json"
    assert run(["catalog", "--emit-factorization", "C2xC4", "C2xC2",
                "--out", str(fx)]) == 0
    assert run(["recover", "--input", str(fx), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())["body"]["recover"][0]
    assert rec["recovered"]["b_invariants"] == [4, 2]


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


def _lazard_series(G):
    """D_m = prod_{i p^j >= m} gamma_i(G)^{p^j} (Lazard, Ann. Sci. ENS 71,
    1954), from the lower central series gamma_1 = G, gamma_{i+1} =
    [gamma_i, G], for m = 1, 2, ... up to the first trivial D_m."""
    gammas = [full_subgroup(G)]
    while gammas[-1].order > 1:
        gammas.append(Subgroup.generated(G, {
            commutator(G, x, g) for x in gammas[-1].elements
            for g in range(G.order)}))
    terms = []  # (i p^j, the elements of gamma_i^{p^j})
    for i, gamma in enumerate(gammas, start=1):
        q = 1
        while q <= G.exponent():
            terms.append((i * q, {power(G, x, q) for x in gamma.elements}))
            q *= G.p
    series = [full_subgroup(G)]
    while series[-1].order > 1:
        m = len(series) + 1
        series.append(Subgroup.generated(G, set().union(
            *(gens for weight, gens in terms if weight >= m))))
    return tuple(series)


@pytest.mark.parametrize("G", builtin_catalog(p=2, max_order=64)
                         + builtin_catalog(p=3, max_order=81)
                         + builtin_catalog(p=5, max_order=25),
                         ids=lambda G: f"p{G.p}-{G.name}")
def test_jennings_series_matches_lazard(G):
    series = jennings_series(G)
    assert series == _lazard_series(G)
    # the weight-i basis elements lie in D_i and span D_i modulo D_{i+1}
    for i, (D, below) in enumerate(zip(series, series[1:]), start=1):
        xs = [x for x, w in jennings_basis(G) if w == i]
        assert set(xs) <= set(D.elements) - set(below.elements)
        assert G.p ** len(xs) * below.order == D.order
        assert Subgroup.generated(G, set(below.elements) | set(xs)) == D
