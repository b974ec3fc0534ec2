"""Finite p-groups as explicit Cayley tables.

All groups live as order x order index tables with the identity pinned at
index 0, for p in SUPPORTED_PRIMES.  Subgroups are sorted element tuples,
and their checks are gathers over the table: closure is
``mask[T[S, S]]``, normality one ``|G| x |S|`` conjugation gather, the
derived subgroup the closure of one commutator table.

Each fact is checked once.  A table from outside, an input's or a
catalog group's, is checked in full when built; one derived from a
checked group, a subgroup's or a quotient's, is a group table by
construction and is taken as it is (PGroup._trusted).  Subgroup checks a
given element set, but not a subgroup by construction (_trusted): the
closure that _close found (generated), a lattice entry, the centre.

The subgroup lattice is enumerated one layer at a time, by index-p
extension (Neubüser's cyclic extension, specialised to p-groups).  Every
subgroup K > 1 of a p-group has a normal subgroup H of index p, so
K = H<g> for any g in K outside H, and g normalizes H with g^p in H.
Conversely, for such g the union of the cosets H g^k, k < p, is the
subgroup H<g>, so no layer's closure is checked.  Every such g gives the
same K, so only g = min(K - H) is kept, the least of the minima of the
cosets g^k H, 0 < k < p.  A layer is a boolean mask per subgroup, and the
next one comes from a fixed number of gathers over all of its H at once:
one finds every admissible g, one the coset minima, and p - 1 more add
the cosets H g^k, 0 < k < p, to H.  Sorting the masks in descending order
puts a layer in ascending element order and duplicates next to each other.

The normal lattice, all that the direct-factor oracle reads, is built the
same way by central extension.  A chief series of a p-group through a
normal N > 1 has factors of order p, so N = H<g> for a normal H of index p
in N, and N/H is central in G/H: g^p in H and [g, x] in H for every x,
one boolean product with the commutator table's incidence for a layer.
The oracle meets the masks of two layers as 64-bit words and builds a
Subgroup, unchecked, only for a factor it returns.  Subgroups of G, direct
factors included, are read in G's own table, not re-indexed as groups.

The dimension subgroups D_m and a basis of each D_m/D_{m+1} (Jennings)
come from the commutator and p-th power tables the same way; the algebra
builds its basis of F_pG, and every power of I(G), from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fplin import SUPPORTED_PRIMES

MAX_ORDER = 256
ORACLE_CAP = 64
# Largest block of triples checked for associativity at once, in entries
_ASSOC_ENTRIES = 1 << 20
# Largest order whose associativity is checked by the whole |G|^3 scan;
# Light's test is cheaper above it
_FULL_SCAN_MAX = 32
# Largest gather of a chunk of one lattice layer, in entries
_LAYER_ENTRIES = 1 << 16
# Pairs of normal subgroups tested for a trivial meet at once; the pairs
# found are held as Python ints while they are yielded
_PAIR_ENTRIES = 1 << 14


class GroupError(ValueError):
    pass


class NotNormalError(GroupError):
    pass


class OracleCapExceeded(GroupError):
    pass


class RetractionError(GroupError):
    """No retraction G -> <h> fixing h exists."""


def _prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, or None."""
    if n < 2:
        return None
    for p in SUPPORTED_PRIMES:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
    return None


def memoized(fn):
    """Memoize fn(owner, *args) in owner._memo, keyed by fn's name and args.

    The owner is a PGroup or an AlgebraContext, and its memo is one of its
    attributes: a result lives exactly as long as the object it was
    computed for, and nothing is shared between groups.  Results must not
    be mutated (subgroups hold tuples, subspaces read-only bases).
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(owner, *args):
        memo = owner._memo
        key = (name, *args)
        if key not in memo:
            memo[key] = fn(owner, *args)
        return memo[key]

    return wrapper


@dataclass(frozen=True, eq=False)
class PGroup:
    """A p-group as its Cayley table, index 0 the identity.

    A build, of an input table or a catalog one, checks the table:
    square, p-power order at most MAX_ORDER, entries in range, a two-sided
    identity at 0, rows and columns permutations, and associativity.  Up
    to order 32 associativity is the whole |G|^3 scan; above it, Light's
    test, |G|^2 lookups per generator, and the whole scan only on failure,
    so that the error names the least failing triple either way.  A table
    derived from a checked group is taken as it is (_trusted).
    """

    p: int
    table: np.ndarray
    name: str = ""

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        n = t.shape[0]
        if t.shape != (n, n):
            raise GroupError("Cayley table must be square")
        if self.p not in SUPPORTED_PRIMES:
            raise GroupError(f"unsupported prime {self.p}; "
                             f"supported: {SUPPORTED_PRIMES}")
        if n > MAX_ORDER:
            raise GroupError(f"order {n} exceeds the cap {MAX_ORDER}")
        pp = _prime_power(n) if n > 1 else (self.p, 0)
        if pp is None or pp[0] != self.p and n > 1:
            raise GroupError(f"order {n} is not a power of p={self.p}")
        if t.min() < 0 or t.max() >= n:
            raise GroupError("table entries out of range")
        if not (np.array_equal(t[0], np.arange(n)) and
                np.array_equal(t[:, 0], np.arange(n))):
            raise GroupError("index 0 is not a two-sided identity")
        # Latin square: rows and columns are permutations
        ar = np.arange(n)
        if not ((np.sort(t, axis=1) == ar).all() and
                (np.sort(t, axis=0) == ar[:, None]).all()):
            raise GroupError("table rows/columns are not permutations")
        # associativity, exactly: by Light's test above order 32, where it
        # is cheaper, and by the whole scan, which names the least failing
        # triple, up to order 32 and on any failure of Light's test
        small = t.astype(np.int32)
        if n <= _FULL_SCAN_MAX or not _light_associative(small):
            bad = _least_failing_triple(small)
            if bad is not None:
                raise GroupError("associativity fails at triple "
                                 f"{tuple(int(x) for x in bad)}")
        self._adopt(t)

    def _adopt(self, t: np.ndarray) -> None:  # the table, inverses and memo
        vars(self).update(table=t, _inv=(t == 0).argmax(axis=1), _memo={})

    @classmethod
    def _trusted(cls, p: int, table: np.ndarray, name: str = "") -> "PGroup":
        """The group of an int64 table derived from a checked group, taken
        as it is: a subgroup's, a quotient's, or one renamed."""
        G = cls.__new__(cls)
        vars(G).update(p=p, name=name)
        G._adopt(table)
        return G

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def element_order(self, g: int) -> int:
        if not 0 <= g < self.order:
            raise GroupError(f"element index {g} out of range")
        return int(_element_orders(self)[g])

    def exponent(self) -> int:
        return int(_element_orders(self).max())

    @memoized
    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def __repr__(self):
        return f"PGroup(p={self.p}, order={self.order}, name={self.name!r})"


@memoized
def _powers(G: PGroup, k: int) -> np.ndarray:
    """g^k for every element g (k >= 0), by square-and-multiply gathers;
    read-only and memoized on G, as callers ask for the same k again."""
    T = G.table
    acc, base = np.zeros(G.order, dtype=np.int64), np.arange(G.order)
    while k:
        if k & 1:
            acc = T[acc, base]
        base = T[base, base]
        k >>= 1
    acc.setflags(write=False)
    return acc


@memoized
def _element_orders(G: PGroup) -> np.ndarray:
    """The order of every element, read-only and memoized on G: one gather
    per power g^k, k <= exp(G)."""
    T = G.table
    ar = np.arange(G.order)
    orders = np.zeros(G.order, dtype=np.int64)
    x, k = ar, 1
    while True:
        fresh = (x == 0) & (orders == 0)
        orders[fresh] = k
        if orders.all():
            orders.setflags(write=False)
            return orders
        x = T[x, ar]
        k += 1


@memoized
def _commutator_table(G: PGroup) -> np.ndarray:
    """[a, b] = a^-1 b^-1 a b for every pair at once, read-only and
    memoized on G."""
    T, inv = G.table, G._inv
    comm = T[T[inv[:, None], inv[None, :]], T]
    comm.setflags(write=False)
    return comm


def _mask(n: int, elements) -> np.ndarray:
    m = np.zeros(n, dtype=bool)
    m[np.asarray(elements, dtype=np.int64)] = True
    return m


def _closure(G: PGroup, seed) -> np.ndarray:
    """The elements of <seed>, sorted."""
    inside = _mask(G.order, seed if isinstance(seed, np.ndarray)
                   else list(seed))
    inside[0] = True
    return _close(G.table, inside)


def _close(T: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Grow the mask inside, in place, to the least set that holds it and
    is closed under the product table T, as the whole set is, and return
    it sorted: square the set until it is closed.  Sets are masks read
    back with flatnonzero, which sorts them.  No law of T is assumed."""
    S = np.flatnonzero(inside)
    while S.size < inside.size and not inside[
            prods := T[S[:, None], S]].all():
        inside[prods] = True
        S = np.flatnonzero(inside)
    return S


def _least_failing_triple(T: np.ndarray) -> np.ndarray | None:
    """The least (a, b, c) with (ab)c != a(bc) in the table T, or None:
    the whole |T|^3 scan, a chunk of rows a at a time, in order, so the
    first failing triple found is the least; one chunk holds every a up
    to order 101."""
    n = T.shape[0]
    step = max(1, _ASSOC_ENTRIES // (n * n))
    for a in range(0, n, step):
        left = T[T[a:a + step]]      # left[a,b,c] = (ab)c
        right = T[a:a + step][:, T]  # right[a,b,c] = a(bc)
        if not np.array_equal(left, right):
            return np.argwhere(left != right)[0] + (a, 0, 0)
    return None


def _light_associative(T: np.ndarray) -> bool:
    """Light's associativity test (Clifford & Preston, The Algebraic
    Theory of Semigroups I, 1961, section 1.2) on a Latin-square table T
    with identity 0.

    The a with (xa)y = x(ay) for all x, y form a set closed under the
    product: for a, b in it, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
    = x((ab)y).  So T is associative iff (xs)y = x(sy) for all x, y and
    every s of a set S that generates T under its own product: two
    |T|^2 gathers per s.  S is found greedily, each s the least element
    outside the closure of those taken before.  A closed set that holds 0
    is a Latin subsquare, and a proper Latin subsquare fills at most half
    of its square's order, so each s at least doubles the closure: S has
    at most log2 |T| elements, whether T is a group's table or not.
    """
    inside = np.zeros(T.shape[0], dtype=bool)
    inside[0] = True
    gens = []
    while not inside.all():
        gens.append(int(inside.argmin()))
        inside[gens[-1]] = True
        _close(T, inside)
    S = np.array(gens, dtype=np.int64)
    # [x, j, y]: (x s_j) y against x (s_j y)
    return bool(np.array_equal(T[T[:, S]], T[:, T[S]]))


@dataclass(frozen=True, eq=False)
class Subgroup:
    parent: PGroup
    elements: tuple

    def __post_init__(self):
        elems = tuple(sorted(set(int(e) for e in self.elements)))
        object.__setattr__(self, "elements", elems)
        G = self.parent
        if 0 not in elems:
            raise GroupError("subgroup must contain the identity")
        if elems[0] < 0 or elems[-1] >= G.order:
            raise GroupError("subgroup elements out of range")
        S = np.array(elems, dtype=np.int64)
        inside = _mask(G.order, S)
        if not inside[G._inv[S]].all():
            raise GroupError("subgroup not closed under inverses")
        if not inside[G.table[S[:, None], S]].all():
            raise GroupError("subgroup not closed under multiplication")

    @classmethod
    def _trusted(cls, parent: PGroup, elements: np.ndarray) -> "Subgroup":
        """Sorted elements that are a subgroup by construction, as is."""
        S = cls.__new__(cls)
        vars(S).update(parent=parent, elements=tuple(elements.tolist()))
        return S

    @classmethod
    def generated(cls, parent: PGroup, gens) -> "Subgroup":
        """<gens>, with no check: _close has just found it closed, and it
        holds 1, so it is a subgroup of the finite group (g^-1 = g^(|g|-1))."""
        return cls._trusted(parent, _closure(parent, gens))

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_normal(self) -> bool:
        """g h g^-1 in S for every g in G and h in S."""
        G, S = self.parent, np.array(self.elements, dtype=np.int64)
        conj = G.table[G.table[:, S], G._inv[:, None]]
        return bool(_mask(G.order, S)[conj].all())

    def is_abelian(self) -> bool:
        if self.parent.is_abelian():  # no gather
            return True
        S = np.array(self.elements, dtype=np.int64)
        sub = self.parent.table[S[:, None], S]
        return bool(np.array_equal(sub, sub.T))

    def is_cyclic(self) -> bool:
        """Some element of S has order |S|."""
        orders = _element_orders(self.parent)[list(self.elements)]
        return int(orders.max()) == self.order

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.elements == other.elements)

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


def full_subgroup(G: PGroup) -> Subgroup:
    return Subgroup._trusted(G, np.arange(G.order))


def subgroup_to_pgroup(S: Subgroup) -> tuple[PGroup, list[int]]:
    """Re-index a subgroup as a standalone PGroup.

    Returns (group, elems) where elems[i] is the parent index of element i.
    """
    elems = list(S.elements)  # sorted; identity 0 comes first
    n = len(elems)
    idx = np.array(elems, dtype=np.int64)
    pos = np.zeros(S.parent.order, dtype=np.int64)
    pos[idx] = np.arange(n)
    table = pos[S.parent.table[idx[:, None], idx]]
    return PGroup._trusted(S.parent.p, table,
                           f"sub{n}<{S.parent.name}>"), elems


def characteristic_subgroup(G: PGroup, kind: str, i: int = 1) -> Subgroup:
    """center, derived, omega(i), agemo(i) or frattini subgroup of G,
    memoized on G."""
    return _characteristic_subgroup(G, kind, i)


@memoized
def _characteristic_subgroup(G: PGroup, kind: str, i: int) -> Subgroup:
    T = G.table
    if kind == "center":
        return Subgroup._trusted(G, np.flatnonzero((T == T.T).all(axis=1)))
    if kind == "derived":
        return Subgroup.generated(G, _commutator_table(G).ravel())
    if kind == "omega":
        if i < 1:
            raise GroupError("omega requires i >= 1")
        return Subgroup.generated(G, np.flatnonzero(_powers(G, G.p ** i) == 0))
    if kind == "agemo":
        if i < 1:
            raise GroupError("agemo requires i >= 1")
        return Subgroup.generated(G, _powers(G, G.p ** i))
    if kind == "frattini":
        return agemo_derived(G, 1)  # valid for p-groups
    raise GroupError(f"unknown characteristic subgroup kind {kind!r}")


@memoized
def omega_center_derived(G: PGroup, i: int) -> Subgroup:
    """Omega_i(Z(G)) G', generated by the central g with g^{p^i} = 1 and by
    the derived subgroup; memoized on G."""
    center = characteristic_subgroup(G, "center")
    pw = _powers(G, G.p ** i)
    gens = {g for g in center.elements if pw[g] == 0}
    gens |= set(characteristic_subgroup(G, "derived").elements)
    return Subgroup.generated(G, gens)


@memoized
def agemo_derived(G: PGroup, i: int) -> Subgroup:
    """mho_i(G) G'; memoized on G."""
    gens = set(characteristic_subgroup(G, "agemo", i).elements)
    gens |= set(characteristic_subgroup(G, "derived").elements)
    return Subgroup.generated(G, gens)


@memoized
def jennings_series(G: PGroup) -> tuple[Subgroup, ...]:
    """The dimension subgroups D_1 = G, D_2, ... of G over F_p, down to the
    first trivial one; memoized on G.

    D_m = [D_{m-1}, G] D_{ceil(m/p)}^p (Jennings, Trans. AMS 50, 1941): the
    closure of the commutators [d, g] for d in D_{m-1} and of the p-th
    powers of D_{ceil(m/p)}, one gather of each table.  D_m is also
    {g : g - 1 in I(G)^m}, and Lazard's prod_{i p^j >= m} gamma_i(G)^{p^j}.
    """
    comm, pow_p = _commutator_table(G), _powers(G, G.p)
    series = [Subgroup.generated(G, range(G.order))]
    while series[-1].order > 1:
        m = len(series) + 1  # D_{ceil(m/p)} is series[(m - 1) // p]
        last, low = (list(series[k].elements) for k in (-1, (m - 1) // G.p))
        series.append(Subgroup.generated(
            G, np.concatenate([comm[last].ravel(), pow_p[low]])))
    return tuple(series)


@memoized
def jennings_basis(G: PGroup) -> tuple[tuple[int, int], ...]:
    """Pairs (x, i) whose x of weight i map to a basis of D_i/D_{i+1}, by
    ascending weight; memoized on G.

    Each x is the least element of D_i outside H = <D_{i+1}, the x of
    weight i chosen before>.  D_i/D_{i+1} is elementary abelian and central
    in G/D_{i+1}, so H is normal, x^p lies in D_{i+1}, and <H, x> is the
    union of the cosets H x^k, k < p.
    """
    T = G.table
    series = jennings_series(G)
    basis = []
    for i, (D, below) in enumerate(zip(series, series[1:]), start=1):
        H = np.array(below.elements, dtype=np.int64)
        outside = _mask(G.order, D.elements)
        outside[H] = False
        while H.size < D.order:
            x = int(np.flatnonzero(outside)[0])
            cosets = [H]
            for _ in range(G.p - 1):
                cosets.append(T[cosets[-1], x])
            H = np.concatenate(cosets)
            outside[H] = False
            basis.append((x, i))
    return tuple(basis)


@memoized
def quotient_group(G: PGroup, N: Subgroup) -> tuple[PGroup, np.ndarray]:
    """(G/N, coset), coset[g] the index of gN in G/N, read-only; memoized
    on G by N, so the checks run once and callers share G/N and its context.

    The cosets are indexed by their least elements in ascending order, so
    N itself, the coset of 0, is index 0.  N is normal, so gN hN = ghN:
    coset is a homomorphism onto G/N with kernel N by construction, and
    neither is checked."""
    if N.parent is not G:
        raise GroupError("subgroup does not belong to this group")
    if not N.is_normal():
        raise NotNormalError("subgroup is not normal")
    nelems = np.array(N.elements, dtype=np.int64)
    rep = G.table[:, nelems].min(axis=1)  # smallest element of gN
    reps = np.flatnonzero(_mask(G.order, rep))  # identity coset: rep 0 -> 0
    coset = np.searchsorted(reps, rep)
    table = coset[G.table[reps[:, None], reps]]
    coset.setflags(write=False)
    return PGroup._trusted(G.p, table, f"{G.name}/N{N.order}"), coset


@memoized
def r_subquotient(G: PGroup, i: int) -> Subgroup:
    """R_i(G), in place in G/(agemo_i * derived); memoized on G."""
    Q, coset = quotient_group(G, agemo_derived(G, i))
    # G' lies in the kernel, so this is the image of Omega_i(Z(G))
    return Subgroup.generated(
        Q, coset[list(omega_center_derived(G, i).elements)])


def word_exponents(G: PGroup, basis) -> np.ndarray:
    """exps[g] = (b_1, ..., b_d) with g = x_1^b_1 ... x_d^b_d, 0 <= b_j <
    o_j, for the pairs (x_j, o_j) of basis, read-only, each word built by
    gathers; raises GroupError unless the words give each element once."""
    orders = [o for _, o in basis]
    words, free = np.zeros(1, dtype=np.int64), math.prod(orders) == G.order
    for x, o in basis if free else ():
        blocks = [words]
        for _ in range(o - 1):
            blocks.append(G.table[blocks[-1], x])
        words = np.concatenate(blocks)
    if not (free and _mask(G.order, words).all()):
        raise GroupError("the words in the basis do not give each element "
                         "exactly once")
    exps = np.empty((G.order, len(basis)), dtype=np.int64)
    exps[words] = (np.arange(G.order)[:, None]
                   // np.cumprod([1, *orders[:-1]]) % orders)
    exps.setflags(write=False)
    return exps


def abelian_invariants(A: PGroup | Subgroup) -> tuple[int, ...]:
    """Cyclic decomposition exponents of an abelian p-group, descending.

    A subgroup is read in place: its element orders are those of its
    elements in the parent."""
    S = A if isinstance(A, Subgroup) else full_subgroup(A)
    (invs,) = subgroup_invariants(S.parent, [S])
    if invs is None:
        raise GroupError("abelian_invariants requires an abelian group")
    return invs


def subgroup_invariants(G: PGroup, subgroups) -> list[tuple[int, ...] | None]:
    """abelian_invariants of each subgroup of G, None for one that is not
    abelian, all at once: log_p #{g in S : g^{p^k} = 1} = sum_i min(e_i, k),
    k = 0, 1, ..., and those counts are one sum over the subgroups' masks
    met with the masks of {g : |g| <= p^k}."""
    orders = _element_orders(G)
    levels = G.p ** np.arange(round(math.log(G.order, G.p)) + 1)
    masks = np.zeros((len(subgroups), G.order, 1), dtype=bool)
    for row, S in zip(masks, subgroups):
        row[list(S.elements)] = True
    counts = (masks & (orders[:, None] <= levels)).sum(axis=1)
    # counts are powers of p, so their logs are exact positions in levels
    logs = np.searchsorted(levels, counts)
    out = []
    for S, row in zip(subgroups, logs.tolist()):
        if not S.is_abelian():
            out.append(None)
            continue
        out.append(invariants_from_counts(
            G.p, [b - a for a, b in zip(row, row[1:])]))
        assert math.prod(out[-1]) == S.order
    return out


def abelianization_invariants(G: PGroup) -> tuple[int, ...]:
    """The invariants of G/G', with no quotient group built: a in G/G' has
    a^{p^k} = 1 for exactly #{g : g^{p^k} in G'} / |G'| cosets a, and the
    log_p of that count is sum_i min(e_i, k), k = 0, 1, ..."""
    derived = characteristic_subgroup(G, "derived")
    inside = _mask(G.order, derived.elements)
    pow_p = _powers(G, G.p)
    x, logs = np.arange(G.order), [0]
    while G.p ** logs[-1] * derived.order < G.order:
        x = pow_p[x]
        count = int(inside[x].sum()) // derived.order
        logs.append(round(math.log(count, G.p)))
    return invariants_from_counts(G.p, [b - a for a, b in zip(logs, logs[1:])])


def invariants_from_counts(p: int, above) -> tuple[int, ...]:
    """The invariants p^{e_1} >= p^{e_2} >= ... of an abelian p-group from
    above[k] = #{i : e_i > k}, k = 0, 1, ...: e_j is the number of k with
    above[k] > j, the conjugate partition."""
    return tuple(p ** sum(n > j for n in above)
                 for j in range(above[0] if above else 0))


def _index_p_extensions(
        G: PGroup, admissible) -> list[tuple[np.ndarray, np.ndarray]]:
    """The subgroups reached from 1 by index-p extension, one (masks,
    elements) pair per layer.

    Layer m holds the subgroups of order p^m as a boolean mask and a sorted
    element row each, rows in ascending element order.  Each K in layer
    m + 1 is H<g> for some H in layer m and some g outside H with g^p in H
    for which admissible(elements, masks) is true, which it is only for a
    g that normalizes H; K, the union of the cosets H g^k, k < p, is then
    a subgroup with no check.  All of K outside H is admissible with g, so
    only g = min(K - H), the least of the coset minima of g^k H, 0 < k < p,
    extends H.  A layer takes a fixed number of gathers, a chunk of H at a
    time.
    """
    T, p, n = G.table, G.p, G.order
    pows = [_powers(G, k) for k in range(1, p)]  # g^k, k = 1, ..., p - 1
    pow_p = _powers(G, p)
    step = max(1, _LAYER_ENTRIES // (n * n))
    masks = _mask(n, [0])[None]
    elems = np.zeros((1, 1), dtype=np.int64)
    layers = [(masks, elems)]
    while True:
        found = []
        for a in range(0, len(elems), step):
            E, inside = elems[a:a + step], masks[a:a + step]
            ok = admissible(E, inside) & inside[:, pow_p] & ~inside
            coset_min = T[:, E].min(axis=2).T  # row i, column x: min x H_i
            least = functools.reduce(  # g^1 H is coset_min itself
                np.minimum, (coset_min[:, pw] for pw in pows[1:]), coset_min)
            hs, gs = np.nonzero(ok & (least == np.arange(n)))
            rows, at = inside[hs], np.arange(hs.size)[:, None]
            for pw in pows:  # the coset H g^k
                rows[at, T[E[hs], pw[gs][:, None]]] = True
            found.append(rows)
        masks = np.concatenate(found)
        if not len(masks):
            return layers
        # ascending elements is descending mask order; duplicates end up
        # next to each other
        packed = np.packbits(masks, axis=1)
        order = np.lexsort((~packed)[:, ::-1].T)
        packed, masks = packed[order], masks[order]
        fresh = np.ones(len(masks), dtype=bool)
        fresh[1:] = (packed[1:] != packed[:-1]).any(axis=1)
        masks = masks[fresh]
        elems = (np.flatnonzero(masks) % n).reshape(len(masks), -1)
        layers.append((masks, elems))


@lru_cache(maxsize=None)
def all_subgroups(G: PGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, sorted by (order, elements): the extensions of
    each H by the g that normalize it.

    No library path reads the whole lattice; the tests hold it to a
    closure reference.  The lru_cache keeps every group it has seen alive,
    and stays only because perfbench/tracer.py reads its cache_info().
    """
    T, inv = G.table, G._inv

    def normalizes(E, inside):  # row i, column x: x normalizes H_i
        conj = T[T[:, E], inv[:, None, None]].transpose(1, 0, 2)
        return inside[np.arange(len(E))[:, None, None], conj].all(axis=2)

    return tuple(Subgroup(G, tuple(row))
                 for _, elems in _index_p_extensions(G, normalizes)
                 for row in elems.tolist())


def _words(masks: np.ndarray) -> np.ndarray:
    """Each mask as 64-bit words, element x at bit x % 64 of word x // 64."""
    n = masks.shape[1]
    padded = np.zeros((len(masks), -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = masks
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


@memoized
def _normal_lattice(G: PGroup) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every normal subgroup of G as (masks as words, elements) per layer,
    layer m of order p^m in ascending element order; read-only and
    memoized on G.

    Built by central extension (see the module docstring): N = H<g> with
    H normal and gH central in G/H, that is [g, x] in H for every x.
    """
    hits = np.zeros((G.order, G.order), dtype=bool)  # [c, g]: c is some [g, x]
    hits[_commutator_table(G), np.arange(G.order)[:, None]] = True

    def central(E, inside):  # row i, column g: no hit of g outside H_i
        return ~(~inside @ hits)  # a transposed view here grew peak RSS

    layers = tuple((_words(masks), elems)
                   for masks, elems in _index_p_extensions(G, central))
    for words, elems in layers:
        words.setflags(write=False)
        elems.setflags(write=False)
    return layers


def _check_oracle_cap(G: PGroup, cap: int) -> None:
    if G.order > cap:
        raise OracleCapExceeded(f"order {G.order} exceeds oracle cap {cap}")


def _direct_pairs(F: Subgroup):
    """Every unordered (H, K) with F = H x K, both nontrivial, H first in
    lattice order, for F = G or a direct factor of G = F x L.

    L centralizes F, so the normal subgroups of F are those of G inside F,
    and they are read from G's normal lattice.  Two normal subgroups that
    meet trivially commute elementwise, so |H||K| = |F| and H & K = 1 give
    F = H x K.  For each layer of H with |H|^2 <= |F|, a chunk of H at a
    time meets the layer of order |F|/|H| word by word; a Subgroup is
    built unchecked only for a factor yielded, once per lattice entry.
    """
    G = F.parent
    lattice = _normal_lattice(G)
    f = round(math.log(F.order, G.p))
    outside = _words(~_mask(G.order, F.elements)[None])
    one = _words(_mask(G.order, [0])[None])
    subs = [[None] * len(elems) for _, elems in lattice]

    def factor(m, i):
        S = subs[m][i]
        if S is None:
            S = subs[m][i] = Subgroup._trusted(G, lattice[m][1][i])
        return S

    def inside_F(m):
        return np.flatnonzero(~(lattice[m][0] & outside).any(axis=1))

    for m in range(1, f // 2 + 1):
        hs, ks = inside_F(m), inside_F(f - m)
        if not (hs.size and ks.size):
            continue
        wh, wk = lattice[m][0][hs], lattice[f - m][0][ks]
        step = max(1, _PAIR_ENTRIES // (ks.size * wk.shape[1]))
        Ks = subs[f - m]
        for a in range(0, hs.size, step):
            trivial = ((wh[a:a + step, None] & wk[None]) == one).all(axis=2)
            if 2 * m == f:  # one layer: K after H
                trivial &= hs[a:a + step, None] < ks[None]
            for r in np.flatnonzero(trivial.any(axis=1)).tolist():
                H = factor(m, int(hs[a + r]))
                for j in ks[trivial[r]].tolist():
                    yield H, Ks[j] or factor(f - m, j)


def direct_factor_oracle(G: PGroup, cap: int = ORACLE_CAP) -> list[tuple[Subgroup, Subgroup]]:
    """All unordered internal direct decompositions G = H x K, both nontrivial.

    Brute force over the normal subgroup lattice; empty list means G is
    directly indecomposable.
    """
    _check_oracle_cap(G, cap)
    return list(_direct_pairs(full_subgroup(G)))


def is_internal_direct_product(G: PGroup, H: Subgroup, K: Subgroup) -> bool:
    if H.order * K.order != G.order:
        return False
    if len(set(H.elements) & set(K.elements)) != 1:
        return False
    if not (H.is_normal() and K.is_normal()):
        return False
    h = np.array(H.elements, dtype=np.int64)
    k = np.array(K.elements, dtype=np.int64)
    return bool(np.array_equal(G.table[h[:, None], k], G.table[k[:, None], h].T))


def _abelian_basis(A: PGroup) -> list[tuple[int, int]]:
    """Generators of independent cyclic factors of an abelian group,
    as (element, order) pairs with descending orders.

    Peels a cyclic factor <g> of maximal order m off K (first A itself),
    with g the least such element of K, and goes on in a complement H of
    <g> in K, built greedily: scan K in ascending order and keep x whenever
    <H, x>, the union of the cosets H x^k, still meets <g> only in 1.

    H is then maximal among the subgroups of K that meet <g> trivially (an
    x left out was refused by a subgroup of the final H), and such a
    subgroup is a complement of a cyclic subgroup of maximal order, as in
    the classical proof of the basis theorem; so the scan stops at
    |H| = |K|/m.  H is also the least complement in (order, elements)
    order, the first one in the subgroup lattice: let x be the least
    element in which H and another complement S differ.  If x were in S
    only, H's generators kept before x lie below x, so in S, and <H_x, x>
    lies in S and meets <g> trivially, and the scan would have kept x.  So
    x is in H, and H comes first.
    """
    T = A.table
    orders = _element_orders(A)
    basis: list[tuple[int, int]] = []
    K = np.arange(A.order)
    while K.size > 1:
        g = int(K[orders[K].argmax()])
        m = int(orders[g])
        basis.append((g, m))
        size = K.size // m
        cyc = _mask(A.order, Subgroup.generated(A, (g,)).elements)
        H = np.zeros(1, dtype=np.int64)
        inside = _mask(A.order, H)
        for x in K:
            if H.size == size:
                break
            if inside[x]:
                continue
            cosets = [T[H, x]]  # H x^k; H[0] = 1, so its first entry is x^k
            while not inside[cosets[-1][0]]:
                cosets.append(T[cosets[-1], x])
            new = np.concatenate(cosets[:-1])
            if not cyc[new].any():
                H = np.sort(np.concatenate([H, new]))
                inside[new] = True
        if H.size != size:
            raise GroupError("no complement found for a maximal cyclic factor")
        K = H
    return basis


def retraction_complement(G: PGroup, h: int) -> Subgroup:
    """Kernel of a homomorphism chi: G -> <h> with chi(h) = h.

    Solved on G/G', in the coordinates of its _abelian_basis; raises
    GroupError unless h is a central element of G, and RetractionError
    when no such chi exists (h then admits no complement through this
    route).  The kernel K is a complement of <h> by construction, so it is
    not checked: chi fixes <h>, so <h> ∩ K = 1, and chi is onto <h>, so
    |K| = |G|/|h|; both are normal, h being central.
    """
    m = G.element_order(h)  # an index out of range fails here
    if h not in characteristic_subgroup(G, "center").elements:
        raise GroupError("h must be central")
    if m == 1:
        return full_subgroup(G)
    A, coset = quotient_group(G, characteristic_subgroup(G, "derived"))
    basis = _abelian_basis(A)
    coords = word_exponents(A, basis)  # raises unless G/G' is free on it
    c, images = coords[coset[h]], coords[coset]
    allowed = [range(0, m, m // math.gcd(o, m)) for _, o in basis]
    for xs in itertools.product(*allowed):
        if int(c @ xs) % m == 1:
            chi = images @ xs % m
            return Subgroup._trusted(G, np.flatnonzero(chi == 0))
    raise RetractionError(f"no retraction onto <h> with chi(h)=h (h={h})")


def split_into_indecomposables(G: PGroup, cap: int = ORACLE_CAP) -> list[Subgroup]:
    """Decompose G into directly indecomposable factors (oracle-based), as
    subgroups of G.

    Krull-Schmidt guarantees the multiset of isomorphism types does not
    depend on the decomposition path, so the first oracle pair suffices.
    Each factor is split on G's own normal lattice (see _direct_pairs).
    """
    _check_oracle_cap(G, cap)

    def split(F: Subgroup) -> list[Subgroup]:
        pair = next(_direct_pairs(F), None)
        return [F] if pair is None else split(pair[0]) + split(pair[1])

    return split(full_subgroup(G))


def cyclic_factor_orders(G: PGroup, cap: int = ORACLE_CAP) -> frozenset:
    """Orders of the cyclic factors among G's directly indecomposable
    factors (oracle-based; empty for the trivial group)."""
    if G.order == 1:
        return frozenset()
    return frozenset(F.order for F in split_into_indecomposables(G, cap=cap)
                     if F.is_cyclic())


# ---------------------------------------------------------------------------
# catalog constructors


def _cyclic_table(n: int) -> np.ndarray:
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n


def _check_size(p: int, order: int) -> None:
    """Refuse a catalog group before its order^2 table is allocated."""
    if p not in SUPPORTED_PRIMES:
        raise GroupError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")
    if order > MAX_ORDER:
        raise GroupError("order exceeds cap")


def _metacyclic(p: int, m: int, k: int, t: int, e: int, name: str) -> PGroup:
    """<r, s | r^m = 1, s^k = r^e, s r s^-1 = r^t>, r^i s^j at index i + m*j.

    s^j r^i = r^{i t^j} s^j, and s^{j1 + j2} = r^e s^{j1 + j2 - k} past k,
    so (r^i1 s^j1)(r^i2 s^j2) = r^{i1 + i2 t^j1 + e [j1 + j2 >= k]}
    s^{(j1 + j2) mod k}, for every pair at once."""
    _check_size(p, m * k)
    ij = np.arange(m * k)
    i, j = ij % m, ij // m
    tj = np.array([pow(t, x, m) for x in range(k)], dtype=np.int64)
    i1, j1, i2, j2 = i[:, None], j[:, None], i[None, :], j[None, :]
    table = ((i1 + i2 * tj[j1] + e * (j1 + j2 >= k)) % m
             + m * ((j1 + j2) % k))
    return PGroup(p, table, name)


def catalog_build(family: str, *params) -> PGroup:
    """Built-in group constructors for the test corpus."""
    if family == "cyclic":
        p, n = params
        _check_size(p, p ** n)
        return PGroup(p, _cyclic_table(p ** n), name=f"C{p ** n}")
    if family == "dihedral":
        (order,) = params
        if order < 8 or order & (order - 1):
            raise GroupError("dihedral: order must be a 2-power >= 8")
        return _metacyclic(2, order // 2, 2, order // 2 - 1, 0, f"D{order}")
    if family == "quaternion":
        (order,) = params
        if order < 8 or order & (order - 1):
            raise GroupError("quaternion: order must be a 2-power >= 8")
        m = order // 2
        return _metacyclic(2, m, 2, m - 1, m // 2, f"Q{order}")
    if family == "semidihedral":
        (order,) = params
        if order < 16 or order & (order - 1):
            raise GroupError("semidihedral: order must be a 2-power >= 16")
        m = order // 2
        return _metacyclic(2, m, 2, m // 2 - 1, 0, f"SD{order}")
    if family == "modular_maximal_cyclic":
        p, order = params
        pp = _prime_power(order)
        if pp is None or pp[0] != p or pp[1] < 3 or (p == 2 and order < 16):
            raise GroupError("modular_maximal_cyclic: invalid parameters")
        # <r, s | r^{p^{k-1}}, s^p, s r s^-1 = r^{1 + p^{k-2}}>
        m = order // p
        return _metacyclic(p, m, p, m // p + 1, 0, f"M{order}")
    if family == "heisenberg":
        (p,) = params
        return _heisenberg(p)
    if family == "direct_product":
        G1, G2 = params
        if G1.p != G2.p:
            raise GroupError("direct_product: mismatched primes")
        n1, n2 = G1.order, G2.order
        _check_size(G1.p, n1 * n2)
        T = (G1.table[:, None, :, None] * n2 + G2.table[None, :, None, :])
        table = T.reshape(n1 * n2, n1 * n2)
        return PGroup(G1.p, table, name=f"{G1.name}x{G2.name}")
    raise GroupError(f"unknown catalog family {family!r}")


def _heisenberg(p: int) -> PGroup:
    """Upper unitriangular 3x3 matrices over F_p, (a, b, c) at index
    a p^2 + b p + c with (a1, b1, c1)(a2, b2, c2) = (a1 + a2, b1 + b2,
    c1 + c2 + a1 b2)."""
    _check_size(p, p ** 3)
    a, b, c = np.unravel_index(np.arange(p ** 3), (p, p, p))
    table = ((a[:, None] + a) % p * p * p + (b[:, None] + b) % p * p
             + (c[:, None] + c + a[:, None] * b) % p)
    return PGroup(p, table, name=f"He{p}")
