"""Finite p-groups as explicit Cayley tables.

All groups live as order x order index tables with the identity pinned at
index 0, for p in SUPPORTED_PRIMES.  Subgroups are sorted element tuples,
and their checks are gathers over the table: closure is
``mask[T[S, S]]``, normality one ``|G| x |S|`` conjugation gather, the
derived subgroup the closure of one commutator table.

The subgroup lattice is enumerated layer by layer, by index-p extension
(Neubüser's cyclic extension, specialised to p-groups).  Every subgroup
K > 1 of a p-group has a normal subgroup H of index p, so K = H<g> for
any g in K outside H, and g normalizes H with g^p in H.  One gather over the
table finds every such g for a given H; each gives K as the union of the
cosets H g^k, k < p, and no closure is ever computed.

The normal lattice, all that the direct-factor oracle reads, is built the
same way by central extension.  A chief series of a p-group through a
normal N > 1 has factors of order p, so N = H<g> for a normal H of index p
in N, and N/H is central in G/H: g^p in H and [g, x] in H for every x.
One gather over the commutator table finds every such g for a given H.
Subgroups of G, direct factors included, are read in G's own table rather
than re-indexed as groups of their own.
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


@dataclass(frozen=True, eq=False)
class PGroup:
    p: int
    table: np.ndarray
    name: str = ""

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        object.__setattr__(self, "table", t)
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
        # associativity, checked exhaustively (order <= 256)
        small = t.astype(np.int32)
        left = small[small]             # left[a,b,c] = (ab)c
        right = small[:, small]         # right[a,b,c] = a(bc)
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)[0]
            raise GroupError(f"associativity fails at triple {tuple(int(x) for x in bad)}")
        inv = (t == 0).argmax(axis=1)
        object.__setattr__(self, "_inv", inv)
        object.__setattr__(self, "_memo", {})  # see memoized()

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv(g), -k
        acc, base = 0, g
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def element_order(self, g: int) -> int:
        if not 0 <= g < self.order:
            raise GroupError(f"element index {g} out of range")
        o, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            o += 1
        return o

    def exponent(self) -> int:
        return int(_element_orders(self).max())

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def commutator(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def conjugate(self, g: int, by: int) -> int:
        return self.mul(self.mul(by, g), self.inv(by))

    def __repr__(self):
        return f"PGroup(p={self.p}, order={self.order}, name={self.name!r})"


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


def _powers(G: PGroup, k: int) -> np.ndarray:
    """g^k for every element g (k >= 0), by square-and-multiply gathers."""
    T = G.table
    acc, base = np.zeros(G.order, dtype=np.int64), np.arange(G.order)
    while k:
        if k & 1:
            acc = T[acc, base]
        base = T[base, base]
        k >>= 1
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


def _mask(n: int, elements) -> np.ndarray:
    m = np.zeros(n, dtype=bool)
    m[np.asarray(elements, dtype=np.int64)] = True
    return m


def _closure(G: PGroup, seed) -> frozenset:
    elems = set(seed) | {0}
    frontier = np.array(sorted(elems), dtype=np.int64)
    while True:
        prods = np.unique(G.table[np.ix_(frontier, frontier)])
        new = set(map(int, prods)) - elems
        if not new:
            return frozenset(elems)
        elems |= new
        frontier = np.array(sorted(elems), dtype=np.int64)


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
        if not inside[G.table[np.ix_(S, S)]].all():
            raise GroupError("subgroup not closed under multiplication")
        if self.parent.order % len(elems):
            raise GroupError("subgroup size does not divide group order")

    @classmethod
    def generated(cls, parent: PGroup, gens) -> "Subgroup":
        return cls(parent, tuple(sorted(_closure(parent, gens))))

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, g: int) -> bool:
        return g in set(self.elements)

    def is_normal(self) -> bool:
        """g h g^-1 in S for every g in G and h in S."""
        G, S = self.parent, np.array(self.elements, dtype=np.int64)
        conj = G.table[G.table[:, S], G._inv[:, None]]
        return bool(_mask(G.order, S)[conj].all())

    def is_abelian(self) -> bool:
        S = np.array(self.elements, dtype=np.int64)
        sub = self.parent.table[np.ix_(S, S)]
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


def trivial_subgroup(G: PGroup) -> Subgroup:
    return Subgroup(G, (0,))


def full_subgroup(G: PGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def subgroup_to_pgroup(S: Subgroup, name: str = "") -> tuple[PGroup, list[int]]:
    """Re-index a subgroup as a standalone PGroup.

    Returns (group, elems) where elems[i] is the parent index of element i.
    """
    elems = list(S.elements)  # sorted; identity 0 comes first
    n = len(elems)
    idx = np.array(elems, dtype=np.int64)
    pos = np.zeros(S.parent.order, dtype=np.int64)
    pos[idx] = np.arange(n)
    table = pos[S.parent.table[np.ix_(idx, idx)]]
    return PGroup(S.parent.p, table, name or f"sub{n}<{S.parent.name}>"), elems


@dataclass(frozen=True, eq=False)
class GroupHom:
    source: PGroup
    target: PGroup
    images: tuple

    def __post_init__(self):
        imgs = np.asarray(self.images, dtype=np.int64)
        object.__setattr__(self, "images", tuple(int(x) for x in imgs))
        if imgs[0] != 0:
            raise GroupError("homomorphism must send identity to identity")
        Ts, Tt = self.source.table, self.target.table
        if not np.array_equal(imgs[Ts], Tt[np.ix_(imgs, imgs)]):
            raise GroupError("images do not define a homomorphism")

    def __call__(self, g: int) -> int:
        return self.images[g]

    def kernel(self) -> Subgroup:
        return Subgroup(self.source,
                        tuple(g for g in range(self.source.order)
                              if self.images[g] == 0))


def characteristic_subgroup(G: PGroup, kind: str, i: int = 1) -> Subgroup:
    """center, derived, omega(i), agemo(i) or frattini subgroup of G,
    memoized on G."""
    return _characteristic_subgroup(G, kind, i)


@memoized
def _characteristic_subgroup(G: PGroup, kind: str, i: int) -> Subgroup:
    T = G.table
    if kind == "center":
        elems = np.flatnonzero((T == T.T).all(axis=1))
        return Subgroup(G, tuple(elems.tolist()))
    if kind == "derived":
        inv = G._inv
        # [a, b] = a^-1 b^-1 a b for every pair at once
        comm = T[T[inv[:, None], inv[None, :]], T]
        return Subgroup.generated(G, np.unique(comm).tolist())
    if kind == "omega":
        if i < 1:
            raise GroupError("omega requires i >= 1")
        gens = np.flatnonzero(_powers(G, G.p ** i) == 0)
        return Subgroup.generated(G, gens.tolist())
    if kind == "agemo":
        if i < 1:
            raise GroupError("agemo requires i >= 1")
        gens = np.unique(_powers(G, G.p ** i))
        return Subgroup.generated(G, gens.tolist())
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


def quotient_group(G: PGroup, N: Subgroup) -> tuple[PGroup, GroupHom]:
    if N.parent is not G:
        raise GroupError("subgroup does not belong to this group")
    if not N.is_normal():
        raise NotNormalError("subgroup is not normal")
    nelems = np.array(N.elements, dtype=np.int64)
    rep = G.table[:, nelems].min(axis=1)  # smallest element of gN
    reps = np.unique(rep)  # the identity coset has rep 0 -> index 0
    coset = np.searchsorted(reps, rep)
    table = coset[G.table[np.ix_(reps, reps)]]
    Q = PGroup(G.p, table, name=f"{G.name}/N{N.order}")
    pi = GroupHom(G, Q, tuple(int(c) for c in coset))
    assert pi.kernel() == N
    return Q, pi


def r_subquotient(G: PGroup, i: int) -> tuple[PGroup, Subgroup]:
    """R_i(G) as an abelian group, with its embedding into G/(agemo_i * derived)."""
    Q, pi = quotient_group(G, agemo_derived(G, i))
    # G' lies in the kernel, so this is the image of Omega_i(Z(G))
    R_sub = Subgroup.generated(
        Q, {pi(g) for g in omega_center_derived(G, i).elements})
    R, _ = subgroup_to_pgroup(R_sub, name=f"R_{i}({G.name})")
    return R, R_sub


def abelian_invariants(A: PGroup | Subgroup) -> tuple[int, ...]:
    """Cyclic decomposition exponents of an abelian p-group, descending.

    A subgroup is read in place: its element orders are those of its
    elements in the parent."""
    if not A.is_abelian():
        raise GroupError("abelian_invariants requires an abelian group")
    if A.order == 1:
        return ()
    if isinstance(A, Subgroup):
        p = A.parent.p
        orders = _element_orders(A.parent)[list(A.elements)]
    else:
        p, orders = A.p, _element_orders(A)
    s = int(orders.max())
    smax = round(math.log(s, p))
    # m_k = log_p #|{g : g^{p^k} = 1}| = sum_i min(e_i, k)
    m = [0]
    for k in range(1, smax + 1):
        cnt = int((orders <= p ** k).sum())
        m.append(round(math.log(cnt, p)))
    ge = [m[k] - m[k - 1] for k in range(1, smax + 1)]  # #invariants >= p^k
    invs: list[int] = []
    for k in range(1, smax + 1):
        eq_k = ge[k - 1] - (ge[k] if k < smax else 0)
        invs.extend([p ** k] * eq_k)
    invs.sort(reverse=True)
    assert math.prod(invs) == A.order
    return tuple(invs)


def _index_p_extensions(G: PGroup, admissible) -> tuple[Subgroup, ...]:
    """The subgroups reached from 1 by index-p extension, sorted by
    (order, elements).

    Layer m holds subgroups of order p^m.  Each K in layer m + 1 is H<g>
    for some H in layer m and some g outside H with g^p in H for which
    admissible(H, mask of H) is true; K is then the union of the cosets
    H g^k, k < p.  All of K outside H gives the same K, since the index is
    prime, so those elements are skipped once K is built.
    """
    T = G.table
    pow_p = _powers(G, G.p)
    layer = [np.zeros(1, dtype=np.int64)]
    found = list(layer)
    while layer:
        nxt: dict[bytes, np.ndarray] = {}
        for H in layer:
            inside = _mask(G.order, H)
            todo = admissible(H, inside) & inside[pow_p] & ~inside
            for g in np.flatnonzero(todo):
                if not todo[g]:
                    continue
                cosets = [H]
                for _ in range(G.p - 1):
                    cosets.append(T[cosets[-1], g])
                K = np.sort(np.concatenate(cosets))
                todo[K] = False
                nxt.setdefault(K.tobytes(), K)
        layer = list(nxt.values())
        found.extend(layer)
    subs = [Subgroup(G, tuple(K.tolist())) for K in found]
    subs.sort(key=lambda S: (S.order, S.elements))
    return tuple(subs)


@lru_cache(maxsize=None)
def all_subgroups(G: PGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, sorted by (order, elements): the extensions of
    each H by the g that normalize it.

    No library path reads the whole lattice; it stays as the reference for
    normal_subgroups.  The lru_cache keeps every group it has seen alive,
    and stays only because perfbench/tracer.py reads its cache_info().
    """
    T, inv = G.table, G._inv

    def normalizes(H, inside):
        return inside[T[T[:, H], inv[:, None]]].all(axis=1)

    return _index_p_extensions(G, normalizes)


@memoized
def normal_subgroups(G: PGroup) -> tuple[Subgroup, ...]:
    """Every normal subgroup of G, sorted by (order, elements) as in
    all_subgroups; memoized on G.

    Built by central extension (see the module docstring): N = H<g> with
    H normal and gH central in G/H, that is [g, x] in H for every x.
    """
    T, inv = G.table, G._inv
    comm = T[T[inv[:, None], inv[None, :]], T]  # [g, x] = g^-1 x^-1 g x

    def central(H, inside):
        return inside[comm].all(axis=1)

    return _index_p_extensions(G, central)


def _check_oracle_cap(G: PGroup, cap: int) -> None:
    if G.order > cap:
        raise OracleCapExceeded(f"order {G.order} exceeds oracle cap {cap}")


def _direct_pairs(F: Subgroup):
    """Every unordered (H, K) with F = H x K, both nontrivial, H first in
    lattice order, for F = G or a direct factor of G = F x L.

    L centralizes F, so the normal subgroups of F are those of G inside F,
    and they are read from G's normal lattice.  Two normal subgroups that
    meet trivially commute elementwise, so |H||K| = |F| and H & K = 1 give
    F = H x K.
    """
    G = F.parent
    in_F = _mask(G.order, F.elements)
    normals = [S for S in normal_subgroups(G)
               if 1 < S.order < F.order and in_F[list(S.elements)].all()]
    masks = np.array([_mask(G.order, S.elements)
                      for S in normals]).reshape(-1, G.order)
    orders = np.array([S.order for S in normals], dtype=np.int64)
    for a, H in enumerate(normals):
        # complements: K at or after H in the list, |H||K| = |F|, H & K = 1
        ks = a + np.flatnonzero(orders[a:] * H.order == F.order)
        meets = (masks[ks] & masks[a]).sum(axis=1)
        yield from ((H, normals[b]) for b in ks[meets == 1])


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
    return bool(np.array_equal(G.table[np.ix_(h, k)], G.table[np.ix_(k, h)].T))


def _abelian_basis(A: PGroup) -> list[tuple[int, int]]:
    """Generators of independent cyclic factors of an abelian group,
    as (element, order) pairs with descending orders.

    Peels a cyclic factor <g> of maximal order off K (first A itself),
    with g the least such element of K, and goes on in the first subgroup
    of A inside K, in lattice order, of order |K|/|g| that meets <g>
    trivially.  A is abelian, so its lattice is its normal lattice.
    """
    orders = _element_orders(A)
    lattice = normal_subgroups(A)
    basis: list[tuple[int, int]] = []
    K = full_subgroup(A)
    while K.order > 1:
        elems = np.array(K.elements, dtype=np.int64)
        g = int(elems[orders[elems].argmax()])
        m = int(orders[g])
        basis.append((g, m))
        if m == K.order:
            break
        in_K = _mask(A.order, K.elements)
        cyc = _mask(A.order, Subgroup.generated(A, (g,)).elements)
        size = K.order // m
        K = next((S for S in lattice
                  if S.order == size and in_K[list(S.elements)].all()
                  and cyc[list(S.elements)].sum() == 1), None)
        if K is None:
            raise GroupError("no complement found for a maximal cyclic factor")
    return basis


def retraction_complement(G: PGroup, h: int) -> Subgroup:
    """Kernel of a homomorphism chi: G -> <h> with chi(h) = h.

    Solved on the abelianization; raises RetractionError when no such chi
    exists (h then admits no complement through this route).
    """
    T = G.table
    if not np.array_equal(T[h], T[:, h]):
        raise GroupError("h must be central")
    m = G.element_order(h)
    if m == 1:
        return full_subgroup(G)
    derived = characteristic_subgroup(G, "derived")
    A, pi = quotient_group(G, derived)
    basis = _abelian_basis(A)
    # coordinates of every element of A in the chosen basis
    coords: dict[int, tuple] = {}
    for tup in itertools.product(*(range(o) for _, o in basis)):
        x = 0
        for (g, _), c in zip(basis, tup):
            x = A.mul(x, A.power(g, c))
        coords.setdefault(x, tup)
    hb = pi(h)
    c = coords[hb]
    allowed = [range(0, m, m // math.gcd(o, m)) for _, o in basis]
    for xs in itertools.product(*allowed):
        if sum(cj * xj for cj, xj in zip(c, xs)) % m == 1:
            chi = [sum(cj * xj for cj, xj in zip(coords[pi(g)], xs)) % m
                   for g in range(G.order)]
            K = Subgroup(G, tuple(g for g in range(G.order) if chi[g] == 0))
            H = Subgroup.generated(G, (h,))
            if not is_internal_direct_product(G, H, K):
                raise GroupError("retraction kernel failed direct product check")
            return K
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


def has_cyclic_factor_of_order(G: PGroup, q: int, cap: int = ORACLE_CAP) -> bool:
    """Oracle answer: does G have a cyclic direct factor of order exactly q?"""
    if G.order == 1:
        return q == 1
    return q in cyclic_factor_orders(G, cap=cap)


# ---------------------------------------------------------------------------
# catalog constructors


def _cyclic_table(n: int) -> np.ndarray:
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n


def _metacyclic(p: int, m: int, t: int, e: int, name: str) -> PGroup:
    """<r, s | r^m = 1, s^2 = r^e, s r s^-1 = r^t>, index of r^i s^j is i + m*j."""
    n = 2 * m
    table = np.zeros((n, n), dtype=np.int64)
    for i1 in range(m):
        for j1 in range(2):
            for i2 in range(m):
                for j2 in range(2):
                    if j1 == 0:
                        i, j = (i1 + i2) % m, j2
                    else:
                        i = (i1 + t * i2 + (e if j2 else 0)) % m
                        j = (j1 + j2) % 2
                    table[i1 + m * j1, i2 + m * j2] = i + m * j
    return PGroup(p, table, name)


def catalog_build(family: str, *params) -> PGroup:
    """Built-in group constructors for the test corpus."""
    if family == "cyclic":
        p, n = params
        if p not in SUPPORTED_PRIMES:
            raise GroupError(f"unsupported prime {p}")
        order = p ** n
        if order > MAX_ORDER:
            raise GroupError("order exceeds cap")
        return PGroup(p, _cyclic_table(order), name=f"C{order}")
    if family == "abelian":
        p, exps = params
        gs = [catalog_build("cyclic", p, e) for e in exps]
        G = gs[0]
        for H in gs[1:]:
            G = catalog_build("direct_product", G, H)
        return PGroup(G.p, G.table,
                      name="x".join(f"C{p ** e}" for e in exps))
    if family == "dihedral":
        (order,) = params
        if order < 8 or order & (order - 1):
            raise GroupError("dihedral: order must be a 2-power >= 8")
        return _metacyclic(2, order // 2, order // 2 - 1, 0, f"D{order}")
    if family == "quaternion":
        (order,) = params
        if order < 8 or order & (order - 1):
            raise GroupError("quaternion: order must be a 2-power >= 8")
        m = order // 2
        return _metacyclic(2, m, m - 1, m // 2, f"Q{order}")
    if family == "semidihedral":
        (order,) = params
        if order < 16 or order & (order - 1):
            raise GroupError("semidihedral: order must be a 2-power >= 16")
        m = order // 2
        return _metacyclic(2, m, m // 2 - 1, 0, f"SD{order}")
    if family == "modular_maximal_cyclic":
        p, order = params
        pp = _prime_power(order)
        if pp is None or pp[0] != p or pp[1] < 3 or (p == 2 and order < 16):
            raise GroupError("modular_maximal_cyclic: invalid parameters")
        m = order // p
        if p == 2:
            return _metacyclic(2, m, m // 2 + 1, 0, f"M{order}")
        return _modular_odd(p, order)
    if family == "heisenberg":
        (p,) = params
        return _heisenberg(p)
    if family == "extraspecial":
        p, sign = params
        if sign == "+":
            return _heisenberg(p)
        if sign == "-":
            if p == 2:
                return catalog_build("quaternion", 8)
            return _modular_odd(p, p ** 3)
        raise GroupError("extraspecial: sign must be '+' or '-'")
    if family == "direct_product":
        G1, G2 = params
        if G1.p != G2.p:
            raise GroupError("direct_product: mismatched primes")
        n1, n2 = G1.order, G2.order
        if n1 * n2 > MAX_ORDER:
            raise GroupError("order exceeds cap")
        T = (G1.table[:, None, :, None] * n2 + G2.table[None, :, None, :])
        table = T.reshape(n1 * n2, n1 * n2)
        return PGroup(G1.p, table, name=f"{G1.name}x{G2.name}")
    raise GroupError(f"unknown catalog family {family!r}")


def _heisenberg(p: int) -> PGroup:
    n = p ** 3
    table = np.zeros((n, n), dtype=np.int64)
    for a1, b1, c1 in itertools.product(range(p), repeat=3):
        for a2, b2, c2 in itertools.product(range(p), repeat=3):
            a, b = (a1 + a2) % p, (b1 + b2) % p
            c = (c1 + c2 + a1 * b2) % p
            table[a1 * p * p + b1 * p + c1, a2 * p * p + b2 * p + c2] = \
                a * p * p + b * p + c
    return PGroup(p, table, name=f"He{p}")


def _modular_odd(p: int, order: int) -> PGroup:
    """M_{p^k} for odd p: <r, s | r^{p^{k-1}}, s^p, s r s^-1 = r^{1+p^{k-2}}>."""
    m = order // p
    t = m // p + 1
    table = np.zeros((order, order), dtype=np.int64)
    for i1 in range(m):
        for j1 in range(p):
            for i2 in range(m):
                for j2 in range(p):
                    # s^j r^i = r^{i t^j} s^j
                    i = (i1 + i2 * pow(t, j1, m)) % m
                    j = (j1 + j2) % p
                    table[i1 + m * j1, i2 + m * j2] = i + m * j
    return PGroup(p, table, name=f"M{order}")
