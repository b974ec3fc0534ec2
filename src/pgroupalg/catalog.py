"""The built-in test corpus of p-groups, every group built from its name.

A name is one or more factors joined by ``x``, each one of ``Cn``, cyclic
of order n = p^k; ``Dn``, ``Qn`` and ``SDn``, dihedral, generalized
quaternion and semidihedral of 2-power order n (n >= 8, and n >= 16 for
SD); ``Mn``, modular maximal-cyclic of order n = p^k, k >= 3 (n >= 16 at
p = 2); and ``Hep``, the Heisenberg group of order p^3.  The catalog is
the abelian groups, one per partition, and the nonabelian ones of
_NONABELIAN, each through catalog_by_name.
"""

from __future__ import annotations

import re

from .groups import MAX_ORDER, GroupError, PGroup, _prime_power, catalog_build


class CatalogNameError(GroupError):
    """A catalog name that does not resolve to a supported group."""


# (p, order, name) of the nonabelian groups in the catalog
_NONABELIAN = (
    (2, 8, "D8"), (2, 8, "Q8"),
    (2, 16, "D16"), (2, 16, "Q16"), (2, 16, "SD16"), (2, 16, "M16"),
    (2, 16, "C2xD8"), (2, 16, "C2xQ8"),
    (2, 32, "D32"), (2, 32, "Q32"), (2, 32, "SD32"), (2, 32, "M32"),
    (2, 32, "C4xD8"), (2, 32, "C4xQ8"), (2, 32, "C2xC2xD8"),
    (2, 32, "C2xC2xQ8"), (2, 32, "C2xD16"), (2, 32, "C2xQ16"),
    (2, 32, "C2xSD16"), (2, 32, "C2xM16"),
    (3, 27, "He3"), (3, 27, "M27"),
)
# the families of one parameter: the order, or the prime of He
_FAMILIES = {"D": "dihedral", "Q": "quaternion", "SD": "semidihedral",
             "He": "heisenberg"}


def _partitions(n: int, cap: int | None = None):
    if n == 0:
        yield []
        return
    cap = cap or n
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def builtin_catalog(p: int | None = None, max_order: int = 32) -> list[PGroup]:
    """The built-in groups of prime p (2 and 3 when None) and order at most
    max_order, sorted by (p, order, name).  No group above MAX_ORDER is in
    the catalog."""
    primes = (2, 3) if p is None else (p,)
    cap = min(max_order, MAX_ORDER)
    entries = [(q, q ** k, "x".join(f"C{q ** e}" for e in part))
               for q in primes for k in range(1, cap.bit_length())
               if q ** k <= cap for part in _partitions(k)]
    entries += [e for e in _NONABELIAN if e[0] in primes and e[1] <= cap]
    return [catalog_by_name(name) for _, _, name in sorted(entries)]


def catalog_by_name(name: str) -> PGroup:
    """Resolve names like C8, D16, Q8, SD32, M16, He3, C2xC4, C4xD8.

    Raises CatalogNameError for every name that does not build.
    """
    try:
        return _build_by_name(name)
    except CatalogNameError:
        raise
    except GroupError as exc:
        raise CatalogNameError(f"{name}: {exc}") from exc


def _build_by_name(name: str) -> PGroup:
    if "x" in name:
        parts = name.split("x")
        G = _build_by_name(parts[0])
        for part in parts[1:]:
            G = catalog_build("direct_product", G, _build_by_name(part))
        return PGroup._trusted(G.p, G.table, name)  # checked as built
    m = re.fullmatch(r"(C|D|Q|SD|M|He)(\d+)", name)
    if not m:
        raise CatalogNameError(f"unknown catalog group {name!r}")
    family, n = m.group(1), int(m.group(2))
    if family in _FAMILIES:
        return catalog_build(_FAMILIES[family], n)
    p, k = _prime_power(n) or (None, 0)
    if family == "M":
        return catalog_build("modular_maximal_cyclic", p, n)
    if p is None:
        raise CatalogNameError(f"{name}: order is not a supported prime power")
    return catalog_build("cyclic", p, k)
