"""The built-in test corpus of p-groups (orders up to 32 by default)."""

from __future__ import annotations

import re

from .groups import GroupError, PGroup, catalog_build


class CatalogNameError(GroupError):
    """A catalog name that does not resolve to a supported group."""


def _abelian_partitions(p: int, max_order: int):
    """All descending exponent tuples with p^sum <= max_order."""
    out = []
    k = 1
    while p ** k <= max_order:
        for part in _partitions(k):
            out.append(tuple(part))
        k += 1
    return out


def _partitions(n: int, cap: int | None = None):
    if n == 0:
        yield []
        return
    cap = cap or n
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def builtin_catalog(p: int | None = None, max_order: int = 32) -> list[PGroup]:
    """Deterministically ordered list of the built-in groups."""
    groups: list[PGroup] = []
    primes = (2, 3) if p is None else (p,)
    for pp in primes:
        for exps in _abelian_partitions(pp, max_order):
            groups.append(catalog_build("abelian", pp, list(exps)))
    if 2 in primes:
        nonabelian2: list[PGroup] = []
        for order in (8, 16, 32):
            if order > max_order:
                continue
            nonabelian2.append(catalog_build("dihedral", order))
            nonabelian2.append(catalog_build("quaternion", order))
            if order >= 16:
                nonabelian2.append(catalog_build("semidihedral", order))
                nonabelian2.append(catalog_build("modular_maximal_cyclic", 2, order))
        base8 = [catalog_build("dihedral", 8), catalog_build("quaternion", 8)]
        base16 = []
        if max_order >= 32:
            base16 = [catalog_build("dihedral", 16), catalog_build("quaternion", 16),
                      catalog_build("semidihedral", 16),
                      catalog_build("modular_maximal_cyclic", 2, 16)]
        for H in base8:
            if 2 * H.order <= max_order:
                nonabelian2.append(
                    catalog_build("direct_product", catalog_build("cyclic", 2, 1), H))
            if 4 * H.order <= max_order:
                nonabelian2.append(
                    catalog_build("direct_product", catalog_build("cyclic", 2, 2), H))
                nonabelian2.append(
                    catalog_build("direct_product",
                                  catalog_build("abelian", 2, [1, 1]), H))
        for H in base16:
            if 2 * H.order <= max_order:
                nonabelian2.append(
                    catalog_build("direct_product", catalog_build("cyclic", 2, 1), H))
        groups.extend(nonabelian2)
    if 3 in primes and max_order >= 27:
        groups.append(catalog_build("heisenberg", 3))
        groups.append(catalog_build("extraspecial", 3, "-"))
    groups.sort(key=lambda G: (G.p, G.order, G.name))
    return groups


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
        return PGroup(G.p, G.table, name=name)
    m = re.fullmatch(r"C(\d+)", name)
    if m:
        n = int(m.group(1))
        for p in (2, 3, 5):
            k, t = 0, n
            while t % p == 0:
                t //= p
                k += 1
            if t == 1 and k:
                return catalog_build("cyclic", p, k)
        raise CatalogNameError(f"{name}: order is not a supported prime power")
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        return catalog_build("dihedral", int(m.group(1)))
    m = re.fullmatch(r"Q(\d+)", name)
    if m:
        return catalog_build("quaternion", int(m.group(1)))
    m = re.fullmatch(r"SD(\d+)", name)
    if m:
        return catalog_build("semidihedral", int(m.group(1)))
    m = re.fullmatch(r"M(\d+)", name)
    if m:
        order = int(m.group(1))
        p = 2 if order % 2 == 0 else 3
        return catalog_build("modular_maximal_cyclic", p, order)
    m = re.fullmatch(r"He(\d+)", name)
    if m:
        return catalog_build("heisenberg", int(m.group(1)))
    raise CatalogNameError(f"unknown catalog group {name!r}")
