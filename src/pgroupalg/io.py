"""JSON ingestion and report serialization.

Group file schema (format 1):
    {"format": 1, "p": int, "order": int, "table": [[int]], "name": str,
     "factorization": {"B": [[int]], "C": [[int]]}}   # factorization optional

Tables are row-major and 0-based.  The identity need not sit at index 0 in
a file; it is re-indexed to 0 on load.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AlgebraContext, AugmentedSubalgebra
from .fplin import FpSubspace
from .groups import (GroupError, PGroup, abelian_invariants,
                     characteristic_subgroup, quotient_group)


class SchemaError(ValueError):
    pass


def _normalize_identity(table: np.ndarray) -> np.ndarray:
    """Re-index so the two-sided identity sits at index 0."""
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:  # before they index anything
        raise SchemaError("table entries out of range")
    ar = np.arange(n)
    ident = np.flatnonzero((table == ar).all(1) & (table.T == ar).all(1))
    if not ident.size:
        raise SchemaError("table has no two-sided identity")
    if ident[0] == 0:
        return table
    perm = np.concatenate([ident[:1], np.delete(ar, ident[0])])  # new -> old
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = ar
    return inv[table[np.ix_(perm, perm)]]


def _integer(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def _integer_rows(value, what: str) -> np.ndarray:
    """A list of equal-length lists of integers as an int64 matrix."""
    try:
        rows = np.array(value)
    except ValueError as exc:  # ragged
        raise SchemaError(f"{what} is not a rectangular matrix") from exc
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise SchemaError(f"{what} must be a list of equal-length lists "
                          "of integers")
    return rows.astype(np.int64)


def group_from_dict(data: dict) -> tuple[PGroup, AugmentedSubalgebra | None,
                                         AugmentedSubalgebra | None]:
    if not isinstance(data, dict):
        raise SchemaError("a group file must hold a JSON object")
    for key in ("p", "order", "table"):
        if key not in data:
            raise SchemaError(f"missing field {key!r}")
    p = _integer(data, "p")
    order = _integer(data, "order")
    table = _integer_rows(data["table"], "table")
    if table.shape != (order, order):
        raise SchemaError(
            f"table shape {table.shape} does not match order {order}")
    table = _normalize_identity(table)
    try:
        G = PGroup(p, table, name=str(data.get("name", "")))
    except GroupError as exc:
        raise SchemaError(str(exc)) from exc
    B = C = None
    if "factorization" in data:
        fz = data["factorization"]
        if not isinstance(fz, dict) or not {"B", "C"} <= fz.keys():
            raise SchemaError("factorization needs the fields 'B' and 'C'")
        ctx = AlgebraContext.of(G)
        B_rows = _integer_rows(fz["B"], "factorization B")
        C_rows = _integer_rows(fz["C"], "factorization C")
        if B_rows.shape[1] != order or C_rows.shape[1] != order:
            raise SchemaError(f"factorization rows must have length {order}")
        # a well-formed B or C that is no augmented subalgebra fails a
        # named check (a VerificationError), not the schema
        B = AugmentedSubalgebra.from_space(ctx, FpSubspace(p, order, B_rows))
        C = AugmentedSubalgebra.from_space(ctx, FpSubspace(p, order, C_rows))
    return G, B, C


def load_inputs(path) -> tuple[PGroup, AugmentedSubalgebra | None,
                               AugmentedSubalgebra | None]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    return group_from_dict(data)


def group_to_dict(G: PGroup, B: FpSubspace | None = None,
                  C: FpSubspace | None = None) -> dict:
    out = {
        "format": 1,
        "p": int(G.p),
        "order": int(G.order),
        "table": [[int(x) for x in row] for row in G.table],
        "name": G.name,
    }
    if B is not None and C is not None:
        out["factorization"] = {"B": B.basis_rows(), "C": C.basis_rows()}
    return out


def group_fingerprint(G: PGroup) -> dict:
    center = characteristic_subgroup(G, "center")
    derived = characteristic_subgroup(G, "derived")
    Ab, _ = quotient_group(G, derived)
    return {
        "name": G.name,
        "p": int(G.p),
        "order": int(G.order),
        "exponent": int(G.exponent()),
        "center_order": int(center.order),
        "abelianization": [int(x) for x in abelian_invariants(Ab)],
    }


def dump_report(body: dict, timing: dict) -> str:
    """Canonical report: deterministic body, timing segregated."""
    envelope = {"body": body, "timing": timing}
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
