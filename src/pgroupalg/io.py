"""JSON ingestion and report serialization.

Group file schema (format 1):
    {"format": 1, "p": int, "order": int, "table": [[int]], "name": str,
     "factorization": {"B": [[int]], "C": [[int]]}}   # factorization optional

Tables are row-major and 0-based.  The identity need not sit at index 0 in
a file; it is re-indexed to 0 on load, the factorization's columns with it,
and every index a report gives follows the re-indexed table.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import AlgebraContext, AugmentedSubalgebra
from .fplin import FpSubspace
from .groups import (GroupError, PGroup, abelianization_invariants,
                     characteristic_subgroup)


class SchemaError(ValueError):
    pass


def _normalize_identity(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, perm): re-indexed so the two-sided identity sits at index 0,
    and perm[new] = old, which re-indexes the file's rows as rows[:, perm]."""
    n = table.shape[0]
    if table.min() < 0 or table.max() >= n:  # before they index anything
        raise SchemaError("table entries out of range")
    ar = np.arange(n)
    ident = np.flatnonzero((table == ar).all(1) & (table.T == ar).all(1))
    if not ident.size:
        raise SchemaError("table has no two-sided identity")
    if ident[0] == 0:
        return table, ar
    perm = np.concatenate([ident[:1], np.delete(ar, ident[0])])  # new -> old
    return np.argsort(perm)[table[perm[:, None], perm]], perm


def _integer(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def _integer_rows(value, what: str) -> np.ndarray:
    """A list of equal-length lists of integers as an int64 matrix.  Only
    a signed dtype is taken: numpy reads entries all in [2^63, 2^64) as
    uint64, which int64 would wrap, so they are refused with the rest."""
    try:
        rows = np.array(value)
    except ValueError as exc:  # ragged
        raise SchemaError(f"{what} is not a rectangular matrix") from exc
    if rows.ndim != 2 or rows.dtype.kind != "i":
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
    table, perm = _normalize_identity(table)
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
        B_rows, C_rows = B_rows[:, perm], C_rows[:, perm]
        # a well-formed B or C that is no augmented subalgebra fails a
        # named check (a VerificationError), not the schema
        B = AugmentedSubalgebra.from_space(
            ctx, FpSubspace.from_rows(p, order, B_rows))
        C = AugmentedSubalgebra.from_space(
            ctx, FpSubspace.from_rows(p, order, C_rows))
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
    return {
        "name": G.name,
        "p": int(G.p),
        "order": int(G.order),
        "exponent": int(G.exponent()),
        "center_order": int(center.order),
        "abelianization": [int(x) for x in abelianization_invariants(G)],
    }


_ascii = json.encoder.encode_basestring_ascii  # the C encoder when built
_INTS = frozenset({int})


def _scalar(x) -> str:
    """A scalar as json spells it."""
    if isinstance(x, str):
        return _ascii(x)
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(x).__name__} "
                    "is not JSON serializable")


def canonical_json(x, indent: str = "") -> str:
    """The text of json.dumps(x, sort_keys=True, indent=2) for x whose
    dict keys are str, x starting on a line indented by indent, written
    without the stdlib's pure-Python indenting encoder: a list of ints is
    one join, and strings go through its ASCII string encoder.

    Within one call, each list of ints is written once per (object,
    indent) and its text reused wherever x holds that object again: the
    oracle report shares one element list between all pairs that hold a
    factor.  The memo is keyed by id(), which no other object takes while
    x holds the list, and it is read before the list is scanned.  A list
    that holds containers keeps no text, since that text would copy its
    share of the output.  Types dispatch on ``type(x) is``, and every
    level joins one list comprehension and adds its brackets with ``+``:
    one ``str.join`` of brackets and body raised the peak RSS of
    ``oracle --p 2`` from 54 to 58 MB."""
    ints = {}  # (id(list), indent) -> its text, for lists of ints only
    alive = []  # copies of list and dict subclasses, so no id is reused

    def enc(x, indent):
        t = type(x)
        if t is dict:
            if not x:
                return "{}"
            inner = indent + "  "
            return f"{{\n{inner}" + f",\n{inner}".join(
                [_ascii(k) + ": " + enc(v, inner)
                 for k, v in sorted(x.items())]) + f"\n{indent}}}"
        if t is list or t is tuple:
            key = (id(x), indent)
            text = ints.get(key)
            if text is not None:
                return text
            if not x:
                return "[]"
            inner = indent + "  "
            if set(map(type, x)) == _INTS:
                text = ints[key] = f"[\n{inner}" + f",\n{inner}".join(
                    map(int.__repr__, x)) + f"\n{indent}]"
                return text
            return f"[\n{inner}" + f",\n{inner}".join(
                [enc(v, inner) for v in x]) + f"\n{indent}]"
        if t is str:
            return _ascii(x)
        if t is int:
            return int.__repr__(x)
        if isinstance(x, (list, tuple)):  # a subclass, written as a list
            alive.append(list(x))
            return enc(alive[-1], indent)
        if isinstance(x, dict):
            alive.append(dict(x))
            return enc(alive[-1], indent)
        return _scalar(x)

    return enc(x, indent)


def dump_report(body: dict, timing: dict) -> str:
    """Canonical report: deterministic body, timing segregated."""
    envelope = {"body": body, "timing": timing}
    return canonical_json(envelope) + "\n"
