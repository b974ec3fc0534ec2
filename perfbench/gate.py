"""Per-item correctness gate.

Checks a report with plain Python and numpy, not with ``pgroupalg``, so a
library defect cannot vouch for itself.  ``check`` returns None for a
passing item and the name of the first failed check otherwise; failures
are counted by the caller, never raised.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# report body key holding the per-group entries of each command
BODY_KEY = {"recover": "recover", "lemmas": "lemmas",
            "cyclic-factor": "cyclic_factor", "certify": "certify",
            "oracle": "oracle"}


def body_digest(body: dict) -> str:
    """sha256 of the canonical body bytes (sorted keys, no indent)."""
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def is_internal_direct_product(table: np.ndarray, H, K) -> bool:
    """G = H x K for element lists H, K of the Cayley table."""
    n = table.shape[0]
    Hs, Ks = set(H), set(K)
    if len(Hs) * len(Ks) != n or Hs & Ks != {0}:
        return False
    inv = (table == 0).argmax(axis=1)
    g = np.arange(n)[:, None]
    for S, Ss in ((H, Hs), (K, Ks)):
        S = np.asarray(S)
        closed = table[np.ix_(S, S)]
        conj = table[table[g, S[None, :]], inv[g]]  # g s g^-1
        if not (set(closed.ravel().tolist()) <= Ss
                and set(conj.ravel().tolist()) <= Ss):
            return False
    Ha, Ka = np.asarray(H), np.asarray(K)
    return bool(np.array_equal(table[np.ix_(Ha, Ka)], table[np.ix_(Ka, Ha)].T))


def check(item: dict, code, body: dict | None, table: np.ndarray | None,
          references: dict) -> str | None:
    if code != 0:
        return f"exit-code-{code}"
    if body is None:
        return "no-report"
    entries = body.get(BODY_KEY[item["command"]], [])
    if len(entries) != 1:
        return f"groups-in-body-{len(entries)}"
    entry = entries[0]
    if item["command"] == "recover":
        rec = entry.get("recovered")
        if not entry.get("pass") or rec is None:
            return "recover-failed"
        if rec["b_invariants"] != item["expect"]["b_invariants"]:
            return "b-invariants"
        if len(rec["c_side"]) != item["expect"]["c_order"]:
            return "c-side-order"
        if not is_internal_direct_product(table, rec["b_side"], rec["c_side"]):
            return "not-a-direct-product"
    elif item["command"] == "lemmas":
        if not all(r["equal"] for r in entry["reports"]):
            return "lemma-unequal"
    elif item["command"] == "cyclic-factor":
        if not all(r["agree"] for r in entry["tests"]):
            return "criterion-disagrees"
    if item["fixed"] and body_digest(body) != references.get(item["id"]):
        return "reference-digest"
    return None
