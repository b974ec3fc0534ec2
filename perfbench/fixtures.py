"""Seeded inputs for the benchmark workloads.

Every item is one ``pgroupalg`` CLI invocation on a JSON group file that
this module writes.  The seed draws, for each ``recover`` item, the twist
that keeps B from being spanned by group elements; catalog items do not
depend on it.  Items run in a fixed order, so that the state one item
leaves in the process is the same in every pass.

Run as a script to write one workload's fixtures and item manifest:

    python3 perfbench/fixtures.py --workload recover --seed 0 --out DIR

The manifest (``DIR/manifest.json``) lists each item's argv, relative to
``DIR``, with what the correctness gate needs to check it.  The speed
kernel's samples taken while writing go to ``DIR/calibration.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibrate import Sampler  # noqa: E402
from pgroupalg.algebra import AlgebraContext, frattini_quotient  # noqa: E402
from pgroupalg.catalog import builtin_catalog, catalog_by_name  # noqa: E402
from pgroupalg.fplin import FpSubspace, nullspace  # noqa: E402
from pgroupalg.groups import abelian_invariants, catalog_build  # noqa: E402
from pgroupalg.io import group_to_dict  # noqa: E402

WORKLOADS = ("recover", "identities", "lattice", "odd-p")

RECOVER_A = ("C2", "C4", "C2xC2", "C8", "C2xC4")
RECOVER_G0 = ("C2", "C4", "D8", "Q8", "C2xC2")
# Items are sized so that a pass takes 4-8 reference seconds and a run of
# 25 s holds one to three passes (see BENCHMARK.md).  The four order-64
# recover pairs take 14 s.  The p=2 catalog groups of exponent 16 or 32
# take 9 s of lemma checks, whose number grows with (log_p exp G)^2; the
# abelian ones of order 32, whose derived ideal is 0, take 3 s more, and
# their subgroup lattices (374 subgroups for C2^5) 5 s of lattice items.
RECOVER_MAX_ORDER = 32
CATALOG_MAX_EXPONENT = 8
CATALOG_MAX_ABELIAN_ORDER = 16
# B is the coordinate subalgebra here: 1 + I(C4xC4) has 32,767 units to
# order, so this item alone makes the group-basis search heavy.
UNIT_HEAVY = ("C4xC4", "C2")
ODD_P_RECOVER = (("C3", "He3"), ("C3xC3", "C3"), ("C5", "C5"))
ODD_P_EXTRA = ("C5xC5", "C25")
LATTICE_COMMANDS = ("cyclic-factor", "certify", "oracle")

# Where a twist exists, at least half of the central c with c^p = 0 give
# one in every G0 used here, so this many misses means none exists.
TWIST_DRAWS = 256
SAMPLE_EVERY_S = 0.1


def draw_central_twist(G0, rng) -> np.ndarray | None:
    """w = 1 + c with c in Z(I(F_pG0)), c^p = 0 and w not a group element,
    or None when no such w turns up in TWIST_DRAWS draws (G0 = C2)."""
    ctx = AlgebraContext(G0)
    p = ctx.p
    Z = ctx.central_ideal_part()
    frob = np.array([ctx.p_power(z, 1) for z in Z.basis])
    kernel = (nullspace(frob.T, p) @ Z.basis) % p  # z^p is linear on Z
    for _ in range(TWIST_DRAWS):
        c = (rng.integers(0, p, size=kernel.shape[0]) @ kernel) % p
        w = (ctx.one + c) % p
        if c.any() and not (np.count_nonzero(w) == 1 and w.max() == 1):
            return w
    return None


def frattini_functional(A, rng) -> list[int]:
    """chi(a) for every a in A: a nonzero functional on A/Phi(A), read
    through the section coordinates of e_a - 1 in I(A)/I(A)^2."""
    ctx = AlgebraContext(A)
    fq = frattini_quotient(ctx)
    lam = np.zeros(fq.dim, dtype=np.int64)
    while not lam.any():
        lam = rng.integers(0, A.p, size=fq.dim)
    return [int(lam @ fq.project(ctx.group_minus_one(a)) % A.p)
            for a in range(A.order)]


def factorization_fixture(a_name: str, g0_name: str, rng) -> tuple[dict, dict]:
    """G = A x G0 with C = F_pG0 and B = span{e_a w^chi(a)}.

    B is the coordinate F_pA when rng is None or G0 has no twist.  Returns
    the group file and the drawn (w, chi).
    """
    A, G0 = catalog_by_name(a_name), catalog_by_name(g0_name)
    G = catalog_build("direct_product", A, G0)
    p, n0 = G.p, G0.order
    w = None if rng is None else draw_central_twist(G0, rng)
    if w is None:
        chi = [0] * A.order
        w_powers = [np.eye(n0, dtype=np.int64)[0]]
    else:
        chi = frattini_functional(A, rng)
        ctx0 = AlgebraContext(G0)
        w_powers = [ctx0.power(w, k) for k in range(p)]
    # element (a, g) of A x G0 sits at index a * |G0| + g
    B_rows = np.zeros((A.order, G.order), dtype=np.int64)
    for a in range(A.order):
        B_rows[a, a * n0:(a + 1) * n0] = w_powers[chi[a]]
    C_rows = np.eye(G.order, dtype=np.int64)[:n0]
    data = group_to_dict(G, FpSubspace(p, G.order, B_rows),
                         FpSubspace(p, G.order, C_rows))
    twist = {"w": None if w is None else [int(x) for x in w], "chi": chi}
    return data, twist


def recover_item(a_name: str, g0_name: str, rng) -> tuple[dict, dict]:
    data, twist = factorization_fixture(a_name, g0_name, rng)
    A, G0 = catalog_by_name(a_name), catalog_by_name(g0_name)
    item = {"id": f"recover/{a_name}-{g0_name}", "command": "recover",
            "fixed": twist["w"] is None, "twist": twist,
            "expect": {"b_invariants": list(abelian_invariants(A)),
                       "c_order": G0.order}}
    return item, data


def catalog_item(command: str, G) -> tuple[dict, dict]:
    return ({"id": f"{command}/{G.name}", "command": command, "fixed": True},
            group_to_dict(G))


def workload_items(workload: str, seed: int) -> list[tuple[dict, dict]]:
    """(item, group file) pairs of one workload, in pass order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cat2 = [G for G in builtin_catalog(p=2, max_order=32)
            if G.exponent() <= CATALOG_MAX_EXPONENT
            and (G.order <= CATALOG_MAX_ABELIAN_ORDER or not G.is_abelian())]
    if workload == "recover":
        pairs = [recover_item(a, g0, rng) for a in RECOVER_A
                 for g0 in RECOVER_G0
                 if catalog_by_name(a).order * catalog_by_name(g0).order
                 <= RECOVER_MAX_ORDER]
        pairs.append(recover_item(*UNIT_HEAVY, None))
    elif workload == "identities":
        pairs = [catalog_item("lemmas", G) for G in cat2]
    elif workload == "lattice":
        pairs = [catalog_item(cmd, G) for G in cat2
                 for cmd in LATTICE_COMMANDS]
    elif workload == "odd-p":
        groups = builtin_catalog(p=3, max_order=27) + \
            [catalog_by_name(name) for name in ODD_P_EXTRA]
        pairs = [catalog_item("lemmas", G) for G in groups]
        pairs += [recover_item(a, g0, rng) for a, g0 in ODD_P_RECOVER]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return pairs


def write_workload(workload: str, seed: int, out: Path) -> None:
    """Write the group files and manifest.json of one workload under out."""
    (out / "fixtures").mkdir(parents=True, exist_ok=True)
    (out / "reports").mkdir(exist_ok=True)
    items = []
    for k, (item, data) in enumerate(workload_items(workload, seed)):
        path = f"fixtures/{item['id'].replace('/', '_')}.json"
        with open(out / path, "w") as fh:
            json.dump(data, fh)
        item["fixture"] = path
        item["report"] = f"reports/{k:03d}.json"
        item["argv"] = [item["command"], "--input", path,
                        "--out", item["report"]]
        items.append(item)
    with open(out / "manifest.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "items": items}, fh)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(os.path.abspath(args.out))
    with Sampler(SAMPLE_EVERY_S) as sampler:
        sampler.sample()
        write_workload(args.workload, args.seed, out)
    with open(out / "calibration.json", "w") as fh:
        json.dump({"samples": sampler.samples,
                   "kernel_wall_s": sampler.kernel_wall_s}, fh)


if __name__ == "__main__":
    main()
