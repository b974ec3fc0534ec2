"""Acceptance gate.

Each test covers one release criterion and prints a single pass/fail line.
All arithmetic is over finite fields, so every comparison is exact; there
are no tolerances anywhere in this suite.
"""

import json
import math

import numpy as np
import pytest

from pgroupalg.algebra import (AlgebraContext, frattini_quotient,
                               group_algebra_subalgebra)
from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.cli import EXIT_OK, run
from pgroupalg.decompose import certify_indecomposable, recover_decomposition
from pgroupalg.groups import (abelian_invariants, catalog_build,
                              characteristic_subgroup, direct_factor_oracle,
                              is_internal_direct_product, r_subquotient,
                              subgroup_to_pgroup)
from pgroupalg.lemmas import (cyclic_factor_test, lemma_identity_check,
                              verify_tensor_factorization)

from oracles import (babelian_checks, dimension_subgroup,
                     has_cyclic_factor_of_order)

A_NAMES = ["C2", "C4", "C2xC2", "C8", "C2xC4", "C3", "C9"]
G0_NAMES = ["C2", "C4", "D8", "Q8", "C2xC2", "He3"]


def smax_of(G):
    return max(1, round(math.log(G.exponent(), G.p)))


def report(criterion, label, ok):
    line = f"ACCEPTANCE {criterion} ({label}): {'PASS' if ok else 'FAIL'}"
    print(line, flush=True)
    assert ok, line


def recovery_pairs():
    pairs = []
    for a_name in A_NAMES:
        for g0_name in G0_NAMES:
            A = catalog_by_name(a_name)
            G0 = catalog_by_name(g0_name)
            if A.p == G0.p and A.order * G0.order <= 64:
                pairs.append((a_name, g0_name))
    return pairs


@pytest.fixture(scope="module")
def recoveries():
    """Round-trip recoveries shared by criteria 5, 6 and 8."""
    out = {}
    for a_name, g0_name in recovery_pairs():
        A = catalog_by_name(a_name)
        G0 = catalog_by_name(g0_name)
        G = catalog_build("direct_product", A, G0)
        ctx = AlgebraContext(G)
        B = group_algebra_subalgebra(
            ctx, [a * G0.order for a in range(A.order)])
        C = group_algebra_subalgebra(ctx, list(range(G0.order)))
        fact = verify_tensor_factorization(ctx, B, C)
        error = None
        rep = None
        try:
            rep = recover_decomposition(fact)
        except Exception as exc:  # criterion 8 wants zero hard failures
            error = exc
        out[(a_name, g0_name)] = (A, G0, fact, rep, error)
    return out


def test_criterion_1_lemma_identity_suite():
    ok = True
    for G in builtin_catalog(max_order=32):
        smax = smax_of(G)
        for i in range(1, smax + 1):
            for item in (1, 2):
                ok = ok and lemma_identity_check(G, item, i).equal
            for j in range(1, smax + 1):
                ok = ok and lemma_identity_check(G, 3, i, j).equal
    report(1, "lemma identity suite, catalog <= 32", ok)


@pytest.fixture(scope="module")
def cyclic_factor_results():
    rows = []
    for G in builtin_catalog(max_order=32):
        for i in range(1, smax_of(G) + 1):
            has, exponent = cyclic_factor_test(G, i)
            oracle = has_cyclic_factor_of_order(G, G.p ** i)
            rows.append((G, i, has, exponent, oracle))
    return rows


def test_criterion_2_cyclic_factor_vs_oracle(cyclic_factor_results):
    ok = all(has == oracle
             for _, _, has, _, oracle in cyclic_factor_results)
    report(2, "cyclic-factor criterion vs direct-factor oracle", ok)


def test_criterion_3_exponent_identity(cyclic_factor_results):
    ok = True
    for G, i, _, exponent, _ in cyclic_factor_results:
        invs = abelian_invariants(r_subquotient(G, i))
        expected = invs[0] if invs else 1
        ok = ok and exponent == expected
    report(3, "criterion exponent equals exp(R_i(G))", ok)


def test_criterion_4_frattini_correspondence():
    ok = True
    for G in builtin_catalog(max_order=64):
        ctx = AlgebraContext(G)
        Q = frattini_quotient(ctx)
        phi = {g: tuple(Q.project(ctx.group_minus_one(g)))
               for g in range(G.order)}
        # multiplicativity of g -> (g-1) + I^2 as a map into (I/I^2, +)
        for a in range(G.order):
            for b in range(G.order):
                left = np.array(phi[G.mul(a, b)])
                right = (np.array(phi[a]) + np.array(phi[b])) % G.p
                if not np.array_equal(left, right):
                    ok = False
        frat = characteristic_subgroup(G, "frattini")
        kernel = tuple(sorted(g for g in range(G.order)
                              if not any(phi[g])))
        ok = ok and kernel == frat.elements
        # bijective on G/Phi(G): kernel is exactly Phi and the image has
        # full rank d, so |G/Phi| = p^d matches
        image_rank = len({phi[g] for g in range(G.order)})
        ok = ok and image_rank == G.order // frat.order == G.p ** Q.dim
        ok = ok and dimension_subgroup(ctx, 2) == frat
    report(4, "Frattini correspondence and dimension subgroup", ok)


def test_criterion_5_round_trip_recovery(recoveries):
    ok = len(recoveries) == 25
    for (a_name, g0_name), (A, G0, fact, rep, error) in recoveries.items():
        good = (error is None and rep is not None and rep.verified
                and rep.b_invariants == abelian_invariants(A)
                and rep.c_side.order == G0.order
                and is_internal_direct_product(fact.ctx.group,
                                               rep.b_side, rep.c_side))
        ok = ok and good
    report(5, f"round-trip recovery on {len(recoveries)} pairs", ok)


def test_criterion_6_proposition_suite(recoveries):
    ok = True
    for (A, G0, fact, rep, error) in recoveries.values():
        for part in ("a", "c", "d"):
            ok = ok and babelian_checks(fact, part).equal
    report(6, "proposition checks (a),(c),(d)", ok)


def test_criterion_7_certificates():
    order8 = [G for G in builtin_catalog(p=2, max_order=8) if G.order == 8]
    certified = {G.name for G in order8
                 if certify_indecomposable(G).kind != "none"}
    ok = certified == {"D8", "Q8"}
    abelian8 = [G for G in order8 if G.is_abelian()]
    ok = ok and all(certify_indecomposable(G).kind == "none"
                    for G in abelian8)
    # every directly indecomposable nonabelian catalog group of order <= 32
    # with d(G) <= 3 or cyclic derived subgroup gets a certificate
    for G in builtin_catalog(max_order=32):
        if G.is_abelian():
            continue
        if direct_factor_oracle(G):
            continue
        cert = certify_indecomposable(G)
        derived = characteristic_subgroup(G, "derived")
        Dp, _ = subgroup_to_pgroup(derived)
        cyclic_derived = Dp.order == 1 or Dp.exponent() == Dp.order
        if cert.min_generators <= 3 or cyclic_derived:
            ok = ok and cert.kind != "none"
    report(7, "indecomposability certificates", ok)


def test_criterion_8_jennings_nonmembership(recoveries):
    # recover_decomposition raises on any non-membership failure, so a full
    # set of error-free runs with the expected number of peeling steps means
    # every step-3 assertion held
    ok = True
    for (A, G0, fact, rep, error) in recoveries.values():
        ok = ok and error is None and rep is not None
        ok = ok and len(rep.steps) == len(abelian_invariants(A))
    report(8, "Jennings non-membership in all recovery steps", ok)


def test_criterion_9_determinism(tmp_path):
    bodies = []
    for run_id in (1, 2):
        chunks = []
        for argv in (
            ["lemmas", "--p", "2", "--max-order", "16"],
            ["cyclic-factor", "--p", "2", "--max-order", "16"],
            ["certify", "--p", "2", "--max-order", "16"],
            ["oracle", "--p", "2", "--max-order", "16"],
        ):
            out = tmp_path / f"r{run_id}_{argv[0]}.json"
            code = run(argv + ["--out", str(out)])
            assert code == EXIT_OK
            body = json.loads(out.read_text())["body"]
            chunks.append(json.dumps(body, sort_keys=True).encode())
        bodies.append(b"".join(chunks))
    ok = bodies[0] == bodies[1]
    report(9, "byte-identical report bodies across runs", ok)
