"""Structural identities, the cyclic factor criterion and factorization
verification."""

import math

import pytest

from pgroupalg.algebra import AlgebraContext, group_algebra_subalgebra
from pgroupalg.catalog import catalog_by_name
from pgroupalg.groups import catalog_build
from pgroupalg.lemmas import (VerificationError, cyclic_factor_test,
                              lemma_identity_check,
                              verify_tensor_factorization)

from oracles import babelian_checks, has_cyclic_factor_of_order

IDENTITY_GROUPS = ["C2", "C4", "C8", "C2xC2", "C2xC4", "D8", "Q8",
                   "D16", "Q16", "SD16", "M16", "C2xD8",
                   "C3", "C9", "C3xC3", "He3"]


def smax_of(G):
    return max(1, round(math.log(G.exponent(), G.p)))


@pytest.mark.parametrize("name", IDENTITY_GROUPS)
def test_identity_items_hold(name):
    G = catalog_by_name(name)
    smax = smax_of(G)
    for i in range(1, smax + 1):
        for item in (1, 2):
            rep = lemma_identity_check(G, item, i)
            assert rep.equal, (name, item, i, rep.witness)
        for j in range(1, smax + 1):
            rep = lemma_identity_check(G, 3, i, j)
            assert rep.equal, (name, 3, i, j, rep.witness)


def test_identity_report_shape():
    rep = lemma_identity_check(catalog_by_name("D8"), 1, 1)
    d = rep.to_json()
    assert d["equal"] is True
    assert d["left_dim"] == d["right_dim"]
    assert d["witness"] is None
    assert isinstance(d["id"], str)


def test_identity_rejects_bad_item():
    with pytest.raises(ValueError):
        lemma_identity_check(catalog_by_name("C4"), 4, 1)


CYCLIC_FACTOR_GROUPS = ["C2", "C4", "C8", "C2xC2", "C2xC4", "D8", "Q8",
                        "C2xD8", "C4xD8", "M16", "SD16", "C3", "C9",
                        "C3xC9", "He3"]


@pytest.mark.parametrize("name", CYCLIC_FACTOR_GROUPS)
def test_cyclic_factor_criterion_matches_oracle(name):
    G = catalog_by_name(name)
    for i in range(1, smax_of(G) + 1):
        has, exponent = cyclic_factor_test(G, i)
        oracle = has_cyclic_factor_of_order(G, G.p ** i)
        assert has == oracle, (name, i, exponent)


def test_cyclic_factor_exponent_values():
    # C2xC4, i=2: the criterion exponent reaches 4, so a C4 factor exists
    has, exponent = cyclic_factor_test(catalog_by_name("C2xC4"), 2)
    assert has and exponent == 4
    # D8 has no cyclic direct factor at all
    for i in (1, 2):
        has, _ = cyclic_factor_test(catalog_by_name("D8"), i)
        assert not has
    # C4xD8 has a C4 factor but no C2 factor
    has4, _ = cyclic_factor_test(catalog_by_name("C4xD8"), 2)
    has2, _ = cyclic_factor_test(catalog_by_name("C4xD8"), 1)
    assert has4 and not has2


def coordinate_factorization(a_name, g0_name):
    A = catalog_by_name(a_name)
    G0 = catalog_by_name(g0_name)
    G = catalog_build("direct_product", A, G0)
    ctx = AlgebraContext(G)
    B = group_algebra_subalgebra(ctx, [a * G0.order for a in range(A.order)])
    C = group_algebra_subalgebra(ctx, list(range(G0.order)))
    return ctx, B, C


def test_verify_tensor_factorization():
    ctx, B, C = coordinate_factorization("C2", "D8")
    fact = verify_tensor_factorization(ctx, B, C)
    assert fact.B.dim * fact.C.dim == 16
    assert fact.B.is_commutative()


def test_verify_rejects_noncommuting_pair():
    # both factors sitting on the same nonabelian coordinate cannot commute
    # elementwise
    ctx, _, C = coordinate_factorization("C2", "D8")
    with pytest.raises(VerificationError) as exc:
        verify_tensor_factorization(ctx, C, C)
    assert "commuting" in str(exc.value)


def test_babelian_requires_commutative_b():
    # with the roles swapped, B = kD8 is noncommutative and the checks refuse
    ctx, B, C = coordinate_factorization("C2", "D8")
    fact = verify_tensor_factorization(ctx, C, B)
    with pytest.raises(VerificationError):
        babelian_checks(fact, "a")


def test_verify_rejects_dimension_mismatch():
    ctx, B, _ = coordinate_factorization("C2", "D8")
    with pytest.raises(VerificationError):
        verify_tensor_factorization(ctx, B, B)


def test_babelian_checks_pass():
    ctx, B, C = coordinate_factorization("C2xC4", "Q8")
    fact = verify_tensor_factorization(ctx, B, C)
    for part in ("a", "c", "d"):
        rep = babelian_checks(fact, part)
        assert rep.equal, (part, rep.witness)


def test_babelian_rejects_unknown_part():
    ctx, B, C = coordinate_factorization("C2", "C2")
    fact = verify_tensor_factorization(ctx, B, C)
    with pytest.raises(ValueError):
        babelian_checks(fact, "b")
