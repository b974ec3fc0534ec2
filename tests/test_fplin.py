"""Linear algebra over F_p: RREF canonical forms, subspaces, quotients."""

import numpy as np
import pytest

from pgroupalg.algebra import (AlgebraContext, AlgebraError, frattini_quotient,
                               power_space)
from pgroupalg.catalog import builtin_catalog, catalog_by_name
from pgroupalg.fplin import FpError, FpSubspace, nullspace, rref, solve
from pgroupalg.groups import PGroup

from oracles import (coordinates, greedy_section, intersect,
                     quotient_coordinates, span)


def test_rref_canonical_form():
    rows = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    R, pivots = rref(rows, 2)
    # third row is the sum of the first two mod 2, so rank 2
    assert pivots == (0, 1)
    assert R.tolist() == [[1, 0, 1], [0, 1, 1]]


def test_rref_pivot_normalization_p3():
    rows = np.array([[2, 1, 0], [0, 0, 2]], dtype=np.int64)
    R, pivots = rref(rows, 3)
    # pivots scaled to 1 and cleared above/below
    assert pivots == (0, 2)
    assert R[0, 0] == 1 and R[1, 2] == 1
    assert R[0, 2] == 0


def test_nullspace_and_solve():
    A = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64)
    N = nullspace(A, 2)
    assert N.shape[0] == 1
    assert np.all(A @ N[0] % 2 == 0)
    b = np.array([1, 1], dtype=np.int64)
    x = solve(A, b, 2)
    assert x is not None
    assert np.array_equal(A @ x % 2, b)
    # inconsistent system over F_2
    A2 = np.array([[1, 0, 0], [1, 0, 0]], dtype=np.int64)
    assert solve(A2, np.array([1, 0]), 2) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_batch_matches_rowwise(p):
    # one right-hand side per row of a 2-d b, solved in one elimination
    rng = np.random.default_rng(20261018 + p)
    for _ in range(20):
        A = rng.integers(0, p, size=(6, 4)) @ \
            rng.integers(0, p, size=(4, 5)) % p  # rank at most 4
        rhs = rng.integers(0, p, size=(7, 5)) @ A.T % p  # consistent rows
        Y = solve(A, rhs, p)
        assert Y.shape == (7, 5)
        assert all(np.array_equal(y, solve(A, b, p)) for y, b in zip(Y, rhs))
        assert np.array_equal(Y @ A.T % p, rhs)
        assert solve(A, rhs[:0], p).shape == (0, 5)
        bad = rng.integers(0, p, size=6)
        if solve(A, bad, p) is None:
            assert solve(A, np.vstack([rhs[:3], bad, rhs[3:]]), p) is None


def test_subspace_equality_is_basis_independent():
    U = span(2, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    V = span(2, 4, [[1, 1, 1, 1], [0, 0, 1, 1]])
    assert U == V
    assert hash(U) == hash(V)


def test_sum_and_intersection():
    U = span(3, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    V = span(3, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    S = U + V
    I = intersect(U, V)
    assert S.dim == 3
    assert I.dim == 1
    assert I.contains_vector([0, 1, 0, 0])
    # modular law sanity: U cap (U + V) == U
    assert intersect(U, S) == U


@pytest.mark.parametrize("p", [2, 3])
def test_dim_sum_identity_random(p):
    # dim(U+V) + dim(U cap V) == dim U + dim V on random subspaces of F_p^12
    rng = np.random.default_rng(20260823 + p)
    for _ in range(24):
        U = span(p, 12, rng.integers(0, p, size=(4, 12)))
        V = span(p, 12, rng.integers(0, p, size=(5, 12)))
        assert (U + V).dim + intersect(U, V).dim == U.dim + V.dim


def test_contains_and_coordinates():
    U = span(2, 3, [[1, 1, 0], [0, 1, 1]])
    assert U.contains_vector([1, 0, 1])
    assert not U.contains_vector([1, 0, 0])
    c = coordinates(U, [1, 0, 1])
    recon = (c @ U.basis) % 2
    assert recon.tolist() == [1, 0, 1]
    assert coordinates(U, [1, 0, 0]) is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_free_column_membership_matches_reduce(p):
    # contains_vector reads membership off the free columns alone; on
    # seeded rows inside, outside and across the space, in batches and
    # one row at a time, also unreduced or negative, it says what
    # reduce(rows).any() says, also for the zero subspace and the whole
    # space, and contains says it of a basis
    rng = np.random.default_rng(20261021 + p)
    n = 12
    spaces = [FpSubspace(p, n), span(p, n, np.eye(n, dtype=np.int64))]
    spaces += [span(p, n, rng.integers(0, p, size=(k, n)))
               for k in (1, 3, 6, 9, 11) for _ in range(4)]
    for V in spaces:
        inside = rng.integers(0, p, size=(5, V.dim)) @ V.basis % p
        outside = rng.integers(0, p, size=(5, n))
        shift = p * rng.integers(-3, 4, size=(5, n))
        batches = [inside, outside, np.concatenate([inside, outside[:1]]),
                   inside[:1], outside[:1], inside[:0], inside + shift,
                   outside + shift, inside - p]
        for T in batches:
            assert V.contains_vector(T) == (not V.reduce(T).any()), V
        for row in np.concatenate([outside, inside + shift]):
            assert V.contains_vector(row) == (not V.reduce(row).any())
            assert V.contains_vector(row) == V.contains_vector(row[None])
        assert V.contains_vector(inside)
        assert V.contains_vector(inside + shift)
        assert V.contains_vector(inside - p)
        for W in spaces[:4]:
            assert V.contains(W) == (not V.reduce(W.basis).any())
    assert not spaces[0].contains_vector(np.eye(n, dtype=np.int64)[:1])
    assert spaces[1].contains_vector(outside - 7 * p)
    for bad in (inside[:, :-1], inside[0, :-1], inside[:, :, None],
                np.int64(0)):
        with pytest.raises(FpError):
            spaces[2].contains_vector(bad)


def test_quotient_space_project_lift():
    # frattini_quotient's I(G)/I(G)^2 for He3: each projection lifts back
    # through the section to v modulo the product span I(G)·I(G), which
    # projects to zero, and a vector, or a batch holding one, outside I(G)
    # is refused
    ctx = AlgebraContext(catalog_by_name("He3"))
    Q = frattini_quotient(ctx)
    I = ctx.augmentation_ideal()
    I2 = power_space(ctx, I, 2)
    assert not Q.project(I2.basis).any()
    V = np.random.default_rng(5).integers(0, 3, size=(6, I.dim)) @ I.basis % 3
    for v in V:
        assert I2.contains_vector(Q.project(v) @ Q.section - v)
    for outside in (ctx.one, 2 * ctx.basis_vector(4), np.vstack([V, ctx.one])):
        with pytest.raises(AlgebraError, match="outside"):
            Q.project(outside)


def test_quotient_space_of_zero_dimension():
    # the trivial group: I(G) = 0, so I(G)/I(G)^2 is 0, the zero vector
    # has no coordinates, and e_1 is outside I(G)
    ctx = AlgebraContext(PGroup(5, np.zeros((1, 1), dtype=np.int64), "C1"))
    Q = frattini_quotient(ctx)
    assert Q.dim == 0 and Q.section.shape == (0, 1)
    assert Q.project([[0], [0]]).shape == (2, 0)
    with pytest.raises(AlgebraError, match="outside"):
        Q.project([1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_projection_matches_solve(p):
    # frattini_quotient's project, on every e_a - 1 and on seeded random
    # elements of I(G), against one solve against the greedy section
    # modulo the product span I(G)·I(G), on every catalog group to order
    # 64 (p = 2), 81 (p = 3) and 125 (p = 5)
    rng = np.random.default_rng(20261020 + p)
    for G in builtin_catalog(p=p, max_order={2: 64, 3: 81, 5: 125}[p]):
        ctx = AlgebraContext(G)
        I = ctx.augmentation_ideal()
        I2 = power_space(ctx, I, 2)
        V = np.concatenate([
            [ctx.group_minus_one(a) for a in range(G.order)],
            rng.integers(0, p, size=(8, I.dim)) @ I.basis % p])
        assert np.array_equal(
            frattini_quotient(ctx).project(V),
            quotient_coordinates(greedy_section(I, I2), I2, V)), G.name


def test_unsupported_prime_rejected():
    with pytest.raises(FpError):
        span(7, 3, [[1, 0, 0]])
    with pytest.raises(FpError):
        span(4, 3, [[1, 0, 0]])


def test_ambient_mismatch_rejected():
    U = span(2, 3, [[1, 0, 0]])
    V = span(2, 4, [[1, 0, 0, 0]])
    with pytest.raises(FpError):
        U.sum(V)
