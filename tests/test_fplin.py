"""Linear algebra over F_p: RREF canonical forms, subspaces, quotients."""

import numpy as np
import pytest

from pgroupalg.fplin import (FpError, FpSubspace, QuotientSpace, nullspace,
                             rref, solve)

from oracles import (coordinates, full_space, intersect,
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


def test_quotient_space_project_lift():
    W = full_space(2, 4)
    U = span(2, 4, [[1, 1, 0, 0]])
    Q = QuotientSpace(W, U)
    assert Q.dim == 3
    v = np.array([1, 0, 1, 0], dtype=np.int64)
    c = Q.project(v)
    lifted = c @ Q.section % 2
    # the lift differs from v by an element of U
    assert U.contains_vector((lifted - v) % 2)
    # U itself projects to zero
    assert np.all(Q.project([1, 1, 0, 0]) == 0)
    # a batch projects row by row, and a vector outside W is refused
    V = np.array([v, [1, 1, 0, 0], [0, 1, 1, 1]])
    assert np.array_equal(Q.project(V), [Q.project(x) for x in V])
    Q2 = QuotientSpace(span(2, 4, [[1, 1, 0, 0], [0, 0, 1, 0]]), U)
    assert Q2.section.tolist() == [[0, 0, 1, 0]]
    with pytest.raises(FpError):
        Q2.project(V)


def test_quotient_space_of_zero_dimension():
    U = span(3, 3, [[1, 2, 0]])
    Q = QuotientSpace(U, U)
    assert Q.dim == 0
    assert Q.project([[2, 1, 0], [0, 0, 0]]).shape == (2, 0)
    assert Q.section.shape == (0, 3)
    with pytest.raises(FpError):
        Q.project([0, 0, 1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_projection_matches_solve(p):
    # project's two products against one solve per call, on random W ⊇ U
    rng = np.random.default_rng(20261019 + p)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        W = FpSubspace(p, n, rng.integers(0, p, size=(rng.integers(1, n + 1), n)))
        U = FpSubspace(p, n, rng.integers(0, p, size=(rng.integers(0, W.dim + 1),
                                                      W.dim)) @ W.basis % p)
        Q = QuotientSpace(W, U)
        V = rng.integers(0, p, size=(5, W.dim)) @ W.basis % p
        assert np.array_equal(Q.project(V), quotient_coordinates(Q, V))
        for v in V:
            assert np.array_equal(Q.project(v), quotient_coordinates(Q, v))
        outside = rng.integers(0, p, size=n)
        if not W.contains_vector(outside):
            assert quotient_coordinates(Q, outside) is None
            with pytest.raises(FpError, match="outside"):
                Q.project(outside)
            with pytest.raises(FpError, match="outside"):
                Q.project(np.vstack([V, outside]))


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
