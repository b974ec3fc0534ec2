"""Exact linear algebra over the prime field F_p.

Subspaces are stored as reduced row-echelon bases, so two equal subspaces
always carry bit-identical basis matrices and subspace equality is
structural equality.  Everything is integer arithmetic mod p: the only
floats are BLAS matrix products of small integers, which are exact.

Elimination is blocked.  ``rref`` eliminates a first block of rows densely,
then reduces each further block against the basis found so far in a single
matrix product, the RREF residual ``B - B[:, pivots] @ R (mod p)``; only the
rows that survive are eliminated densely.  It stops once the rank equals the
number of columns, so redundant rows past that point are never read.  The
same residual tests membership and gives coordinates in ``FpSubspace``, and
stands for a class of a quotient in ``QuotientSpace``.

The dense blocks have two kernels.  Over F_2 each row is packed into one
Python integer, column c at bit ncols - 1 - c, and eliminated by XOR, a
few integer operations per row and pivot instead of several numpy calls
per column.  p = 3 and p = 5 take the one int64 path, ``_rref_dense``,
which also stays as the reference for the packed kernel.
"""

from __future__ import annotations

import functools

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5)


class FpError(ValueError):
    """Prime/dimension mismatch or precondition violation."""


def _check_prime(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise FpError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


# Rows in the first elimination block: the number of columns, but at least
# this many, so that short inputs take the dense path alone.  Later blocks
# double in height up to _BLOCK_MAX rows: once the rank settles, most rows
# reduce to zero, and a taller block costs one product instead of several.
_BLOCK_MIN = 32
_BLOCK_MAX = 4096


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B (mod p) for entries in [0, p), through float64 BLAS.  B may be
    a stack of matrices, as in np.matmul.

    Exact: a dot product of fewer than 2^48 terms below p^2 = 25 stays
    inside the 2^53 integer range of a double, so the product converts to
    int64 without loss and is reduced there, in place: an integer
    remainder costs a fraction of a float64 one.
    """
    out = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64)
    return np.remainder(out, p, out=out)


def _rref_dense(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of an int64 block with entries in [0, p), one pivot column at a
    time; overwrites A."""
    nrows, ncols = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        i = r + int(A[r:, c].argmax())  # any nonzero entry can be the pivot
        if not A[i, c]:
            continue
        if i != r:
            A[[r, i]] = A[[i, r]]
        if A[r, c] != 1:
            A[r] = (A[r] * _inv_mod(A[r, c], p)) % p
        col = A[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            A[hit] = (A[hit] - col[hit, None] * A[r]) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _rref_gf2(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """RREF of a block with entries in {0, 1} over F_2, as _rref_dense(A, 2)
    returns it, from rows packed into integers.

    Column c sits at bit ncols - 1 - c, so a row's leading bit is its
    leftmost nonzero column.  Gauss-Jordan by XOR: each row is reduced
    against the pivot rows found so far, and its new pivot is then cleared
    out of them; it stops at full rank.
    """
    nrows, ncols = A.shape
    if not ncols:
        return np.zeros((0, 0), dtype=np.int64), []
    packed = np.packbits(A.astype(bool), axis=1)
    width = packed.shape[1]
    pad = 8 * width - ncols
    buf = packed.tobytes()
    rows: dict[int, int] = {}  # leading bit -> pivot row
    mask = 0  # the leading bits of the pivot rows
    for i in range(0, nrows * width, width):
        v = int.from_bytes(buf[i:i + width], "big") >> pad
        hit = v & mask
        while hit:
            b = hit.bit_length() - 1
            v ^= rows[b]
            hit ^= 1 << b  # rows[b] is zero on every other pivot bit
        if not v:
            continue
        b = v.bit_length() - 1
        bit = 1 << b
        for k, r in rows.items():
            if r & bit:
                rows[k] = r ^ v
        rows[b] = v
        mask |= bit
        if len(rows) == ncols:
            break
    order = sorted(rows, reverse=True)
    out = b"".join((rows[b] << pad).to_bytes(width, "big") for b in order)
    bits = np.frombuffer(out, dtype=np.uint8).reshape(len(order), width)
    R = np.unpackbits(bits, axis=1, count=ncols).astype(np.int64)
    return R, [ncols - 1 - b for b in order]


def rref(rows: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p.  Returns (matrix, pivot columns).

    Blocked elimination in the manner of M4RI (Albrecht, Bard & Hart, ACM
    TOMS 37(1), 2010): the first block of rows is eliminated densely; every
    further block B is reduced against the current basis R in one step, as
    the residual B - B[:, pivots] @ R (mod p).  Its zero rows are dropped and
    only the rest is eliminated densely and merged into R.  The loop stops
    once the rank equals the number of columns.  The output is the unique
    RREF of the row space, whatever the block size or row order.
    """
    A = np.asarray(rows)
    if A.ndim != 2:
        raise FpError("rref expects a 2-d array")
    nrows, ncols = A.shape
    block = max(ncols, _BLOCK_MIN)
    dense = _rref_gf2 if p == 2 else functools.partial(_rref_dense, p=p)
    R, pivots = dense(A[:block].astype(np.int64) % p)
    start = block
    while start < nrows and len(pivots) < ncols:
        B = A[start:start + block].astype(np.int64) % p
        start += block
        block = min(2 * block, _BLOCK_MAX)
        if pivots:
            B = (B - matmul_mod(B[:, pivots], R, p)) % p
            B = B[B.any(axis=1)]
        if not B.shape[0]:
            continue
        Rb, new = dense(B)
        # Rb is zero on the old pivot columns; clear its pivots out of R
        R = (R - matmul_mod(R[:, new], Rb, p)) % p
        merged = pivots + new
        order = np.argsort(merged, kind="stable")
        R = np.concatenate([R, Rb])[order]
        pivots = [merged[k] for k in order]
    return R, tuple(pivots)


def nullspace(A: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows) of {x : A @ x = 0 (mod p)}."""
    A = np.asarray(A, dtype=np.int64) % p
    m, n = A.shape
    R, pivots = rref(A, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = (-R[:, free].T) % p
    return basis


def solve(A: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution y of A @ y = b (mod p), or None if inconsistent.

    A 2-d b holds one right-hand side per row; the solutions come back as
    rows, from one elimination of [A | b.T], and None means that some row
    is inconsistent.  A pivot right of A's columns is exactly that.
    """
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    m, n = A.shape
    rhs = b if b.ndim == 2 else b[None]
    R, pivots = rref(np.concatenate([A, rhs.T], axis=1), p)
    if pivots and pivots[-1] >= n:
        return None
    y = np.zeros((rhs.shape[0], n), dtype=np.int64)
    y[:, list(pivots)] = R[:, n:].T
    return y if b.ndim == 2 else y[0]


class FpSubspace:
    """A subspace of F_p^dim held as a canonical RREF basis."""

    __slots__ = ("p", "ambient", "basis", "pivots")

    def __init__(self, p: int, ambient: int, rows=None):
        _check_prime(p)
        self.p = p
        self.ambient = ambient
        if rows is None:
            rows = np.zeros((0, ambient), dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, ambient)
        self.basis, self.pivots = rref(rows, p)
        self.basis.setflags(write=False)

    @classmethod
    def _from_rref(cls, p: int, ambient: int, basis: np.ndarray,
                   pivots) -> "FpSubspace":
        """The subspace of a basis already in canonical RREF, taken as it
        is: the form is checked, not eliminated again.  basis[:, pivots]
        is the identity, the pivots increase, each row is zero left of its
        pivot and every entry lies in [0, p)."""
        _check_prime(p)
        basis = np.asarray(basis, dtype=np.int64).reshape(-1, ambient)
        piv = np.asarray(pivots, dtype=np.int64)
        r = basis.shape[0]
        if (piv.shape != (r,) or (np.diff(piv) <= 0).any()
                or not np.array_equal(basis[:, piv], np.eye(r, dtype=np.int64))
                or (basis[np.arange(ambient) < piv[:, None]] != 0).any()
                or ((basis < 0) | (basis >= p)).any()):
            raise FpError("basis is not in canonical RREF")
        self = cls.__new__(cls)
        self.p, self.ambient = p, ambient
        self.basis, self.pivots = basis, tuple(int(c) for c in piv)
        self.basis.setflags(write=False)
        return self

    @classmethod
    def zero(cls, p: int, ambient: int) -> "FpSubspace":
        return cls(p, ambient)

    @classmethod
    def full(cls, p: int, ambient: int) -> "FpSubspace":
        return cls._from_rref(p, ambient, np.eye(ambient, dtype=np.int64),
                              range(ambient))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _compat(self, other: "FpSubspace") -> None:
        if self.p != other.p or self.ambient != other.ambient:
            raise FpError("prime/ambient dimension mismatch")

    def reduce(self, vec) -> np.ndarray:
        """Residual of vec (or of each row of a 2-d array) after elimination
        against the basis: v - v[pivots] @ basis (mod p).

        In RREF each basis row is 1 on its own pivot and 0 on the others, so
        the pivot entries of v are exactly its coordinates.
        """
        v = np.asarray(vec, dtype=np.int64) % self.p
        if v.shape[-1:] != (self.ambient,) or v.ndim > 2:
            raise FpError(f"vector length {v.shape} != ambient {self.ambient}")
        if not self.pivots:
            return v
        return (v - matmul_mod(v[..., list(self.pivots)], self.basis,
                                self.p)) % self.p

    def contains_vector(self, vec) -> bool:
        return not self.reduce(vec).any()

    def contains(self, other: "FpSubspace") -> bool:
        self._compat(other)
        return not self.reduce(other.basis).any()

    def sum(self, other: "FpSubspace") -> "FpSubspace":
        self._compat(other)
        return FpSubspace(self.p, self.ambient,
                          np.concatenate([self.basis, other.basis]))

    __add__ = sum

    def intersect(self, other: "FpSubspace") -> "FpSubspace":
        self._compat(other)
        if self.dim == 0 or other.dim == 0:
            return FpSubspace.zero(self.p, self.ambient)
        # x in both spans: x = cA @ A = cB @ B; kernel of [A^T | -B^T]
        M = np.concatenate([self.basis.T, -other.basis.T], axis=1) % self.p
        ker = nullspace(M, self.p)
        rows = (ker[:, :self.dim] @ self.basis) % self.p
        return FpSubspace(self.p, self.ambient, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSubspace):
            return NotImplemented
        return (self.p == other.p and self.ambient == other.ambient
                and self.pivots == other.pivots
                and np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash((self.p, self.ambient, self.pivots,
                     self.basis.tobytes()))

    def __repr__(self):
        return f"FpSubspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"

    def basis_rows(self) -> list[list[int]]:
        return [list(map(int, row)) for row in self.basis]


def span(p: int, ambient: int, vectors) -> FpSubspace:
    return FpSubspace(p, ambient, np.array(list(vectors), dtype=np.int64).reshape(-1, ambient))


class QuotientSpace:
    """W/U with a fixed section, a basis of a complement of U in W.

    The class v + U is held by its canonical RREF residual U.reduce(v).
    The default section is the rows of W's basis that are independent
    modulo U, taken in order.  One elimination finds them: they are the
    pivot columns of the matrix whose columns are their residuals.  Rows of
    an RREF basis are in RREF themselves, so the section is the canonical
    basis of its span.
    """

    def __init__(self, W: FpSubspace, U: FpSubspace,
                 section: FpSubspace | None = None):
        if not W.contains(U):
            raise FpError("quotient_space: U is not contained in W")
        self.W = W
        self.U = U
        self.p = W.p
        self.ambient = W.ambient
        if section is None:
            _, independent = rref(U.reduce(W.basis).T, self.p)
            self.section = W.basis[list(independent)]  # (q, ambient)
        else:
            # with U + section = W, the dimensions add iff U ∩ section = 0
            if U.dim + section.dim != W.dim or U.sum(section) != W:
                raise FpError("quotient_space: invalid section")
            self.section = section.basis
        # the classes of the section rows, in which project solves
        self._residuals = U.reduce(self.section)

    @property
    def dim(self) -> int:
        return self.section.shape[0]

    def project(self, vec) -> np.ndarray:
        """Section coordinates of vec + U, or of each row of a 2-d array,
        from one elimination.  Raises if a vector is outside W."""
        x = solve(self._residuals.T, self.U.reduce(vec), self.p)
        if x is None:
            raise FpError("vector outside the quotient's ambient space W")
        return x

    def lift(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=np.int64) % self.p
        if c.shape != (self.dim,):
            raise FpError("coordinate length mismatch")
        return (c @ self.section) % self.p
