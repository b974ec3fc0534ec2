"""Exact linear algebra over the prime field F_p.

Subspaces are stored as reduced row-echelon bases, so two equal subspaces
always carry bit-identical basis matrices and subspace equality is
structural equality.  Everything is integer arithmetic mod p: the only
floats are BLAS matrix products of small integers, which are exact.

Over F_2, ``rref`` packs every row into one Python integer in a single
pass, drops zero and repeated rows, and eliminates the rest by XOR, column
c at bit 8 * width - 1 - c, where width is the packed row's byte count
(Boothby & Bradshaw, arXiv:0901.1413, 2009): a few integer operations per
row and pivot instead of several numpy calls per column.

Over F_3 and F_5 elimination is blocked.  ``rref`` eliminates a first block
of rows densely, then reduces each further block against the basis found
so far in a single matrix product, the RREF residual
``B - B[:, pivots] @ R (mod p)``; only the rows that survive are
eliminated densely.  The dense blocks are packed too: column c is lane
ncols - 1 - c, of W = 8 and 16 bits; rows are combined by integer addition
and reduced mod p in every lane at once by the multiply-shift
x - ((x * M >> S) & low) * p, with (M, S) = (11, 5) and (13, 6), exact
while a lane stays at most p(p - 1).

Every ``rref`` stops once the rank equals the number of columns, so
redundant rows past that point are never reduced.  The residual against an
RREF basis, at every p, tests membership and gives coordinates in
``FpSubspace``.
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


# Rows in the first elimination block at p = 3, 5: the number of columns,
# but at least this many, so that short inputs take the dense path alone.
# Later blocks double in height up to _BLOCK_MAX rows: once the rank
# settles, most rows reduce to zero, and a taller block costs one product
# instead of several.
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


# Lanes of the packed odd-p kernel: p -> (W, M, S).  An entry takes W bits,
# and x // p == (x * M) >> S with x * M < 2^W for 0 <= x <= p(p - 1).
_LANES = {3: (8, 11, 5), 5: (16, 13, 6)}


def _rref_packed(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of an int64 block with entries in [0, p), for p = 3 or 5, from
    rows packed into integers of W-bit lanes, column c in lane ncols - 1 - c.

    Gauss-Jordan as in _rref_gf2, with v + (p - c) r in place of XOR, each
    row operation and pivot scaling followed by the lane-wise remainder of
    the module docstring.  (v + fill) & top flags the nonzero lanes.  A new
    pivot is cleared out of the pivot rows only if one of them has been
    nonzero in its lane.
    """
    nrows, ncols = A.shape
    if not ncols:
        return np.zeros((0, 0), dtype=np.int64), []
    W, M, S = _LANES[p]
    dtype = f">u{W // 8}"
    width = ncols * W // 8
    one = int.from_bytes((1).to_bytes(W // 8, "big") * ncols, "big")
    top = one << (W - 1)
    fill, low, lane = top - one, ((1 << (W - S)) - 1) * one, (1 << W) - 1
    buf = A.astype(dtype).tobytes()
    rows: dict[int, int] = {}  # shift of the pivot lane -> pivot row
    mask = 0  # the top bits of the pivot lanes
    seen = 0  # the top bits of every lane a pivot row has been nonzero in
    for i in range(0, nrows * width, width):
        v = int.from_bytes(buf[i:i + width], "big")
        hit = (v + fill) & mask
        while hit:
            b = hit.bit_length() - 1
            k = b - W + 1
            x = v + (p - ((v >> k) & lane)) * rows[k]
            v = x - (((x * M) >> S) & low) * p
            hit ^= 1 << b  # rows[k] is zero on every other pivot lane
        if not v:
            continue
        k = (v.bit_length() - 1) // W * W
        lead = v >> k
        if lead != 1:
            x = v * _inv_mod(lead, p)
            v = x - (((x * M) >> S) & low) * p
        flag = 1 << (k + W - 1)
        if seen & flag:
            for j, r in rows.items():
                c = (r >> k) & lane
                if c:
                    x = r + (p - c) * v
                    rows[j] = x - (((x * M) >> S) & low) * p
        rows[k] = v
        mask |= flag
        # a cleared row is nonzero only where it or v was, so seen holds
        seen |= (v + fill) & top
        if len(rows) == ncols:
            break
    order = sorted(rows, reverse=True)
    out = b"".join(rows[k].to_bytes(width, "big") for k in order)
    R = np.frombuffer(out, dtype=dtype).reshape(len(order), ncols)
    return R.astype(np.int64), [ncols - 1 - k // W for k in order]


def _rref_gf2(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """RREF over F_2 of an integer matrix, from its rows packed into
    integers in one pass.

    One np.packbits packs all rows, and zero and repeated rows are dropped
    on the packed bytes: the RREF depends only on the row space, not on
    the order or repetition of the rows.  Each distinct row is read as an
    integer, column c at bit 8 * width - 1 - c, so its leading bit is its
    leftmost nonzero column.  Gauss-Jordan by XOR: each row is reduced
    against the pivot rows found so far, and its new pivot is then cleared
    out of them, only if one of them has been nonzero in its column; it
    stops at full rank.  The pivot rows are unpacked once, at the end.
    """
    nrows, ncols = A.shape
    if not ncols:
        return np.zeros((0, 0), dtype=np.int64), []
    bits = A.astype(np.uint8, order="C")  # the wrap mod 256 keeps parity
    bits &= 1
    packed = np.packbits(bits, axis=1)
    width = packed.shape[1]
    distinct = dict.fromkeys(packed.view(f"V{width}").ravel().tolist())
    distinct.pop(bytes(width), None)
    rows: dict[int, int] = {}  # leading bit -> pivot row
    mask = 0  # the leading bits of the pivot rows
    seen = 0  # the OR of the pivot rows
    for row in distinct:
        v = int.from_bytes(row, "big")
        hit = v & mask
        while hit:
            b = hit.bit_length() - 1
            v ^= rows[b]
            hit ^= 1 << b  # rows[b] is zero on every other pivot bit
        if not v:
            continue
        b = v.bit_length() - 1
        bit = 1 << b
        if seen & bit:
            for k, r in rows.items():
                if r & bit:
                    rows[k] = r ^ v
        rows[b] = v
        mask |= bit
        seen |= v  # r ^ v is nonzero only where r or v was
        if len(rows) == ncols:
            break
    order = sorted(rows, reverse=True)
    out = b"".join([rows[b].to_bytes(width, "big") for b in order])
    packed = np.frombuffer(out, dtype=np.uint8).reshape(len(order), width)
    R = np.unpackbits(packed, axis=1, count=ncols).astype(np.int64)
    return R, [8 * width - 1 - b for b in order]


def rref(rows: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form mod p.  Returns (matrix, pivot columns).

    Over F_2 every row is packed once, and the distinct nonzero rows are
    eliminated by XOR in one pass (_rref_gf2).  Over F_3 and F_5
    elimination is blocked in the manner of M4RI (Albrecht, Bard & Hart,
    ACM TOMS 37(1), 2010): the first block of rows is eliminated densely;
    every further block B is reduced against the current basis R in one
    step, as the residual B - B[:, pivots] @ R (mod p).  Its zero rows are
    dropped and only the rest is eliminated densely and merged into R.
    Both stop once the rank equals the number of columns.  The output is
    the unique RREF of the row space, whatever the block size, row order
    or repetition.
    """
    A = np.asarray(rows)
    if A.ndim != 2:
        raise FpError("rref expects a 2-d array")
    if p == 2:
        R, pivots = _rref_gf2(A.astype(np.int64, copy=False))
        return R, tuple(pivots)
    nrows, ncols = A.shape
    block = max(ncols, _BLOCK_MIN)
    dense = functools.partial(_rref_packed, p=p)
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

    No library path calls it.  The tests hold the section coordinates of
    ``algebra.frattini_quotient`` to it, and it stays in the library
    because perfbench/tracer.py wraps it.
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
        """The subspace of a basis in canonical RREF, taken as it is, with
        no elimination and no check.  Its four callers write that form by
        construction: FpSubspace.kernel, AlgebraContext.center_subspace,
        augmentation_part and _coset_ideal, each held to FpSubspace."""
        basis = np.asarray(basis, dtype=np.int64).reshape(-1, ambient)
        self = cls.__new__(cls)
        self.p, self.ambient = p, ambient
        self.basis, self.pivots = basis, tuple(int(c) for c in pivots)
        self.basis.setflags(write=False)
        return self

    @classmethod
    def kernel(cls, p: int, A: np.ndarray) -> "FpSubspace":
        """{x : A @ x = 0}, from one elimination: on reversed columns,
        nullspace writes each kernel vector with 1 on a free column and the
        rest on pivots left of it, so read forwards it is canonical RREF."""
        K = nullspace(np.asarray(A)[:, ::-1], p)[::-1, ::-1]
        return cls._from_rref(p, K.shape[1], K.copy(), (K != 0).argmax(axis=1))

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
        if len(self.pivots) == self.ambient:  # the whole space
            return np.zeros_like(v)
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

