"""Exact dense linear algebra over a prime field F_p.

Matrices are immutable, entries are canonical residues in [0, p), and
every operation is deterministic: pivots are chosen leftmost-first and
free variables are set to zero, so identical inputs give bit-identical
outputs.  Zero-dimensional shapes (0 x n, n x 0) are first-class: an
operation with a zero-size operand returns its exact result at once,
without elimination or product.  `Mat.zeros` and `Mat.identity` return
shared matrices, cached per (shape, p); sharing is safe because every
`Mat` is immutable (its array is read-only).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FieldMismatchError, NoSolutionError

__all__ = [
    "Mat",
    "Rref",
    "rref",
    "kernel",
    "cokernel",
    "solve",
    "solve_or_none",
    "inverse",
]

_CHECKED_PRIMES: set[int] = set()
_INT64 = np.dtype(np.int64)


def _check_modulus(p) -> int:
    p = int(p)
    if p in _CHECKED_PRIMES:
        return p
    if p < 2 or p >= 2**31:
        raise ValueError(f"field modulus must satisfy 2 <= p < 2**31, got {p}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"field modulus {p} is not prime")
        d += 1
    _CHECKED_PRIMES.add(p)
    return p


def _same_field(a: "Mat", b: "Mat") -> int:
    if a.p != b.p:
        raise FieldMismatchError(f"field mismatch: {a.p} vs {b.p}")
    return a.p


class Mat:
    """Immutable dense matrix over F_p."""

    __slots__ = ("arr", "p")

    def __init__(self, entries, p: int):
        p = _check_modulus(p)
        arr = np.array(entries, dtype=np.int64)
        if arr.ndim == 1:
            # A flat list is only unambiguous when empty.
            if arr.size:
                raise ValueError("matrix entries must be a list of rows")
            arr = arr.reshape(0, 0)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        arr = arr % p
        arr.flags.writeable = False
        self.arr = arr
        self.p = p

    @classmethod
    def _wrap(cls, arr: np.ndarray, p: int) -> "Mat":
        """The Mat of canonical residues `arr`, taken over without a copy
        when it is already a C-contiguous int64 array."""
        m = object.__new__(cls)
        if arr.dtype is not _INT64 or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.flags.writeable = False
        m.arr = arr
        m.p = p
        return m

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def zeros(rows: int, cols: int, p: int) -> "Mat":
        """The zero matrix, shared among calls with the same arguments."""
        return Mat._wrap(np.zeros((rows, cols), dtype=np.int64), _check_modulus(p))

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def identity(n: int, p: int) -> "Mat":
        """The identity matrix, shared among calls with the same arguments."""
        return Mat._wrap(np.eye(n, dtype=np.int64), _check_modulus(p))

    @property
    def rows(self) -> int:
        return self.arr.shape[0]

    @property
    def cols(self) -> int:
        return self.arr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.arr.shape

    def tolist(self) -> list[list[int]]:
        return self.arr.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and bool(np.array_equal(self.arr, other.arr))

    def __hash__(self):
        return hash((self.p, self.shape, self.arr.tobytes()))

    def __repr__(self) -> str:
        return f"Mat({self.tolist()}, p={self.p})"

    def __add__(self, other: "Mat") -> "Mat":
        p = _same_field(self, other)
        return Mat._wrap((self.arr + other.arr) % p, p)

    def __sub__(self, other: "Mat") -> "Mat":
        p = _same_field(self, other)
        return Mat._wrap((self.arr - other.arr) % p, p)

    def __neg__(self) -> "Mat":
        return Mat._wrap((-self.arr) % self.p, self.p)

    def scale(self, c: int) -> "Mat":
        return Mat._wrap((self.arr * (int(c) % self.p)) % self.p, self.p)

    def __matmul__(self, other: "Mat") -> "Mat":
        p = _same_field(self, other)
        (m, inner), (k, n) = self.arr.shape, other.arr.shape
        if inner != k:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        if not (m and inner and n):
            return Mat.zeros(m, n, p)
        return Mat._wrap(_matmul(self.arr, other.arr, p), p)

    def transpose(self) -> "Mat":
        return Mat._wrap(self.arr.T.copy(), self.p)

    def take_rows(self, idx) -> "Mat":
        return Mat._wrap(self.arr[list(idx), :].copy(), self.p)

    def take_cols(self, idx) -> "Mat":
        return Mat._wrap(self.arr[:, list(idx)].copy(), self.p)

    def is_zero(self) -> bool:
        return not self.arr.any()

    def is_identity(self) -> bool:
        return self.rows == self.cols and bool(np.array_equal(self.arr, np.eye(self.rows, dtype=np.int64)))

    def rank(self) -> int:
        return len(rref(self, transform=False).pivots)

    @staticmethod
    def hstack(mats: list["Mat"]) -> "Mat":
        if not mats:
            raise ValueError("hstack of no matrices")
        p = mats[0].p
        for m in mats:
            _same_field(mats[0], m)
        return Mat._wrap(np.concatenate([m.arr for m in mats], axis=1), p)

    @staticmethod
    def vstack(mats: list["Mat"]) -> "Mat":
        if not mats:
            raise ValueError("vstack of no matrices")
        p = mats[0].p
        for m in mats:
            _same_field(mats[0], m)
        return Mat._wrap(np.concatenate([m.arr for m in mats], axis=0), p)

    @staticmethod
    def block_diag(mats: list["Mat"], p: int) -> "Mat":
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = np.zeros((rows, cols), dtype=np.int64)
        r = c = 0
        for m in mats:
            out[r : r + m.rows, c : c + m.cols] = m.arr
            r += m.rows
            c += m.cols
        return Mat._wrap(out, p)


# Products with at least this many multiply-adds go through float64 BLAS
# when that is exact; smaller ones stay on int64, where numpy's overhead
# per call is lower.
_BLAS_MIN_MADDS = 32**3


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for canonical residues.

    The float64 route is exact when inner * (p - 1)**2 < 2**53: every
    product and every partial sum is then an integer below 2**53, so no
    rounding happens in any summation order.  The int64 route is exact
    when inner * (p - 1)**2 <= 2**62.  Above both, `_matmul_halves` splits
    the operands.
    """
    m, inner = a.shape
    n = b.shape[1]
    if inner == 0:
        return np.zeros((m, n), dtype=np.int64)
    if m * inner * n >= _BLAS_MIN_MADDS and inner * (p - 1) ** 2 < 2**53:
        # Reduce in int64: np.fmod on float64 is several times slower.
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p
    if inner * (p - 1) ** 2 <= 2**62:
        return (a @ b) % p
    return _matmul_halves(a, b, p)


# Inner length up to which the float64 products of 16-bit halves are exact.
_HALVES_INNER = 2**20


def _matmul_halves(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for any p < 2**31, by delayed reduction (Dumas, Giorgi
    and Pernet, ACM TOMS 35(3), 2008).

    With a = 2**16 a1 + a0 and b = 2**16 b1 + b0, all halves below 2**16,
    one float64 product of [a1; a0] and [b1 b0] gives the four partial
    products a_i b_j.  Their entries are below inner * 2**32, and the sum
    of the two middle ones below 2**53, so they are exact for inner up to
    2**20.  Each is reduced mod p before the int64 recombination
    a1 b1 * (2**32 mod p) + (a1 b0 + a0 b1) * 2**16 + a0 b0, whose terms
    stay below 2**62, 2**47 and 2**52.
    """
    m, n = a.shape[0], b.shape[1]
    out = np.zeros((m, n), dtype=np.int64)
    for k in range(0, a.shape[1], _HALVES_INNER):
        ak, bk = a[:, k : k + _HALVES_INNER], b[k : k + _HALVES_INNER]
        A = np.vstack([ak >> 16, ak & 0xFFFF]).astype(np.float64)
        B = np.hstack([bk >> 16, bk & 0xFFFF]).astype(np.float64)
        P = A @ B
        high = P[:m, :n].astype(np.int64) % p
        middle = (P[:m, n:] + P[m:, :n]).astype(np.int64) % p
        out += (high * pow(2, 32, p) + middle * 2**16 + P[m:, n:].astype(np.int64)) % p
    return out % p


@dataclass(frozen=True)
class Rref:
    """Reduced row-echelon form R with pivot columns and transform T M = R.

    T is None when `rref` was called with transform=False.
    """

    R: Mat
    pivots: tuple[int, ...]
    T: Optional[Mat]

    @property
    def rank(self) -> int:
        return len(self.pivots)


# Column panel width of the blocked elimination.  A matrix no wider than
# one panel is eliminated unblocked, with no copies and no products.
_PANEL = 48


def _gauss_jordan(A: np.ndarray, ncols: int, p: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Unblocked Gauss-Jordan elimination of A in place, pivoting only in
    its first `ncols` columns: the pivot of column c is the first nonzero
    at or below the current row.  Returns the pivot columns and the row
    swaps made, in order.
    """
    m = A.shape[0]
    pivots: list[int] = []
    swaps: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
            swaps.append((r, i))
        # Row r is zero left of c, so every update starts at column c.
        row = A[r, c:]
        piv = int(row[0])
        if piv != 1:
            row *= pow(piv, p - 2, p)
            row %= p
        factors = A[:, c].copy()
        factors[r] = 0
        hit = factors.nonzero()[0]
        if hit.size:
            A[hit, c:] = (A[hit, c:] - factors[hit, None] * row) % p
        pivots.append(c)
        r += 1
    return pivots, swaps


def _eliminate(A: np.ndarray, ncols: int, p: int) -> list[int]:
    """Gauss-Jordan elimination of A in place, pivoting only in its first
    `ncols` columns; returns the pivot columns.

    Columns are taken in panels of _PANEL.  Each panel is eliminated
    unblocked on a copy of its rows at or below the current row r, which
    fixes the panel's pivots and row swaps.  The panel's row operations
    are then applied to every column from the panel on in one product:
    with the rows permuted, the k pivot rows become X = G^-1 A[r:r+k],
    where G is their pre-elimination block in the pivot columns, and
    every other row loses C X, where C is its pre-elimination block in
    the pivot columns.  These are the elementary operations of the
    unblocked loop, grouped, so the result is the same to the bit.
    """
    if ncols <= _PANEL:
        return _gauss_jordan(A, ncols, p)[0]
    m = A.shape[0]
    pivots: list[int] = []
    r = 0
    for c0 in range(0, ncols, _PANEL):
        if r == m:
            break
        c1 = min(c0 + _PANEL, ncols)
        piv, swaps = _gauss_jordan(A[r:, c0:c1].copy(), c1 - c0, p)
        if not piv:
            continue
        for i, j in swaps:
            A[[r + i, r + j]] = A[[r + j, r + i]]
        k = len(piv)
        pc = [c0 + j for j in piv]
        G = np.eye(k, 2 * k, k, dtype=np.int64)
        G[:, :k] = A[r : r + k, pc]
        _gauss_jordan(G, k, p)
        X = _matmul(G[:, k:], A[r : r + k, c0:], p)
        for rows in (slice(0, r), slice(r + k, m)):
            C = A[rows, pc]
            if C.any():
                block = A[rows, c0:]
                block -= _matmul(C, X, p)
                block %= p
        A[r : r + k, c0:] = X
        pivots += pc
        r += k
    return pivots


def _with_identity(a: np.ndarray) -> np.ndarray:
    """[a | I], a fresh array to eliminate in place."""
    m, n = a.shape
    A = np.zeros((m, n + m), dtype=np.int64)
    A[:, :n] = a
    A.reshape(-1)[n :: n + m + 1] = 1
    return A


def _solution(A: np.ndarray, n: int, p: int) -> Optional[np.ndarray]:
    """Canonical X with a X = b (free variables zero), or None when there
    is none, from A = [a | b] with a of n columns, eliminated in place.

    Pivots are sought only among a's columns: the system is consistent
    exactly when the rows without a pivot are then zero in b, and in that
    case eliminating [a | b] entirely would find the same pivots.
    """
    pivots = _eliminate(A, n, p)
    r = len(pivots)
    if A[r:, n:].any():
        return None
    X = np.zeros((n, A.shape[1] - n), dtype=np.int64)
    X[pivots] = A[:r, n:]
    return X


def rref(M: Mat, transform: bool = True) -> Rref:
    """Reduced row-echelon form of M, pivots leftmost-first.

    With transform=True, T is the invertible matrix with T M = R, read off
    from eliminating [M | I] with pivots chosen only among M's columns.
    With transform=False, T is None and the identity block is never built.
    """
    p = M.p
    m, n = M.arr.shape
    if not (m and n):
        return Rref(M, (), Mat.identity(m, p) if transform else None)
    A = _with_identity(M.arr) if transform else M.arr.copy()
    pivots = _eliminate(A, n, p)
    T = Mat._wrap(A[:, n:], p) if transform else None
    return Rref(Mat._wrap(A[:, :n], p), tuple(pivots), T)


def kernel(M: Mat) -> Mat:
    """Canonical basis of ker M as columns; full column rank cols - rank."""
    p = M.p
    m, n = M.arr.shape
    if not (m and n):
        return Mat.identity(n, p)
    R = M.arr.copy()
    pivots = _eliminate(R, n, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    K = np.zeros((n, len(free)), dtype=np.int64)
    if free:
        K[free, np.arange(len(free))] = 1
        K[pivots] = (-R[: len(pivots), free]) % p
    return Mat._wrap(K, p)


def cokernel(M: Mat) -> tuple[Mat, Mat]:
    """(C, section): C M = 0, C surjective of rank rows - rank(M), C section = id.

    C is the last rows - rank(M) rows of the transform of `rref(M)`, and
    the section is the canonical solution of C X = I.
    """
    p = M.p
    m, n = M.arr.shape
    if not (m and n):
        ident = Mat.identity(m, p)
        return ident, ident
    A = _with_identity(M.arr)
    r = len(_eliminate(A, n, p))
    C = A[r:, n:]
    return Mat._wrap(C, p), Mat._wrap(_solution(_with_identity(C), m, p), p)


def solve(A: Mat, B: Mat) -> Mat:
    """Canonical X with A X = B (free variables zero); raises NoSolutionError."""
    X = solve_or_none(A, B)
    if X is None:
        raise NoSolutionError(f"system of shape {A.shape} has no solution")
    return X


def solve_or_none(A: Mat, B: Mat) -> Optional[Mat]:
    """Canonical X with A X = B (free variables zero), or None."""
    p = _same_field(A, B)
    (m, n), (k, w) = A.arr.shape, B.arr.shape
    if m != k:
        raise ValueError(f"row mismatch in solve: {A.shape} vs {B.shape}")
    if not (m and n and w):
        # With no unknowns, only B = 0 is reached.
        return None if not n and B.arr.any() else Mat.zeros(n, w, p)
    S = np.empty((m, n + w), dtype=np.int64)
    S[:, :n] = A.arr
    S[:, n:] = B.arr
    X = _solution(S, n, p)
    return None if X is None else Mat._wrap(X, p)


def inverse(M: Mat) -> Mat:
    if M.rows != M.cols:
        raise ValueError(f"cannot invert non-square matrix of shape {M.shape}")
    if not M.rows:
        return M
    rr = rref(M)
    if rr.rank != M.rows:
        raise NoSolutionError(f"matrix of shape {M.shape} is singular (rank {rr.rank})")
    return rr.T
