"""Small F_p linear algebra used to generate inputs and to check outputs.

It shares no code with ``tamechain.field``: the checks must not trust the
layer they measure.  Matrices are numpy int64 arrays with entries in
[0, p); every product of two entries stays below p**2 < 2**31, so int64
never overflows for the primes the benchmark uses (p < 2**15).
"""

from __future__ import annotations

import numpy as np


def as_array(rows, shape: tuple[int, int], p: int) -> np.ndarray:
    """Matrix from an interchange literal (list of rows, or null for zero)."""
    if rows is None:
        return np.zeros(shape, dtype=np.int64)
    a = np.array(rows, dtype=np.int64).reshape(shape)
    return a % p


def echelon(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon form (rows above and below each pivot cleared)
    and the pivot columns, by column-at-a-time Gauss-Jordan."""
    A = np.array(M, dtype=np.int64) % p
    nrows, ncols = A.shape
    pivots: list[int] = []
    top = 0
    for c in range(ncols):
        if top == nrows:
            break
        below = np.flatnonzero(A[top:, c])
        if below.size == 0:
            continue
        r = top + int(below[0])
        if r != top:
            A[[top, r]] = A[[r, top]]
        A[top] = (A[top] * pow(int(A[top, c]), -1, p)) % p
        col = A[:, c].copy()
        col[top] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            A[hit] = (A[hit] - col[hit, None] * A[top][None, :]) % p
        pivots.append(c)
        top += 1
    return A[:top], pivots


def rank(M: np.ndarray, p: int) -> int:
    M = np.asarray(M)
    if M.size == 0:
        return 0
    # Eliminate along the shorter side.
    if M.shape[0] > M.shape[1]:
        M = M.T
    return len(echelon(M, p)[1])


def nullspace(M: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning {v : M v = 0}."""
    M = np.asarray(M, dtype=np.int64)
    ncols = M.shape[1]
    if M.shape[0] == 0:
        return np.eye(ncols, dtype=np.int64)
    R, pivots = echelon(M, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    K = np.zeros((ncols, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        K[f, j] = 1
        for i, c in enumerate(pivots):
            K[c, j] = (-R[i, f]) % p
    return K


def inverse(M: np.ndarray, p: int) -> np.ndarray:
    n = M.shape[0]
    R, pivots = echelon(np.hstack([M % p, np.eye(n, dtype=np.int64)]), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return R[:n, n:]


def solve(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Some X with A X = B; raises ValueError when there is none."""
    ncols = A.shape[1]
    R, pivots = echelon(np.hstack([A % p, B % p]), p)
    if pivots and pivots[-1] >= ncols:
        raise ValueError("system has no solution")
    X = np.zeros((ncols, B.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        X[c] = R[i, ncols:]
    return X


def random_invertible(rng, n: int, p: int) -> np.ndarray:
    while True:
        M = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64).reshape(n, n)
        if rank(M, p) == n:
            return M


def random_matrix(rng, rows: int, cols: int, p: int) -> np.ndarray:
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64).reshape(rows, cols)
