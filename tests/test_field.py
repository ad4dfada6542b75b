import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tamechain.errors import FieldMismatchError, NoSolutionError
from tamechain.field import (
    _PANEL,
    Mat,
    _matmul,
    cokernel,
    coordinates,
    kernel,
    kernel_basis,
    rref,
    solve,
    solve_or_none,
)

from tamechain.functors import column_space_basis

from conftest import inverse, random_invertible, random_matrix


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        Mat([[1]], 4)
    with pytest.raises(ValueError):
        Mat([[1]], 1)
    Mat([[1]], 2147483629)  # largest prime below 2**31


def test_rref_zero_matrix():
    rr = rref(Mat.zeros(3, 2, 5))
    assert rr.pivots == ()
    assert rr.R.is_zero()
    assert rr.T == Mat.identity(3, 5)


def test_rref_identity():
    rr = rref(Mat.identity(4, 3))
    assert rr.pivots == (0, 1, 2, 3)
    assert rr.R == Mat.identity(4, 3)


def test_rref_rank_one_over_f2():
    # Hand elimination: second row is a duplicate, rank 1, pivot column 0.
    rr = rref(Mat([[1, 1], [1, 1]], 2))
    assert rr.pivots == (0,)
    assert rr.R == Mat([[1, 1], [0, 0]], 2)
    assert rr.T @ Mat([[1, 1], [1, 1]], 2) == rr.R


def test_kernel_cokernel_identity():
    M = Mat.identity(3, 2)
    assert kernel(M).cols == 0
    assert cokernel(M)[0].rows == 0


def test_kernel_cokernel_zero():
    M = Mat.zeros(4, 3, 3)
    assert kernel(M) == Mat.identity(3, 3)
    assert cokernel(M)[0] == Mat.identity(4, 3)


def test_kernel_cokernel_rank_one_over_f5():
    # [[1,2],[2,4]] has rank 1 by elimination (row2 = 2 * row1).
    M = Mat([[1, 2], [2, 4]], 5)
    K = kernel(M)
    proj, section = cokernel(M)
    assert K.cols == 1
    assert (M @ K).is_zero()
    assert proj.rows == 1
    assert (proj @ M).is_zero()
    assert proj @ section == Mat.identity(1, 5)


def test_solve_identity_and_unsolvable():
    B = Mat([[1, 2], [3, 4]], 7)
    assert solve(Mat.identity(2, 7), B) == B
    with pytest.raises(NoSolutionError):
        solve(Mat.zeros(1, 2, 7), Mat([[1]], 7))
    assert solve_or_none(Mat.zeros(1, 2, 7), Mat([[1]], 7)) is None


def test_solve_canonical_free_variable():
    # All solutions of [1 1] x = [1] over F_2 are (1,0) and (0,1); the
    # canonical one sets the free variable to zero.
    A = Mat([[1, 1]], 2)
    B = Mat([[1]], 2)
    sols = [
        v
        for v in itertools.product(range(2), repeat=2)
        if (A @ Mat([[v[0]], [v[1]]], 2)) == B
    ]
    assert sorted(sols) == [(0, 1), (1, 0)]
    assert solve(A, B) == Mat([[1], [0]], 2)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=2**30),
)
def test_rank_nullity(rows, cols, p, seed):
    rng = random.Random(seed)
    M = random_matrix(rng, rows, cols, p)
    K = kernel(M)
    assert M.rank() + K.cols == cols
    assert (M @ K).is_zero() if K.cols else True
    assert K.rank() == K.cols


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=3 * _PANEL),
    st.sampled_from([2, 3, 5, 32749]),
    st.integers(min_value=0, max_value=2**30),
)
def test_kernel_basis_canonicalizes_any_basis_of_a_kernel(rows, cols, p, seed):
    # Any basis K g of ker M, g invertible, gives back `kernel(M)` itself.
    rng = random.Random(seed)
    M = random_matrix(rng, rows, cols, p)
    K = kernel(M)
    assert kernel_basis(K @ random_invertible(rng, K.cols, p)) == K


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=2**30))
def test_cokernel_section_identity(p, seed):
    rng = random.Random(seed)
    M = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), p)
    proj, section = cokernel(M)
    d = proj.rows
    assert proj @ section == Mat.identity(d, p)
    assert (proj @ M).is_zero()


def test_operations_deterministic():
    rng = random.Random(3)
    for _ in range(10):
        p = rng.choice([2, 5])
        M = random_matrix(rng, 5, 6, p)
        a = rref(M)
        b = rref(Mat(M.tolist(), p))
        assert a.R == b.R and a.pivots == b.pivots and a.T == b.T
        assert kernel(M) == kernel(Mat(M.tolist(), p))


def test_inverse_round_trip():
    rng = random.Random(5)
    from conftest import random_invertible

    for p in (2, 3, 7):
        U = random_invertible(rng, 4, p)
        assert U @ inverse(U) == Mat.identity(4, p)


def test_matmul_large_modulus_no_overflow():
    p = 2147483629
    a = Mat([[p - 1] * 300], p)
    b = Mat([[p - 1]] * 300, p)
    # Exact value: 300 * (p-1)^2 mod p == 300 mod p.
    assert (a @ b).tolist() == [[300]]


# --- reference oracle for the blocked elimination ---------------------------


def _oracle_rref(arr, p):
    """The plain unblocked Gauss-Jordan loop, with T tracked alongside R."""
    R = arr.copy()
    T = np.eye(R.shape[0], dtype=np.int64)
    pivots = []
    r = 0
    for c in range(R.shape[1]):
        if r == R.shape[0]:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        R[[r, i]] = R[[i, r]]
        T[[r, i]] = T[[i, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r] = (R[r] * inv) % p
        T[r] = (T[r] * inv) % p
        f = R[:, c].copy()
        f[r] = 0
        R = (R - np.outer(f, R[r])) % p
        T = (T - np.outer(f, T[r])) % p
        pivots.append(c)
        r += 1
    return R, tuple(pivots), T


def _oracle_kernel(arr, p):
    R, pivots, _ = _oracle_rref(arr, p)
    free = [c for c in range(arr.shape[1]) if c not in pivots]
    K = np.zeros((arr.shape[1], len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        K[fc, j] = 1
        for i, pc in enumerate(pivots):
            K[pc, j] = (-int(R[i, fc])) % p
    return K


def _oracle_solve(a, b, p):
    R, pivots, _ = _oracle_rref(np.hstack([a, b]), p)
    X = np.zeros((a.shape[1], b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        if c >= a.shape[1]:
            return None
        X[c] = R[i, a.shape[1] :]
    return X


def _low_rank(rng, rows, cols, p):
    """A random rows x cols matrix of random rank: a product through a
    random inner size, sparsely perturbed, with some columns copied from
    earlier ones and some zeroed, so pivots come with gaps."""
    k = int(rng.integers(0, min(rows, cols) + 1))
    M = _matmul(rng.integers(0, p, (rows, k)), rng.integers(0, p, (k, cols)), p)
    density = rng.choice([0.0, 0.002, 0.02])
    M = (M + (rng.random((rows, cols)) < density) * rng.integers(0, p, (rows, cols))) % p
    copied = rng.random(cols) < 0.1
    M[:, copied] = M[:, (rng.random(cols) * np.arange(cols)).astype(int)[copied]]
    M[:, rng.random(cols) < 0.15] = 0
    return M


# 700000001 and 1500000001 keep a panel's unreduced trailing product on
# int64 only for up to 9 and 2 pivots (2**62 // (p - 1)**2), and past
# that on 16-bit halves; up to 5 * _PANEL columns, a matrix spans up to
# five panels.
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=3 * _PANEL),
    st.integers(min_value=0, max_value=5 * _PANEL),
    st.sampled_from([2, 3, 5, 32749, 700000001, 1500000001, 2147483629]),
    st.integers(min_value=0, max_value=2**30),
)
# Full rank over more than three panels, at those primes.
@example(150, 5 * _PANEL, 700000001, 2)
@example(3 * _PANEL, 4 * _PANEL + 7, 1500000001, 1)
def test_kernels_match_unblocked_oracle(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    arr = _low_rank(rng, rows, cols, p)
    M = Mat(arr, p)
    R, pivots, T = _oracle_rref(arr, p)
    rr = rref(M)
    assert rr.pivots == pivots
    assert np.array_equal(rr.R.arr, R) and np.array_equal(rr.T.arr, T)
    lean = rref(M, transform=False)
    assert lean.T is None and lean.pivots == pivots and np.array_equal(lean.R.arr, R)
    assert np.array_equal(kernel(M).arr, _oracle_kernel(arr, p))
    C, section = cokernel(M)
    assert np.array_equal(C.arr, T[len(pivots) :])
    assert np.array_equal(section.arr, _oracle_solve(C.arr, np.eye(C.rows, dtype=np.int64), p))
    # One solvable right-hand side (from the column space) and one random.
    for b in (_matmul(arr, rng.integers(0, p, (cols, 3)), p), rng.integers(0, p, (rows, 2))):
        X = solve_or_none(M, Mat(b, p))
        want = _oracle_solve(arr, b, p)
        assert (X is None) == (want is None)
        assert want is None or np.array_equal(X.arr, want)
    square = _low_rank(rng, rows, rows, p) if seed % 2 else rng.integers(0, p, (rows, rows))
    _, piv_s, Ts = _oracle_rref(square, p)
    if len(piv_s) == rows:
        assert np.array_equal(inverse(Mat(square, p)).arr, Ts)
    else:
        with pytest.raises(NoSolutionError):
            inverse(Mat(square, p))


@pytest.mark.parametrize("p", [2, 2147483629])
def test_degenerate_shapes_match_oracle(p):
    # Every shape with a zero or small dimension, against the unblocked
    # oracle: these take the zero-size exits, which random shapes reach
    # only by chance.
    rng = np.random.default_rng(p)
    for rows, cols in itertools.product((0, 1, 3), repeat=2):
        for arr in (np.zeros((rows, cols), dtype=np.int64), rng.integers(1, p, (rows, cols))):
            M = Mat(arr, p)
            R, pivots, T = _oracle_rref(arr, p)
            rr = rref(M)
            assert rr.pivots == pivots and rr.R.shape == (rows, cols) and rr.T.shape == (rows, rows)
            assert np.array_equal(rr.R.arr, R) and np.array_equal(rr.T.arr, T)
            lean = rref(M, transform=False)
            assert lean.T is None and lean.pivots == pivots and np.array_equal(lean.R.arr, R)
            K = kernel(M)
            assert K.shape == (cols, cols - len(pivots)) and np.array_equal(K.arr, _oracle_kernel(arr, p))
            C, section = cokernel(M)
            assert C.shape == (rows - len(pivots), rows) and np.array_equal(C.arr, T[len(pivots) :])
            want = _oracle_solve(C.arr, np.eye(C.rows, dtype=np.int64), p)
            assert section.shape == want.shape and np.array_equal(section.arr, want)
            for width in (0, 1, 3):
                b = _matmul(arr, rng.integers(0, p, (cols, width)), p)
                X = solve_or_none(M, Mat(b, p))
                assert X.shape == (cols, width) and np.array_equal(X.arr, _oracle_solve(arr, b, p))
                other = rng.integers(0, p, (cols, width))
                prod = M @ Mat(other, p)
                exact = (arr.astype(object) @ other.astype(object)) % p if cols else np.zeros((rows, width))
                assert prod.shape == (rows, width) and np.array_equal(prod.arr, exact.astype(np.int64))
        if rows:
            # No unknowns: only a zero right-hand side is reached.
            empty = Mat.zeros(rows, 0, p)
            b = rng.integers(1, p, (rows, cols))
            assert (solve_or_none(empty, Mat(b, p)) is None) == (_oracle_solve(empty.arr, b, p) is None) == bool(cols)
    assert inverse(Mat.zeros(0, 0, p)).shape == (0, 0)


def test_zeros_and_identities_are_shared_and_read_only():
    for p in (2, 5):
        Z, I = Mat.zeros(2, 3, p), Mat.identity(3, p)
        assert Z is Mat.zeros(2, 3, p) and I is Mat.identity(3, p)
        assert Z.is_zero() and Z.shape == (2, 3) and np.array_equal(I.arr, np.eye(3, dtype=np.int64)) and I.p == p
        for shared in (Z, I, Mat.zeros(0, 4, p)):
            with pytest.raises(ValueError):
                shared.arr[:, :1] = 1
    with pytest.raises(ValueError):
        Mat.zeros(1, 1, 4)


def test_field_mismatch_error():
    with pytest.raises(FieldMismatchError):
        Mat([[1]], 2) + Mat([[1]], 3)


def test_block_diag_checks_the_field_of_its_blocks():
    with pytest.raises(FieldMismatchError):
        Mat.block_diag([Mat([[1]], 2), Mat([[2]], 3)], 2)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 32749, 1073741789, 1500000001, 2147483629]),
    m=st.integers(0, 40),
    inner=st.integers(0, 70),
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_exact_integers(p, m, inner, n, seed):
    # Every route of _matmul, including the 16-bit halves above p ~ 1.5e9,
    # against Python integers; extreme residues stress the bounds.
    rng = np.random.default_rng(seed)
    a = rng.choice([0, 1, p - 1, int(rng.integers(0, p))], size=(m, inner)).astype(np.int64)
    b = rng.integers(0, p, (inner, n))
    b[rng.random((inner, n)) < 0.5] = p - 1
    exact = (a.astype(object) @ b.astype(object)) % p if inner else np.zeros((m, n), dtype=object)
    assert np.array_equal(_matmul(a, b, p), exact.astype(np.int64))


# --- results read off the canonical forms, against the eliminations -----------
#
# Each identity below replaces a `solve` or a product on the pipeline's
# path; each test compares one with the other over the same inputs.

_PRIMES = st.sampled_from([2, 3, 5, 32749])


def _random_rank(rng: random.Random, rows: int, cols: int, p: int) -> Mat:
    """A random rows x cols matrix of random rank, through a random inner
    size, so kernels and column spaces of every size come up."""
    k = rng.randint(0, min(rows, cols))
    return random_matrix(rng, rows, k, p) @ random_matrix(rng, k, cols, p)


@settings(max_examples=150, deadline=None)
@given(_PRIMES, st.integers(min_value=0, max_value=2**32))
def test_coordinates_in_canonical_bases_equal_solve(p, seed):
    # A kernel basis has its unit rows at the free variables, which come
    # after the nonzero pivot entries of their columns; a column space
    # basis has them at its pivots.
    rng = random.Random(seed)
    M = _random_rank(rng, rng.randint(0, 7), rng.randint(0, 7), p)
    for B in (kernel(M), column_space_basis(M)):
        T = B @ random_matrix(rng, B.cols, rng.randint(0, 3), p)
        assert coordinates(B, T) == solve(B, T)


@settings(max_examples=150, deadline=None)
@given(_PRIMES, st.integers(min_value=0, max_value=2**32))
def test_coordinates_in_any_basis_are_exact_or_raise(p, seed):
    # Any unit row gives the right coordinates; a basis that lacks one for
    # some column raises instead of returning rows that are not X.
    rng = random.Random(seed)
    M = _random_rank(rng, rng.randint(1, 7), rng.randint(1, 7), p)
    B = rng.choice([kernel, column_space_basis])(M)
    if rng.random() < 0.7:
        B = B @ random_invertible(rng, B.cols, p)
    X = random_matrix(rng, B.cols, rng.randint(1, 3), p)
    has_unit_row = [any(B.arr[i, j] == 1 and B.arr[i].sum() == 1 for i in range(B.rows)) for j in range(B.cols)]
    if all(has_unit_row):
        assert coordinates(B, B @ X) == X
    else:
        with pytest.raises(ValueError):
            coordinates(B, B @ X)


def test_coordinates_raise_without_a_unit_row():
    # Column 0 of each has no row e_0^T.
    for B in (Mat([[2], [3]], 5), Mat([[1, 1], [0, 1]], 3), Mat([[1, 1], [0, 1], [1, 2]], 3)):
        with pytest.raises(ValueError):
            coordinates(B, B @ Mat.identity(B.cols, B.p))


@settings(max_examples=150, deadline=None)
@given(_PRIMES, st.integers(min_value=0, max_value=2**32))
def test_cokernel_section_lifts_every_target(p, seed):
    # Eliminating [C | T] applies to T the row operations that [C | I]
    # applies to I, and C is onto, so the canonical solution is S T.
    rng = random.Random(seed)
    M = _random_rank(rng, rng.randint(0, 7), rng.randint(0, 7), p)
    C, S = cokernel(M)
    T = random_matrix(rng, C.rows, rng.randint(0, 4), p)
    assert solve(C, T) == S @ T


@settings(max_examples=100, deadline=None)
@given(_PRIMES, st.integers(0, 6), st.integers(0, 6), st.integers(min_value=0, max_value=2**32))
def test_identity_products_return_the_other_operand(p, rows, cols, seed):
    rng = random.Random(seed)
    A = random_matrix(rng, rows, cols, p)
    left, right = Mat.identity(rows, p), Mat.identity(cols, p)
    assert left @ A is A and A @ right is A
    product = Mat._wrap(_matmul(left.arr, A.arr, p), p)
    assert product == A == A @ Mat(np.eye(cols, dtype=np.int64), p)
