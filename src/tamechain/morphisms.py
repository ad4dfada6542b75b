"""Hom spaces, endomorphism rings, indecomposability certificates, and the
gluing criteria for extending indecomposables across poset unions.

Everything here accepts either vector-space functors or chain functors;
a vector-space functor is treated as a chain functor concentrated in
degree 0.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadCoverError,
    BudgetExceededError,
    NotIdempotentError,
    ZeroObjectError,
)
from .field import Mat, _matmul, inverse, kernel, rref, solve, solve_or_none
from .functors import NatMap, VectFunctor, _spanned_by, _subfunctor_from_bases, column_space_basis, radical
from .chains import ChainFunctor, ChainMap, _block_offsets, _subcomplex, chain_coker
from .posets import _counts

__all__ = [
    "hom_space",
    "EndRing",
    "end_ring",
    "IndecResult",
    "indecomposable",
    "split_by_idempotent",
    "fitting_idempotent",
    "GluingReport",
    "gluing_check",
    "total_dim",
]

Functorlike = Union[VectFunctor, ChainFunctor]
Maplike = Union[NatMap, ChainMap]


def as_chain(obj: Functorlike) -> ChainFunctor:
    return obj if isinstance(obj, ChainFunctor) else ChainFunctor((obj,), ())


def total_dim(obj: Functorlike) -> int:
    return as_chain(obj).total_dim()


def _hom_kernel(X: ChainFunctor, Y: ChainFunctor) -> Mat:
    """Canonical kernel basis, as columns in `ChainMap.to_vec` coordinates,
    of the linear system of naturality and chain-square constraints on the
    components of a map X -> Y."""
    p = X.p
    D = max(X.top, Y.top)
    offs = _block_offsets(X, Y)
    nvars = sum(r * c for row in offs for _, r, c in row)
    # (left, a, b, right): left @ M_a - M_b @ right = 0.
    constraints = [
        (Y.boundary_at(q, n), offs[q][n], offs[q][n - 1], X.boundary_at(q, n))
        for q in range(X.poset.n)
        for n in range(1, D + 1)
    ] + [
        (Y.map_at((y, x), n), offs[y][n], offs[x][n], X.map_at((y, x), n))
        for (y, x) in X.poset.covers
        for n in range(D + 1)
    ]
    system = np.zeros((sum(left.rows * a[2] for left, a, _, _ in constraints), nvars), dtype=np.int64)
    at = 0
    for left, (oa, ra, ca), (ob, rb, cb), right in constraints:
        # Row-major vectorization: equation (i, k) of the rb x ca entries
        # has left[i, l] on M_a[l, k] and -right[j, k] on M_b[i, j].
        i = np.arange(rb)[:, None, None]
        k = np.arange(ca)
        eq = at + i * ca + k
        system[eq, oa + np.arange(ra)[:, None] * ca + k] = left.arr[:, :, None]
        system[eq, ob + i * cb + np.arange(cb)[:, None]] = (-right.arr) % p
        at += rb * ca
    return kernel(Mat._wrap(system, p))


def hom_space(Xobj: Functorlike, Yobj: Functorlike) -> list[ChainMap]:
    """Canonical basis of all natural chain maps X -> Y.

    The naturality and chain-square constraints form one linear system
    whose canonical kernel basis is returned, one chain map per vector.
    """
    X, Y = as_chain(Xobj), as_chain(Yobj)
    K = _hom_kernel(X, Y)
    return [ChainMap.from_vec(X, Y, K.arr[:, j]) for j in range(K.cols)]


@dataclass(frozen=True)
class EndRing:
    """All natural chain endomorphisms of obj, closed under composition.

    `columns` holds the canonical basis of `hom_space(obj, obj)` as columns
    in `ChainMap.to_vec` coordinates; the ring works in the coordinates of
    that basis and builds chain maps only on request.
    """

    obj: ChainFunctor
    columns: Mat

    @property
    def dim(self) -> int:
        return self.columns.cols

    @functools.cached_property
    def basis(self) -> tuple[ChainMap, ...]:
        return tuple(ChainMap.from_vec(self.obj, self.obj, self.columns.arr[:, j]) for j in range(self.dim))

    @functools.cached_property
    def blocks(self) -> list[list[tuple[int, int, int]]]:
        """(offset, rows, cols) of the component at each element and degree
        in the rows of `columns`."""
        return _block_offsets(self.obj, self.obj)

    @functools.cached_property
    def _free(self) -> np.ndarray:
        """The row of each basis column's free variable.  A canonical kernel
        column is 1 there, 0 at the other free variables and nonzero only at
        pivots left of it, so its last nonzero entry is its free variable,
        and the coordinates of an endomorphism are its entries at these rows."""
        K = self.columns.arr
        return np.array([np.flatnonzero(K[:, j])[-1] for j in range(self.dim)], dtype=np.intp)

    def element(self, coeffs: Sequence[int]) -> ChainMap:
        """The endomorphism with the given coordinates in the basis."""
        column = Mat(np.asarray(coeffs, dtype=np.int64).reshape(-1, 1), self.obj.p)
        return ChainMap.from_vec(self.obj, self.obj, (self.columns @ column).arr[:, 0])

    def coordinates_of(self, phi: ChainMap) -> Optional[Mat]:
        if not self.dim:
            return None
        return solve_or_none(self.columns, Mat(phi.to_vec().reshape(-1, 1), self.obj.p))

    def contains(self, phi: ChainMap) -> bool:
        return self.coordinates_of(phi) is not None


def end_ring(obj: Functorlike) -> EndRing:
    X = as_chain(obj)
    return EndRing(X, _hom_kernel(X, X))


def _structure_constants(ring: EndRing) -> np.ndarray:
    """C[i, j] = coordinates of basis[i] . basis[j].

    Per (element, degree) block that holds free variables, one product of
    the basis components stacked as a (dim * r, r) matrix with the same
    components side by side as an (r, dim * r) one forms every basis
    product there; the coordinates are its entries at the free variables.
    """
    dim, p = ring.dim, ring.obj.p
    K, free = ring.columns.arr, ring._free
    C = np.zeros((dim, dim, dim), dtype=np.int64)
    for o, r, _ in itertools.chain.from_iterable(ring.blocks):
        ks = np.flatnonzero((free >= o) & (free < o + r * r))
        if not ks.size:
            continue
        comps = K[o : o + r * r].T.reshape(dim, r, r)
        P = _matmul(comps.reshape(dim * r, r), comps.transpose(1, 0, 2).reshape(r, dim * r), p)
        a, b = np.divmod(free[ks] - o, r)
        # P[i * r + a, j * r + b] is entry (a, b) of basis[i] . basis[j].
        C[:, :, ks] = P.reshape(dim, r, dim, r)[:, a, :, b].transpose(1, 2, 0)
    return C


def _idempotents(ring: EndRing, budget: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(position, coordinates) of every idempotent of the endomorphism
    ring, in the canonical enumeration order of all coordinate vectors;
    position 0 is the zero vector."""
    p = ring.obj.p
    if p**ring.dim > budget:
        raise BudgetExceededError(
            f"enumerating {p}**{ring.dim} endomorphisms exceeds the budget {budget}"
        )
    if ring.dim == 0:
        yield 0, ()
        return
    C = _structure_constants(ring)
    for i, coeffs in enumerate(itertools.product(range(p), repeat=ring.dim)):
        a = np.array(coeffs, dtype=np.int64)
        square = np.einsum("i,j,ijk->k", a, a, C) % p
        if np.array_equal(square, a):
            yield i, coeffs


def _power(m: Mat, n: int) -> Mat:
    """m**n for n >= 1, by repeated squaring."""
    result = None
    while True:
        if n & 1:
            result = m if result is None else result @ m
        n >>= 1
        if not n:
            return result
        m = m @ m


def _fitting_candidates(ring: EndRing, rng: random.Random, draws: int) -> Iterator[ChainMap]:
    """The endomorphisms the "fitting" strategy tries, in order, formed
    one at a time: the basis, its pairwise products, then `draws` random
    elements, skipping the zero ones."""
    yield from ring.basis
    for a in ring.basis:
        for b in ring.basis:
            yield a @ b
    for _ in range(draws):
        coeffs = [rng.randrange(ring.obj.p) for _ in range(ring.dim)]
        if any(coeffs):
            yield ring.element(coeffs)


@dataclass(frozen=True)
class IndecResult:
    indecomposable: bool
    certain: bool
    witness: Optional[ChainMap]
    trials: int
    end_dim: int


def indecomposable(
    obj: Functorlike,
    strategy: str = "exhaustive",
    budget: Optional[int] = None,
    seed: int = 0,
) -> IndecResult:
    """Indecomposability test.

    "exhaustive" enumerates the full endomorphism ring (allowed when
    p**dim(End) <= budget, default 2**20) and is complete: it returns a
    non-trivial idempotent witness or a certified positive; `trials`
    counts the nonzero endomorphisms visited.  "fitting" raises basis
    elements, their pairwise products, and `budget` (default 32) random
    endomorphisms to the total-dimension power; a split detected this
    way is certain, while silence is only probabilistic.
    """
    X = as_chain(obj)
    if X.is_zero():
        raise ZeroObjectError("indecomposability is undefined for the zero object")
    ring = end_ring(X)
    p = X.p
    if strategy == "exhaustive":
        found = _idempotents(ring, 1 << 20 if budget is None else budget)
        ident = tuple(int(v) for v in ChainMap.identity(X).to_vec()[ring._free])
        for position, coeffs in found:
            if position and coeffs != ident:
                return IndecResult(False, True, ring.element(coeffs), position, ring.dim)
        return IndecResult(True, True, None, p**ring.dim - 1, ring.dim)
    if strategy == "fitting":
        N = X.total_dim()
        trials = 0
        for phi in _fitting_candidates(ring, random.Random(seed), 32 if budget is None else budget):
            trials += 1
            r = sum(_power(m, max(1, N)).rank() for nat in phi.nats for m in nat.comps)
            if 0 < r < N:
                return IndecResult(False, True, phi, trials, ring.dim)
        return IndecResult(True, False, None, trials, ring.dim)
    raise ValueError(f"unknown strategy {strategy!r}")


def _image_split(X: ChainFunctor, f: ChainMap) -> tuple[ChainFunctor, ChainMap, ChainMap]:
    """The image of an idempotent f with its inclusion and retraction."""
    incls = [
        _subfunctor_from_bases(F, [column_space_basis(m) for m in f.nats[n].comps])[1]
        for n, F in enumerate(X.layers)
    ]
    sub, incl = _subcomplex(X, incls)
    retr = tuple(
        NatMap._trusted(F, sub.layers[n], tuple(solve(b, m) for b, m in zip(incls[n].comps, f.nats[n].comps)))
        for n, F in enumerate(X.layers)
    )
    return sub, incl, ChainMap._trusted(X, sub, retr)


def split_by_idempotent(obj: Functorlike, e: ChainMap):
    """X ~ im(e) (+) im(id - e) with inclusion/retraction witnesses."""
    X = as_chain(obj)
    if not ((e @ e) == e):
        raise NotIdempotentError("supplied endomorphism is not idempotent")
    compl = ChainMap.from_vec(X, X, (ChainMap.identity(X).to_vec() - e.to_vec()) % X.p)
    (x1, i1, r1), (x2, i2, r2) = _image_split(X, e), _image_split(X, compl)
    return x1, x2, (i1, r1, i2, r2)


def fitting_idempotent(obj: Functorlike, phi: ChainMap) -> ChainMap:
    """Projection onto im(phi^N) along ker(phi^N), N the total dimension."""
    X = as_chain(obj)
    N = max(1, X.total_dim())
    nats = []
    for n, F in enumerate(X.layers):
        comps = []
        for m in phi.nats[n].comps:
            m = _power(m, N)
            V = column_space_basis(m)
            K = kernel(m)
            U = Mat.hstack([V, K])
            P = inverse(U)
            comps.append(V @ P.take_rows(range(V.cols)))
        nats.append(NatMap._trusted(F, F, tuple(comps)))
    return ChainMap._trusted(X, X, tuple(nats))


# --- gluing -------------------------------------------------------------------


@dataclass(frozen=True)
class GluingReport:
    beta_cokernel_dims: tuple[tuple[int, ...], ...]
    crit_hom_zero: bool
    crit_rad_iso: bool
    crit_kernel_nilpotent: bool
    crit_restriction_injective: bool
    hom_coker_dim: int
    hom_coker_rad_dim: int
    restriction_kernel_dim: int
    kan_nonzero_degrees: tuple[int, ...]


def chain_radical(X: ChainFunctor) -> tuple[ChainFunctor, ChainMap]:
    """Degreewise radical: images of all maps from strictly smaller elements."""
    return _subcomplex(X, [radical(F)[1] for F in X.layers])


def _restriction_kernel(ring: EndRing, elements: Sequence[int]) -> Mat:
    """End coordinates, as columns, of a basis of the endomorphisms that
    vanish on the given elements."""
    rows = [i for q in elements for o, r, c in ring.blocks[q] for i in range(o, o + r * c)]
    return kernel(Mat._wrap(ring.columns.arr[rows], ring.obj.p))


def gluing_check(obj: Functorlike, a_names: Sequence[str], b_names: Sequence[str]) -> GluingReport:
    """Evaluate the gluing criteria for X on D = A u B.

    A and B are read as sets of element names.  The comparison beta from
    the Kan extension (inside B) of the restriction to A n B into X_B has
    at each q the image spanned by the maps X(d <= q) for the d in A n B
    below q, since every cocone leg composes with beta to such a map.  So
    coker beta is computed as X_B modulo that subcomplex, without forming
    the Kan extension; the report holds only its dimensions and Hom
    dimensions out of it, which no choice of basis changes.  The four
    criteria: hom(coker beta, X_B) = 0; the radical inclusion inducing an
    isomorphism on hom(coker beta, -); nilpotency of the kernel of
    End(X_B) -> End(X_{AnB}); injectivity of that restriction.
    """
    X = as_chain(obj)
    poset = X.poset
    in_a = np.zeros(poset.n, dtype=bool)
    in_b = np.zeros(poset.n, dtype=bool)
    in_a[[poset.index(n) for n in a_names]] = True
    in_b[[poset.index(n) for n in b_names]] = True
    if not (in_a | in_b).all():
        raise BadCoverError("the two subposets must cover the indexing poset")
    leq = poset.leq_matrix
    inter = in_a & in_b
    # u <= v across the sides must factor as u <= d <= v with d in A n B.
    factors = _counts(leq[:, inter], leq[inter]) > 0
    one_side = (in_a[:, None] & in_a) | (in_b[:, None] & in_b)
    if (leq & ~one_side & ~factors).any():
        raise BadCoverError(
            "relations crossing between the two subposets must factor through their intersection"
        )
    b_idx = np.flatnonzero(in_b).tolist()
    XB = X.restrict(b_idx)
    ab_in_b = np.flatnonzero(inter[b_idx]).tolist()
    below = [[d for d in ab_in_b if XB.poset.leq(d, q)] for q in range(XB.poset.n)]
    _, beta_image = _subcomplex(XB, [_spanned_by(F, below)[1] for F in XB.layers])
    coker, _ = chain_coker(beta_image)
    hom_full = _hom_kernel(coker, XB).cols
    radB, _ = chain_radical(XB)
    hom_rad = _hom_kernel(coker, radB).cols
    ring = end_ring(XB)
    restriction_kernel = _restriction_kernel(ring, ab_in_b)
    return GluingReport(
        beta_cokernel_dims=tuple(
            tuple(coker.dim_at(q, n) for n in range(max(coker.top, X.top) + 1))
            for q in range(coker.poset.n)
        ),
        crit_hom_zero=hom_full == 0,
        crit_rad_iso=hom_rad == hom_full,
        crit_kernel_nilpotent=_ideal_is_nilpotent(restriction_kernel, ring),
        crit_restriction_injective=restriction_kernel.cols == 0,
        hom_coker_dim=hom_full,
        hom_coker_rad_dim=hom_rad,
        restriction_kernel_dim=restriction_kernel.cols,
        # The Kan extension restricts to X on A n B and vanishes where X does.
        kan_nonzero_degrees=tuple(n for n in range(XB.top + 1) if any(XB.dim_at(d, n) for d in ab_in_b)),
    )


def _ideal_is_nilpotent(ideal: Mat, ring: EndRing) -> bool:
    """Whether the powers of the span of ideal's columns, given in End
    coordinates, reach zero.  Products are formed in End coordinates
    through the structure constants, with `_matmul`, which is exact for
    every modulus."""
    if not ideal.cols:
        return True
    dim, p, m = ring.dim, ring.obj.p, ideal.cols
    C = _structure_constants(ring)
    # times[i, k * m + b] = coordinate k of basis[i] . (ideal column b).
    times = _matmul(C.transpose(0, 2, 1).reshape(dim * dim, dim), ideal.arr, p).reshape(dim, dim * m)
    power = ideal.arr.T
    for _ in range(max(1, dim)):
        prods = _matmul(power, times, p).reshape(len(power), dim, m).transpose(0, 2, 1).reshape(-1, dim)
        # Canonical basis of the span of the products: the nonzero rows of an rref.
        rr = rref(Mat._wrap(prods, p), transform=False)
        if not rr.rank:
            return True
        if rr.rank == len(power):
            # Descending chain stabilized at a nonzero ideal power.
            return False
        power = rr.R.arr[: rr.rank]
    return False
