"""Hom spaces, endomorphism rings, indecomposability certificates, and the
gluing criteria for extending indecomposables across poset unions.

Everything here accepts either vector-space functors or chain functors;
a vector-space functor is treated as a chain functor concentrated in
degree 0.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadCoverError,
    BudgetExceededError,
    NotIdempotentError,
    TooLargeError,
    ZeroObjectError,
)
from .field import Mat, _matmul, _null_basis, coordinates, kernel, kernel_basis, rref
from .functors import (
    NatMap,
    VectFunctor,
    _spanned_by,
    _subfunctor_from_bases,
    column_space_basis,
    minimal_cover,
    radical,
)
from .chains import ChainFunctor, ChainMap, _block_offsets, _chain_quotient, _subcomplex
from .posets import _counts

__all__ = [
    "hom_space",
    "EndRing",
    "end_ring",
    "IndecResult",
    "indecomposable",
    "split_by_idempotent",
    "GluingReport",
    "gluing_check",
]

Functorlike = Union[VectFunctor, ChainFunctor]


def as_chain(obj: Functorlike) -> ChainFunctor:
    return obj if isinstance(obj, ChainFunctor) else ChainFunctor((obj,), ())


# Hom between vector-space functors goes through the kept minimal cover
# (`_yoneda_kernel`) from this many unknowns of the direct system on;
# below it, forming the cover, its kernels and its sections costs more
# than the whole direct system.  On 400 random cokernel-presented pairs
# (2-7 elements, covers formed anew, 2 CPUs), the direct route took
# 0.05 ms and Yoneda 0.23 ms below 16 unknowns, 0.76 and 1.09 ms at 48-63,
# 1.79 and 1.49 ms at 64-79, and 7.2 and 5.9 ms from 160 on.  Lower, the
# hom calls of gluing checks (at most 51 unknowns) would change route.
_YONEDA_MIN_UNKNOWNS = 64


# A hom system with more cells than this is an input error, raised before
# it is allocated: equations x unknowns on the direct route, and (equations
# + components) x generator values through the cover, which also holds the
# map back to components.  At the bound, on 2 CPUs, `endring --machine`
# takes 3.0 s and 420 MB on one element of dim 56 (a (0 + 3,136) x 3,136
# system, printing 20 MB) and 3.3 s and 474 MB on a point complex with dims
# 47 and 47 (2,209 x 4,418, direct); twice the bound takes 820 MB.
MAX_HOM_CELLS = 10_000_000


def _too_large(X: Functorlike, Y: Functorlike, shape: str, cells: int) -> TooLargeError:
    return TooLargeError(
        f"the hom system between objects of total dimension {X.total_dim():,} and {Y.total_dim():,} "
        f"has shape {shape} ({cells:,} cells), above the bound {MAX_HOM_CELLS:,}"
    )


def _hom_kernel(X: ChainFunctor, Y: ChainFunctor) -> Mat:
    """Canonical kernel basis, as columns in `ChainMap.to_vec` coordinates,
    of the linear system of naturality and chain-square constraints on the
    components of a map X -> Y."""
    offs = _block_offsets(X, Y)
    nvars = sum(r * c for row in offs for _, r, c in row)
    if X.top == Y.top == 0 and nvars >= _YONEDA_MIN_UNKNOWNS:
        return _yoneda_kernel(X.layers[0], Y.layers[0], offs, nvars)
    return _direct_kernel(X, Y, offs, nvars)


def _direct_kernel(X: ChainFunctor, Y: ChainFunctor, offs, nvars: int) -> Mat:
    """`_hom_kernel` by one system whose unknowns are the components."""
    p = X.p
    D = max(X.top, Y.top)
    maps = [(Y.layer(n).maps, X.layer(n).maps) for n in range(D + 1)]
    bounds = [(Y.boundary(n).comps, X.boundary(n).comps) for n in range(1, D + 1)]
    # (left, a, b, right): left @ M_a - M_b @ right = 0.
    constraints = [
        (yd[q], offs[q][n], offs[q][n - 1], xd[q])
        for q in range(X.poset.n)
        for n, (yd, xd) in enumerate(bounds, 1)
    ] + [
        (ym[y, x], offs[y][n], offs[x][n], xm[y, x])
        for (y, x) in X.poset.covers
        for n, (ym, xm) in enumerate(maps)
    ]
    eqs = sum(left.rows * a[2] for left, a, _, _ in constraints)
    if eqs * nvars > MAX_HOM_CELLS:
        raise _too_large(X, Y, f"{eqs:,} x {nvars:,}", eqs * nvars)
    system = np.zeros((eqs, nvars), dtype=np.int64)
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of a and b (as `np.kron`, in one product)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _yoneda_kernel(X: VectFunctor, Y: VectFunctor, offs, nvars: int) -> Mat:
    """`_hom_kernel` for vector-space functors, through the kept minimal
    cover s: P -> X.

    By Yoneda a map P -> Y is its generators' values, a dim Y(z) x d
    matrix V_z per generator block (z, d), and its component at q is
    psi_q = sum over z <= q of Y(z <= q) V_z on z's coordinates of P(q).
    It factors as phi s exactly when psi_q ker(s_q) = 0 at every q, since
    every s_q is onto; then phi_q = psi_q sigma_q for any section sigma_q
    of s_q.  One `rref` of s_q gives both.  A vector P(w <= q) k with k in
    ker(s_w) is sent to Y(w <= q) psi_w k, which the equations at w already
    make zero, so at q only the vectors of ker(s_q) outside the images from
    the lower covers w of q are imposed: the generators of ker s, the
    relations of X.  Row-major, A V B has the coordinates kron(A, B^T)
    vec(V).  The basis so found spans the same space as the direct
    system's kernel, and `kernel_basis` turns it into that kernel's
    canonical basis.
    """
    p = X.p
    cov = minimal_cover(X)
    gens = cov.generators
    leq = X.poset.leq_matrix
    starts = np.cumsum([0] + [Y.dims[z] * d for z, d in gens]).tolist()
    # ker(s_q) has dim P(q) - X(q), as s_q is onto; its relations are fewer.
    eqs = sum(r * (P - d) for r, P, d in zip(Y.dims, cov.P.dims, X.dims))
    if (eqs + nvars) * starts[-1] > MAX_HOM_CELLS:
        raise _too_large(X, Y, f"({eqs:,} + {nvars:,}) x {starts[-1]:,}", (eqs + nvars) * starts[-1])
    rrs = [rref(m) for m in cov.s.comps]
    nulls = [_null_basis(rr.R.arr, rr.pivots, p) for rr in rrs]
    relations = [_relations_at(cov.P, nulls, q) for q in range(X.poset.n)]
    system = np.zeros((sum(r * k.shape[1] for r, k in zip(Y.dims, relations)), starts[-1]), dtype=np.int64)
    comps = np.zeros((nvars, starts[-1]), dtype=np.int64)
    at = 0
    for q, (rr, rel) in enumerate(zip(rrs, relations)):
        section = np.zeros((rr.R.cols, rr.R.rows), dtype=np.int64)
        section[list(rr.pivots)] = rr.T.arr
        eq = slice(at, at + Y.dims[q] * rel.shape[1])
        o, r, c = offs[q][0]
        a = 0
        for i, (z, d) in enumerate(gens):
            if not leq[z, q]:
                continue
            A = Y.map_leq(z, q).arr
            cols = slice(starts[i], starts[i + 1])
            system[eq, cols] = _kron(A, rel[a : a + d].T) % p
            comps[o : o + r * c, cols] = _kron(A, section[a : a + d].T) % p
            a += d
        at = eq.stop
    solutions = kernel(Mat._wrap(system, p))
    return kernel_basis(Mat._wrap(_matmul(comps, solutions.arr, p), p))


def _relations_at(P: VectFunctor, nulls: list[np.ndarray], q: int) -> np.ndarray:
    """The columns of nulls[q], a basis of ker(s_q) in P(q), that lie
    outside the span of the images P(w <= q) nulls[w] from the lower covers
    w of q (and of the columns before them): the pivots past the images in
    one `rref` of the images and nulls[q] side by side."""
    null = nulls[q]
    images = [P.maps[(w, q)].arr @ nulls[w] for w in P.poset.covered_by(q) if nulls[w].shape[1]]
    if not (images and null.shape[1]):
        return null
    below = np.hstack(images)
    m = below.shape[1]
    pivots = rref(Mat._wrap(np.hstack([below, null]), P.p), transform=False).pivots
    return null[:, [c - m for c in pivots if c >= m]]


def hom_space(Xobj: Functorlike, Yobj: Functorlike) -> list[ChainMap]:
    """Canonical basis of all natural chain maps X -> Y.

    The naturality and chain-square constraints form one linear system
    whose canonical kernel basis is returned, one chain map per vector
    (between large vector-space functors, found through X's minimal cover
    and brought to that basis).
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
    C = _structure_constants(ring)
    for i, coeffs in enumerate(itertools.product(range(p), repeat=ring.dim)):
        a = np.array(coeffs, dtype=np.int64)
        square = np.einsum("i,j,ijk->k", a, a, C) % p
        if np.array_equal(square, a):
            yield i, coeffs


@dataclass(frozen=True)
class IndecResult:
    indecomposable: bool
    witness: Optional[ChainMap]
    trials: int
    end_dim: int


def indecomposable(obj: Functorlike, strategy: str = "exhaustive", budget: Optional[int] = None) -> IndecResult:
    """Indecomposability test.

    "exhaustive", the one strategy, enumerates the full endomorphism ring
    (allowed when p**dim(End) <= budget, default 2**20) and is complete:
    it returns a non-trivial idempotent witness or a certified positive;
    `trials` counts the nonzero endomorphisms visited.
    """
    if strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}")
    X = as_chain(obj)
    if X.is_zero():
        raise ZeroObjectError("indecomposability is undefined for the zero object")
    ring = end_ring(X)
    found = _idempotents(ring, 1 << 20 if budget is None else budget)
    ident = tuple(int(v) for v in ChainMap.identity(X).to_vec()[ring._free])
    for position, coeffs in found:
        if position and coeffs != ident:
            return IndecResult(False, ring.element(coeffs), position, ring.dim)
    return IndecResult(True, None, X.p**ring.dim - 1, ring.dim)


def _image_split(X: ChainFunctor, f: ChainMap) -> tuple[ChainFunctor, ChainMap, ChainMap]:
    """The image of an idempotent f with its inclusion and retraction."""
    incls = [
        _subfunctor_from_bases(F, [column_space_basis(m) for m in f.nats[n].comps])[1]
        for n, F in enumerate(X.layers)
    ]
    sub, incl = _subcomplex(X, incls)
    retr = tuple(
        NatMap._trusted(F, sub.layers[n], tuple(map(coordinates, incls[n].comps, f.nats[n].comps)))
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
    coker, _ = _chain_quotient(XB, [_spanned_by(F, below) for F in XB.layers])
    hom_full = _hom_kernel(coker, XB).cols
    radB, _ = chain_radical(XB)
    hom_rad = _hom_kernel(coker, radB).cols
    ring = end_ring(XB)
    restriction_kernel = _restriction_kernel(ring, ab_in_b)
    return GluingReport(
        beta_cokernel_dims=tuple(zip(*(coker.layer(n).dims for n in range(max(coker.top, X.top) + 1)))),
        crit_hom_zero=hom_full == 0,
        crit_rad_iso=hom_rad == hom_full,
        crit_kernel_nilpotent=_ideal_is_nilpotent(restriction_kernel, ring),
        crit_restriction_injective=restriction_kernel.cols == 0,
        hom_coker_dim=hom_full,
        hom_coker_rad_dim=hom_rad,
        restriction_kernel_dim=restriction_kernel.cols,
        # The Kan extension restricts to X on A n B and vanishes where X does.
        kan_nonzero_degrees=tuple(n for n, F in enumerate(XB.layers) if any(F.dims[d] for d in ab_in_b)),
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
