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
from .field import Mat, inverse, kernel, rref, solve, solve_or_none
from .functors import NatMap, VectFunctor, _subfunctor_from_bases, column_space_basis, radical
from .chains import ChainFunctor, ChainMap, _subcomplex, chain_coker, kan_extend_chain, zero_chain

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


def _blocks(X: ChainFunctor, Y: ChainFunctor) -> list[tuple[int, int, int, int]]:
    """(element, degree, rows, cols) for the unknown component matrices."""
    D = max(X.top, Y.top)
    return [
        (q, n, Y.dim_at(q, n), X.dim_at(q, n))
        for q in range(X.poset.n)
        for n in range(D + 1)
    ]


def hom_space(Xobj: Functorlike, Yobj: Functorlike) -> list[ChainMap]:
    """Canonical basis of all natural chain maps X -> Y.

    The naturality and chain-square constraints form one linear system
    whose canonical kernel basis is returned, one chain map per vector.
    """
    X, Y = as_chain(Xobj), as_chain(Yobj)
    p = X.p
    D = max(X.top, Y.top)
    blocks = _blocks(X, Y)
    offs: dict[tuple[int, int], tuple[int, int, int]] = {}
    at = 0
    for q, n, r, c in blocks:
        offs[(q, n)] = (at, r, c)
        at += r * c
    nvars = at
    rows: list[np.ndarray] = []

    def add_constraint(left: Mat, a: tuple[int, int], b: tuple[int, int], right: Mat):
        # left @ M_a - M_b @ right = 0, row-major vectorization.
        oa, ra, ca = offs[a]
        ob, rb, cb = offs[b]
        block = np.zeros((left.rows * ca, nvars), dtype=np.int64)
        if ra * ca:
            block[:, oa : oa + ra * ca] = np.kron(left.arr, np.eye(ca, dtype=np.int64))
        if rb * cb:
            block[:, ob : ob + rb * cb] = (-np.kron(np.eye(rb, dtype=np.int64), right.arr.T)) % p
        if block.shape[0]:
            rows.append(block % p)

    for q in range(X.poset.n):
        for n in range(1, D + 1):
            add_constraint(Y.boundary_at(q, n), (q, n), (q, n - 1), X.boundary_at(q, n))
    for (y, x) in X.poset.covers:
        for n in range(D + 1):
            add_constraint(Y.map_at((y, x), n), (y, n), (x, n), X.map_at((y, x), n))

    if rows:
        system = Mat(np.vstack(rows), p)
    else:
        system = Mat.zeros(0, nvars, p)
    K = kernel(system)
    return [ChainMap.from_vec(X, Y, K.arr[:, j]) for j in range(K.cols)]


@dataclass(frozen=True)
class EndRing:
    """Basis of all natural chain endomorphisms; closed under composition."""

    obj: ChainFunctor
    basis: tuple[ChainMap, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def _columns(self) -> Mat:
        """The basis maps as columns of `ChainMap.to_vec` coordinates."""
        return Mat(np.stack([b.to_vec() for b in self.basis], axis=1), self.obj.p)

    def element(self, coeffs: Sequence[int]) -> ChainMap:
        """The endomorphism with the given coordinates in the basis."""
        column = Mat(np.asarray(coeffs, dtype=np.int64).reshape(-1, 1), self.obj.p)
        return ChainMap.from_vec(self.obj, self.obj, (self._columns @ column).arr[:, 0])

    def coordinates_of(self, phi: ChainMap) -> Optional[Mat]:
        if not self.basis:
            return None
        return solve_or_none(self._columns, Mat(phi.to_vec().reshape(-1, 1), self.obj.p))

    def contains(self, phi: ChainMap) -> bool:
        return self.coordinates_of(phi) is not None


def end_ring(obj: Functorlike) -> EndRing:
    X = as_chain(obj)
    return EndRing(X, tuple(hom_space(X, X)))


def _structure_constants(ring: EndRing) -> np.ndarray:
    """C[i, j] = coordinates of basis[i] . basis[j]."""
    dim = ring.dim
    p = ring.obj.p
    prods = [(a @ b).to_vec() for a in ring.basis for b in ring.basis]
    coords = solve(ring._columns, Mat(np.stack(prods, axis=1) % p, p))
    return coords.arr.T.reshape(dim, dim, dim)


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


def enumerate_idempotents(ring: EndRing, budget: int = 1 << 20) -> list[tuple[int, ...]]:
    """Coordinate vectors of all idempotents of the endomorphism ring,
    in canonical enumeration order (includes 0 and the identity)."""
    return [coeffs for _, coeffs in _idempotents(ring, budget)]


def _power(phi: ChainMap, n: int) -> ChainMap:
    result = None
    base = phi
    while n:
        if n & 1:
            result = base if result is None else result @ base
        base = base @ base
        n >>= 1
    return phi if result is None else result


def _map_rank(phi: ChainMap) -> int:
    return sum(m.rank() for nat in phi.nats for m in nat.comps)


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
        ident = tuple(int(v) for v in ring.coordinates_of(ChainMap.identity(X)).arr[:, 0])
        for position, coeffs in found:
            if position and coeffs != ident:
                return IndecResult(False, True, ring.element(coeffs), position, ring.dim)
        return IndecResult(True, True, None, p**ring.dim - 1, ring.dim)
    if strategy == "fitting":
        N = X.total_dim()
        rng = random.Random(seed)
        candidates: list[ChainMap] = list(ring.basis)
        for a in ring.basis:
            for b in ring.basis:
                candidates.append(a @ b)
        for _ in range(32 if budget is None else budget):
            coeffs = [rng.randrange(p) for _ in range(ring.dim)]
            if any(coeffs):
                candidates.append(ring.element(coeffs))
        trials = 0
        for phi in candidates:
            trials += 1
            psi = _power(phi, max(1, N))
            r = _map_rank(psi)
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
    psi = _power(phi, max(1, X.total_dim()))
    nats = []
    for n, F in enumerate(X.layers):
        comps = []
        for m in psi.nats[n].comps:
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


def _restriction_kernel(ring: EndRing, elements: Sequence[int]) -> list[ChainMap]:
    """Basis of endomorphisms vanishing on the given elements."""
    if not ring.basis:
        return []
    R = Mat(np.stack([b.to_vec(elements) for b in ring.basis], axis=1), ring.obj.p)
    K = kernel(R)
    return [ring.element(K.arr[:, j]) for j in range(K.cols)]


def gluing_check(obj: Functorlike, a_names: Sequence[str], b_names: Sequence[str]) -> GluingReport:
    """Evaluate the gluing criteria for X on D = A u B.

    Computes the canonical comparison beta from the Kan extension (inside
    B) of the restriction to A n B, its cokernel, and the four criteria:
    hom(coker beta, X_B) = 0; the radical inclusion inducing an
    isomorphism on hom(coker beta, -); nilpotency of the kernel of
    End(X_B) -> End(X_{AnB}); injectivity of that restriction.
    """
    X = as_chain(obj)
    poset = X.poset
    a_idx = sorted(poset.index(n) for n in a_names)
    b_idx = sorted(poset.index(n) for n in b_names)
    aset, bset = set(a_idx), set(b_idx)
    if aset | bset != set(range(poset.n)):
        raise BadCoverError("the two subposets must cover the indexing poset")
    inter = aset & bset
    for u in range(poset.n):
        for v in range(poset.n):
            if u == v or not poset.leq(u, v):
                continue
            if (u in aset and v in aset) or (u in bset and v in bset):
                continue
            if not any(poset.leq(u, d) and poset.leq(d, v) for d in inter):
                raise BadCoverError(
                    "relations crossing between the two subposets must factor "
                    "through their intersection"
                )
    XB = X.restrict(b_idx)
    ab_in_b = [i for i, e in enumerate(b_idx) if e in set(a_idx)]
    if ab_in_b:
        XAB = XB.restrict(ab_in_b)
        ext, exts = kan_extend_chain(XAB, XB.poset, ab_in_b)
        # Mediating map beta: ext -> XB from the colimit cocones.
        nats = []
        for n, Fn in enumerate(XB.layers):
            comps = []
            for q in range(XB.poset.n):
                data = exts[n].cocones[q]
                if not data.elements:
                    comps.append(Mat.zeros(Fn.dims[q], ext.dim_at(q, n), X.p))
                    continue
                stacked = Mat.hstack([Fn.map_leq(ab_in_b[j], q) for j in data.elements])
                comps.append(stacked @ data.section)
            nats.append(NatMap._trusted(ext.layers[n], Fn, tuple(comps)))
        beta = ChainMap._trusted(ext, XB, tuple(nats))
    else:
        ext = zero_chain(XB.poset, X.p, XB.top)
        beta = ChainMap.zero(ext, XB)
    coker, _ = chain_coker(beta)
    hom_full = hom_space(coker, XB)
    radB, _ = chain_radical(XB)
    hom_rad = hom_space(coker, radB)
    ring = end_ring(XB)
    kernel_basis = _restriction_kernel(ring, ab_in_b)
    nilpotent = _ideal_is_nilpotent(kernel_basis, ring)
    kan_degrees = tuple(
        n for n in range(ext.top + 1) if any(ext.dim_at(q, n) for q in range(ext.poset.n))
    )
    return GluingReport(
        beta_cokernel_dims=tuple(
            tuple(coker.dim_at(q, n) for n in range(max(coker.top, X.top) + 1))
            for q in range(coker.poset.n)
        ),
        crit_hom_zero=not hom_full,
        crit_rad_iso=len(hom_rad) == len(hom_full),
        crit_kernel_nilpotent=nilpotent,
        crit_restriction_injective=not kernel_basis,
        hom_coker_dim=len(hom_full),
        hom_coker_rad_dim=len(hom_rad),
        restriction_kernel_dim=len(kernel_basis),
        kan_nonzero_degrees=kan_degrees,
    )


def _ideal_is_nilpotent(kernel_basis: list[ChainMap], ring: EndRing) -> bool:
    if not kernel_basis:
        return True
    X, p = ring.obj, ring.obj.p
    power = list(kernel_basis)
    for _ in range(max(1, ring.dim)):
        # Canonical basis of the span of the products: the nonzero rows of an rref.
        prods = np.stack([(a @ b).to_vec() for a in power for b in kernel_basis])
        rr = rref(Mat(prods, p), transform=False)
        nxt = [ChainMap.from_vec(X, X, rr.R.arr[i]) for i in range(rr.rank)]
        if not nxt:
            return True
        if len(nxt) == len(power):
            # Descending chain stabilized at a nonzero ideal power.
            return False
        power = nxt
    return False
