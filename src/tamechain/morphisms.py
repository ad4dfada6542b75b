"""Hom spaces, endomorphism rings, indecomposability certificates, and the
gluing criteria for extending indecomposables across poset unions.

Everything here accepts either vector-space functors or chain functors;
a vector-space functor is treated as a chain functor concentrated in
degree 0.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadCoverError,
    BudgetExceededError,
    NotIdempotentError,
    ZeroObjectError,
)
from .field import Mat, inverse, kernel, rref, solve, solve_or_none
from .functors import NatMap, VectFunctor, column_space_basis
from .chains import ChainFunctor, ChainMap, chain_coker, kan_extend_chain, zero_chain

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
    if isinstance(obj, ChainFunctor):
        return obj
    dims = [[d] for d in obj.dims]
    bdy = [[] for _ in range(obj.poset.n)]
    maps = {c: [m] for c, m in obj.maps.items()}
    return ChainFunctor(obj.poset, dims, bdy, maps, obj.p)


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
    basis = []
    for j in range(K.cols):
        vec = K.arr[:, j]
        comps = []
        for q in range(X.poset.n):
            row = []
            for n in range(D + 1):
                o, r, c = offs[(q, n)]
                row.append(Mat(vec[o : o + r * c].reshape(r, c), p))
            comps.append(tuple(row))
        basis.append(ChainMap(X, Y, tuple(comps)))
    return basis


def _to_vec(phi: ChainMap) -> np.ndarray:
    return np.concatenate([m.arr.reshape(-1) for row in phi.comps for m in row] or [np.zeros(0, dtype=np.int64)])


def _combine(basis: Sequence[ChainMap], coeffs: Sequence[int], p: int) -> ChainMap:
    X, Y = basis[0].dom, basis[0].cod
    comps = []
    for q in range(X.poset.n):
        row = []
        for n in range(len(basis[0].comps[q])):
            acc = Mat.zeros(Y.dim_at(q, n), X.dim_at(q, n), p)
            for c, b in zip(coeffs, basis):
                if c:
                    acc = acc + b.comps[q][n].scale(c)
            row.append(acc)
        comps.append(tuple(row))
    return ChainMap(X, Y, tuple(comps))


@dataclass(frozen=True)
class EndRing:
    """Basis of all natural chain endomorphisms; closed under composition."""

    obj: ChainFunctor
    basis: tuple[ChainMap, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates_of(self, phi: ChainMap) -> Optional[Mat]:
        if not self.basis:
            return None
        p = self.obj.p
        B = Mat(np.stack([_to_vec(b) for b in self.basis], axis=1), p)
        v = Mat(_to_vec(phi).reshape(-1, 1), p)
        return solve_or_none(B, v)

    def contains(self, phi: ChainMap) -> bool:
        return self.coordinates_of(phi) is not None


def end_ring(obj: Functorlike) -> EndRing:
    X = as_chain(obj)
    return EndRing(X, tuple(hom_space(X, X)))


def _structure_constants(ring: EndRing) -> tuple[np.ndarray, np.ndarray]:
    """(C, id_coords): C[i, j] = coordinates of basis[i] . basis[j]."""
    dim = ring.dim
    p = ring.obj.p
    B = Mat(np.stack([_to_vec(b) for b in ring.basis], axis=1), p)
    prods = []
    for a in ring.basis:
        for b in ring.basis:
            prods.append(_to_vec(a @ b))
    P = Mat(np.stack(prods, axis=1) % p, p)
    coords = solve(B, P)
    C = coords.arr.T.reshape(dim, dim, dim)
    ident = solve(B, Mat(_to_vec(ChainMap.identity(ring.obj)).reshape(-1, 1), p))
    return C, ident.arr.reshape(-1)


def enumerate_idempotents(ring: EndRing, budget: int = 1 << 20) -> list[tuple[int, ...]]:
    """Coordinate vectors of all idempotents of the endomorphism ring,
    in canonical enumeration order (includes 0 and the identity)."""
    p = ring.obj.p
    if ring.dim == 0:
        return [()]
    if p**ring.dim > budget:
        raise BudgetExceededError(
            f"enumerating {p}**{ring.dim} endomorphisms exceeds the budget {budget}"
        )
    C, _ = _structure_constants(ring)
    out = []
    for coeffs in itertools.product(range(p), repeat=ring.dim):
        a = np.array(coeffs, dtype=np.int64)
        square = np.einsum("i,j,ijk->k", a, a, C) % p
        if np.array_equal(square, a):
            out.append(coeffs)
    return out


def _is_zero_map(phi: ChainMap) -> bool:
    return all(m.is_zero() for row in phi.comps for m in row)


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
    return sum(m.rank() for row in phi.comps for m in row)


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
    non-trivial idempotent witness or a certified positive.  "fitting"
    raises basis elements, their pairwise products, and `budget` (default
    32) random endomorphisms to the total-dimension power; a split
    detected this way is certain, while silence is only probabilistic.
    """
    X = as_chain(obj)
    if X.is_zero():
        raise ZeroObjectError("indecomposability is undefined for the zero object")
    ring = end_ring(X)
    p = X.p
    if strategy == "exhaustive":
        cap = 1 << 20 if budget is None else budget
        if p**ring.dim > cap:
            raise BudgetExceededError(
                f"enumerating {p}**{ring.dim} endomorphisms exceeds the budget {cap}"
            )
        C, ident = _structure_constants(ring)
        count = 0
        for coeffs in itertools.product(range(p), repeat=ring.dim):
            if not any(coeffs):
                continue
            count += 1
            a = np.array(coeffs, dtype=np.int64)
            square = np.einsum("i,j,ijk->k", a, a, C) % p
            if np.array_equal(square, a) and not np.array_equal(a, ident):
                e = _combine(ring.basis, coeffs, p)
                return IndecResult(False, True, e, count, ring.dim)
        return IndecResult(True, True, None, count, ring.dim)
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
                candidates.append(_combine(ring.basis, coeffs, p))
        trials = 0
        for phi in candidates:
            trials += 1
            psi = _power(phi, max(1, N))
            r = _map_rank(psi)
            if 0 < r < N:
                return IndecResult(False, True, phi, trials, ring.dim)
        return IndecResult(True, False, None, trials, ring.dim)
    raise ValueError(f"unknown strategy {strategy!r}")


def _sub_chain_from_bases(X: ChainFunctor, bases: list[list[Mat]]) -> tuple[ChainFunctor, ChainMap]:
    poset, p = X.poset, X.p
    dims = [[bases[q][n].cols for n in range(X.top + 1)] for q in range(poset.n)]
    bdy = [
        [solve(bases[q][n], X.boundary_at(q, n + 1) @ bases[q][n + 1]) for n in range(X.top)]
        for q in range(poset.n)
    ]
    maps = {}
    for y, x in poset.covers:
        maps[(y, x)] = [
            solve(bases[x][n], X.map_at((y, x), n) @ bases[y][n]) for n in range(X.top + 1)
        ]
    sub = ChainFunctor(poset, dims, bdy, maps, p)
    incl = ChainMap(sub, X, tuple(tuple(bases[q][n] for n in range(X.top + 1)) for q in range(poset.n)))
    return sub, incl


def split_by_idempotent(obj: Functorlike, e: ChainMap):
    """X ~ im(e) (+) im(id - e) with inclusion/retraction witnesses."""
    X = as_chain(obj)
    if not ((e @ e) == e):
        raise NotIdempotentError("supplied endomorphism is not idempotent")
    ident = ChainMap.identity(X)
    compl = _combine([ident, e], [1, X.p - 1], X.p)
    parts = []
    for f in (e, compl):
        bases = [[column_space_basis(f.at(q, n)) for n in range(X.top + 1)] for q in range(X.poset.n)]
        sub, incl = _sub_chain_from_bases(X, bases)
        retr = ChainMap(
            X,
            sub,
            tuple(
                tuple(solve(bases[q][n], f.at(q, n)) for n in range(X.top + 1))
                for q in range(X.poset.n)
            ),
        )
        parts.append((sub, incl, retr))
    (x1, i1, r1), (x2, i2, r2) = parts
    return x1, x2, (i1, r1, i2, r2)


def fitting_idempotent(obj: Functorlike, phi: ChainMap) -> ChainMap:
    """Projection onto im(phi^N) along ker(phi^N), N the total dimension."""
    X = as_chain(obj)
    psi = _power(phi, max(1, X.total_dim()))
    comps = []
    for q in range(X.poset.n):
        row = []
        for n in range(X.top + 1):
            m = psi.at(q, n)
            V = column_space_basis(m)
            K = kernel(m)
            U = Mat.hstack([V, K])
            P = inverse(U)
            row.append(V @ P.take_rows(range(V.cols)))
        comps.append(tuple(row))
    return ChainMap(X, X, tuple(comps))


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
    bases = []
    for q in range(X.poset.n):
        row = []
        for n in range(X.top + 1):
            ys = X.poset.covered_by(q)
            if ys:
                row.append(column_space_basis(Mat.hstack([X.map_at((y, q), n) for y in ys])))
            else:
                row.append(Mat.zeros(X.dim_at(q, n), 0, X.p))
        bases.append(row)
    return _sub_chain_from_bases(X, bases)


def _restriction_kernel(ring: EndRing, elements: Sequence[int]) -> list[ChainMap]:
    """Basis of endomorphisms vanishing on the given elements."""
    if not ring.basis:
        return []
    p = ring.obj.p
    cols = []
    for b in ring.basis:
        cols.append(np.concatenate([b.comps[q][n].arr.reshape(-1) for q in elements for n in range(len(b.comps[q]))] or [np.zeros(0, dtype=np.int64)]))
    R = Mat(np.stack(cols, axis=1), p)
    K = kernel(R)
    return [_combine(ring.basis, [int(v) for v in K.arr[:, j]], p) for j in range(K.cols)]


def _span_of_maps(maps: list[ChainMap], p: int) -> list[ChainMap]:
    if not maps:
        return []
    vecs = np.stack([_to_vec(m) for m in maps], axis=0)
    rr = rref(Mat(vecs, p), transform=False)
    out = []
    X, Y = maps[0].dom, maps[0].cod
    for i in range(rr.rank):
        vec = rr.R.arr[i]
        comps = []
        at = 0
        for q in range(X.poset.n):
            row = []
            for n in range(len(maps[0].comps[q])):
                r, c = maps[0].comps[q][n].shape
                row.append(Mat(vec[at : at + r * c].reshape(r, c), p))
                at += r * c
            comps.append(tuple(row))
        out.append(ChainMap(X, Y, tuple(comps)))
    return out


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
        comps = []
        for q in range(XB.poset.n):
            row = []
            for n in range(X.top + 1):
                data = exts[n].cocones[q]
                if not data.elements:
                    row.append(Mat.zeros(XB.dim_at(q, n), ext.dim_at(q, n), X.p))
                    continue
                Fn = XB.degree_functor(n)
                stacked = Mat.hstack([Fn.map_leq(ab_in_b[j], q) for j in data.elements])
                row.append(stacked @ data.section)
            comps.append(tuple(row))
        beta = ChainMap(ext, XB, tuple(comps))
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
    padded = coker if coker.top >= X.top else coker.pad_to(X.top)
    return GluingReport(
        beta_cokernel_dims=tuple(tuple(row) for row in padded.dims),
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
    p = ring.obj.p
    power = list(kernel_basis)
    for _ in range(max(1, ring.dim)):
        nxt = _span_of_maps([a @ b for a in power for b in kernel_basis], p)
        nxt = [m for m in nxt if not _is_zero_map(m)]
        if not nxt:
            return True
        if len(nxt) == len(power):
            # Descending chain stabilized at a nonzero ideal power.
            return False
        power = nxt
    return False
