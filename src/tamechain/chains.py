"""Chain-complex valued functors on finite posets.

A chain functor is one vector-space functor per degree 0..top together
with the boundary natural maps d[k]: layers[k+1] -> layers[k]; a chain
map is one natural map per degree.  The public constructors validate:
each part checks itself, so a chain functor checks only d . d = 0 and a
chain map only its chain squares.  Flat per-element data (dims,
boundaries and cover maps) enters through `ChainFunctor.from_arrays`.
Internal constructions (composites, kernels, cokernels, subcomplexes,
suspensions, covers, pullbacks, factorizations and splits) are trusted
and build through the private `_trusted` constructors, which run no
check; the test suite puts the checking constructors in their place and
so re-checks every one of them.  The module
provides spheres and disks, homology functors, the model-structure
classification of morphisms, minimal projective covers, the staircase
construction of minimal cofibrant factorizations, and the sphere/disk
decomposition of cofibrant objects over dimension-<=1 posets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    HomologyNotResolvableError,
    KernelNotProjectiveError,
    ValidationError,
)
from .field import Mat, inverse, kernel, solve
from .posets import FinPoset
from .functors import (
    Cover,
    NatMap,
    VectFunctor,
    _quotient,
    _subfunctor_from_bases,
    coker_functor,
    direct_sum_functors,
    free_on_generators,
    is_projective,
    ker_functor,
    lift_through,
    minimal_cover,
    minimal_resolution,
)

__all__ = [
    "ChainFunctor",
    "ChainMap",
    "SummandLabel",
    "Decomposition",
    "MorphismClass",
    "zero_chain",
    "standard_complex",
    "suspension",
    "direct_sum_chains",
    "homology_functor",
    "classify_morphism",
    "chain_ker",
    "chain_coker",
    "minimal_projective_cover_ch",
    "chain_projective_resolution",
    "minimal_cofibrant_factorization",
    "cofibrant_replacement",
    "is_cofibrant",
    "structure_decompose",
    "reassemble",
]


def _same_poset(P: FinPoset, Q: FinPoset) -> bool:
    return P is Q or (P.names == Q.names and P.covers == Q.covers)


def _zero_functor(poset: FinPoset, p: int) -> VectFunctor:
    zero = Mat.zeros(0, 0, p)
    return VectFunctor._trusted(poset, [0] * poset.n, dict.fromkeys(poset.covers, zero), p)


class ChainFunctor:
    """Functor poset -> Ch(vect_{F_p}): layers[n] is the degree-n functor
    for n = 0..top, and d[k]: layers[k+1] -> layers[k] the boundary."""

    def __init__(self, layers: Sequence[VectFunctor], d: Sequence[NatMap]):
        layers = tuple(layers)
        if not layers:
            raise ValidationError("chain functor needs at least degree 0")
        self._assign(layers, tuple(d))
        for n, F in enumerate(self.layers):
            if F.p != self.p or not _same_poset(F.poset, self.poset):
                raise ValidationError(f"degree {n} lives on another poset or modulus than degree 0")
        if len(self.d) != self.top:
            raise ValidationError(f"chain functor with top degree {self.top} needs {self.top} boundary maps")
        for k, b in enumerate(self.d):
            if not (self._is_layer(b.dom, k + 1) and self._is_layer(b.cod, k)):
                raise ValidationError(f"boundary {k + 1} does not map degree {k + 1} to degree {k}")
        for k in range(self.top - 1):
            for q, (lo, hi) in enumerate(zip(self.d[k].comps, self.d[k + 1].comps)):
                if not (lo @ hi).is_zero():
                    raise ValidationError(
                        f"boundary square is nonzero at element {self.poset.names[q]}, degree {k + 2}"
                    )

    @classmethod
    def _trusted(cls, layers: Sequence[VectFunctor], d: Sequence[NatMap]) -> "ChainFunctor":
        """The chain functor of an internal construction, unchecked: the
        layers share one poset and modulus, and d . d = 0 by construction."""
        X = cls.__new__(cls)
        X._assign(tuple(layers), tuple(d))
        return X

    def _assign(self, layers: tuple[VectFunctor, ...], d: tuple[NatMap, ...]) -> None:
        self.layers = layers
        self.d = d
        self.poset = layers[0].poset
        self.p = layers[0].p

    @classmethod
    def from_arrays(
        cls,
        poset: FinPoset,
        dims: Sequence[Sequence[int]],
        boundaries: Sequence[Sequence[Mat]],
        maps: dict[tuple[int, int], Sequence[Mat]],
        p: int,
    ) -> "ChainFunctor":
        """Chain functor from flat per-element data: dims[q][n], the
        boundary boundaries[q][n-1] from degree n to n-1 at element q, and
        maps[(y, x)][n] per cover (a missing cover maps by zero)."""
        names = poset.names
        if len(dims) != poset.n or len(boundaries) != poset.n:
            raise ValidationError("chain functor dims and boundaries must list one row per element")
        tops = {len(row) for row in dims}
        if len(tops) != 1:
            raise ValidationError("all elements must carry the same number of degrees")
        top = tops.pop() - 1
        if top < 0:
            raise ValidationError("chain functor needs at least degree 0")
        for q, row in enumerate(boundaries):
            if len(row) != top:
                raise ValidationError(f"element {names[q]} needs {top} boundary maps")
        extra = set(maps) - set(poset.covers)
        if extra:
            raise ValidationError(f"map given for non-cover pair {min(extra)}")
        for (y, x), comps in maps.items():
            if len(comps) != top + 1:
                raise ValidationError(f"cover ({names[y]}, {names[x]}) needs {top + 1} degree maps")
        layers, d = [], []
        try:
            for n in range(top + 1):
                layers.append(VectFunctor(poset, [row[n] for row in dims], {c: m[n] for c, m in maps.items()}, p))
        except ValidationError as exc:
            raise ValidationError(f"degree {n}: {exc}") from None
        try:
            for n in range(1, top + 1):
                d.append(NatMap(layers[n], layers[n - 1], tuple(row[n - 1] for row in boundaries)))
        except ValidationError as exc:
            raise ValidationError(f"boundary from degree {n}: {exc}") from None
        return cls(layers, d)

    def _is_layer(self, F: VectFunctor, n: int) -> bool:
        """F is the degree-n functor (above the top: any zero functor)."""
        if n <= self.top:
            G = self.layers[n]
            if F is G:
                return True
            if F.dims != G.dims or F.maps != G.maps:
                return False
        elif not F.is_zero():
            return False
        return F.p == self.p and _same_poset(F.poset, self.poset)

    # -- accessors ------------------------------------------------------

    @property
    def top(self) -> int:
        return len(self.layers) - 1

    @property
    def dims(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(F.dims[q] for F in self.layers) for q in range(self.poset.n))

    def layer(self, n: int) -> VectFunctor:
        return self.layers[n] if 0 <= n <= self.top else _zero_functor(self.poset, self.p)

    def dim_at(self, q: int, n: int) -> int:
        return self.layers[n].dims[q] if 0 <= n <= self.top else 0

    def boundary(self, n: int) -> NatMap:
        """The boundary d_n: X_n -> X_{n-1}; the zero map outside 1..top."""
        if 1 <= n <= self.top:
            return self.d[n - 1]
        return NatMap.zero(self.layer(n), self.layer(n - 1))

    def boundary_at(self, q: int, n: int) -> Mat:
        """The boundary from degree n to degree n-1 at element q."""
        if 1 <= n <= self.top:
            return self.d[n - 1].comps[q]
        return Mat.zeros(self.dim_at(q, n - 1), self.dim_at(q, n), self.p)

    def map_at(self, cover: tuple[int, int], n: int) -> Mat:
        if 0 <= n <= self.top:
            return self.layers[n].maps[cover]
        y, x = cover
        return Mat.zeros(self.dim_at(x, n), self.dim_at(y, n), self.p)

    def total_dim(self) -> int:
        return sum(F.total_dim() for F in self.layers)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def trimmed(self) -> "ChainFunctor":
        """Drop trailing all-zero degrees (keeping at least degree 0)."""
        top = self.top
        while top > 0 and self.layers[top].is_zero():
            top -= 1
        return self if top == self.top else ChainFunctor._trusted(self.layers[: top + 1], self.d[:top])

    def restrict(self, subset: Sequence[int]) -> "ChainFunctor":
        subset = sorted(set(subset))
        layers = [F.restrict(subset) for F in self.layers]
        d = [
            NatMap._trusted(layers[k + 1], layers[k], tuple(b.comps[q] for q in subset))
            for k, b in enumerate(self.d)
        ]
        return ChainFunctor._trusted(layers, d)

    def __repr__(self) -> str:
        return f"ChainFunctor(top={self.top}, dims={self.dims}, p={self.p})"


def _block_offsets(X: ChainFunctor, Y: ChainFunctor) -> list[list[tuple[int, int, int]]]:
    """Per element q and degree n: (offset, rows, cols) of the component
    of a map X -> Y at q and n in its `ChainMap.to_vec` coordinates."""
    D = max(X.top, Y.top)
    offs = []
    at = 0
    for q in range(X.poset.n):
        row = []
        for n in range(D + 1):
            r, c = Y.dim_at(q, n), X.dim_at(q, n)
            row.append((at, r, c))
            at += r * c
        offs.append(row)
    return offs


@dataclass(frozen=True)
class ChainMap:
    """Natural chain map between chain functors on the same poset: one
    natural map per degree 0..max(dom.top, cod.top)."""

    dom: ChainFunctor
    cod: ChainFunctor
    nats: tuple[NatMap, ...]

    def __post_init__(self):
        if self.dom.p != self.cod.p or not _same_poset(self.dom.poset, self.cod.poset):
            raise ValidationError("chain map requires a common poset and modulus")
        if len(self.nats) != self.depth + 1:
            raise ValidationError(f"chain map needs one natural map per degree 0..{self.depth}")
        for n, nat in enumerate(self.nats):
            if not (self.dom._is_layer(nat.dom, n) and self.cod._is_layer(nat.cod, n)):
                raise ValidationError(f"natural map in degree {n} does not map the degree-{n} functors")
        for n in range(1, self.depth + 1):
            for q in range(self.dom.poset.n):
                if self.cod.boundary_at(q, n) @ self.nats[n].comps[q] != self.nats[n - 1].comps[q] @ self.dom.boundary_at(q, n):
                    raise ValidationError(f"chain square fails at element {self.dom.poset.names[q]}, degree {n}")

    @classmethod
    def _trusted(cls, dom: ChainFunctor, cod: ChainFunctor, nats: tuple[NatMap, ...]) -> "ChainMap":
        """The chain map of an internal construction, unchecked: one natural
        map per degree between the right layers, with every chain square
        commuting by construction."""
        phi = cls.__new__(cls)
        phi.__dict__.update(dom=dom, cod=cod, nats=nats)
        return phi

    @property
    def depth(self) -> int:
        return max(self.dom.top, self.cod.top)

    def at(self, q: int, n: int) -> Mat:
        return self.nats[n].comps[q]

    def _nat(self, n: int) -> NatMap:
        if 0 <= n <= self.depth:
            return self.nats[n]
        return NatMap.zero(self.dom.layer(n), self.cod.layer(n))

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        D = max(other.dom.top, self.cod.top)
        return ChainMap._trusted(other.dom, self.cod, tuple(self._nat(n) @ other._nat(n) for n in range(D + 1)))

    def to_vec(self, elements: Optional[Sequence[int]] = None) -> np.ndarray:
        """The components at the given elements (default: all), flattened
        row-major in (element, degree) order: the coordinates of
        `morphisms.hom_space` and of every span of chain maps."""
        qs = range(self.dom.poset.n) if elements is None else elements
        flat = [nat.comps[q].arr.reshape(-1) for q in qs for nat in self.nats]
        return np.concatenate(flat + [np.zeros(0, dtype=np.int64)])

    @staticmethod
    def from_vec(dom: ChainFunctor, cod: ChainFunctor, vec: np.ndarray) -> "ChainMap":
        """Inverse of `to_vec` over all elements, unchecked: every caller
        passes the coordinates of a linear combination of chain maps
        dom -> cod, which is a chain map."""
        comps = [[Mat(vec[o : o + r * c].reshape(r, c), dom.p) for o, r, c in row] for row in _block_offsets(dom, cod)]
        nats = tuple(
            NatMap._trusted(dom.layer(n), cod.layer(n), tuple(row[n] for row in comps))
            for n in range(max(dom.top, cod.top) + 1)
        )
        return ChainMap._trusted(dom, cod, nats)

    @staticmethod
    def identity(X: ChainFunctor) -> "ChainMap":
        return ChainMap._trusted(X, X, tuple(NatMap.identity(F) for F in X.layers))

    @staticmethod
    def zero(X: ChainFunctor, Y: ChainFunctor) -> "ChainMap":
        D = max(X.top, Y.top)
        return ChainMap._trusted(X, Y, tuple(NatMap.zero(X.layer(n), Y.layer(n)) for n in range(D + 1)))

    def is_iso(self) -> bool:
        return all(nat.is_iso() for nat in self.nats)


def _subcomplex(X: ChainFunctor, incls: Sequence[NatMap]) -> tuple[ChainFunctor, ChainMap]:
    """Subcomplex of X from one subfunctor inclusion incls[n] into X_n per
    degree, for subfunctors that the boundaries map into each other."""
    d = [
        NatMap._trusted(
            incls[k + 1].dom,
            incls[k].dom,
            tuple(
                solve(incls[k].comps[q], X.boundary_at(q, k + 1) @ incls[k + 1].comps[q])
                for q in range(X.poset.n)
            ),
        )
        for k in range(len(incls) - 1)
    ]
    S = ChainFunctor._trusted([i.dom for i in incls], d)
    return S, ChainMap._trusted(S, X, tuple(incls))


# --- constructions ----------------------------------------------------------


def zero_chain(poset: FinPoset, p: int, top: int = 0) -> ChainFunctor:
    Z = _zero_functor(poset, p)
    return ChainFunctor._trusted([Z] * (top + 1), [NatMap.zero(Z, Z)] * top)


def standard_complex(poset: FinPoset, kind: str, n: int, z: int, mult: int, p: int) -> ChainFunctor:
    """Sphere S^n or disk D^n on the homogeneous free functor F^mult(z, -).

    D^0 coincides with S^0 (concentrated in degree 0).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    F = free_on_generators(poset, ((z, mult),), p)
    if kind == "sphere" or (kind == "disk" and n == 0):
        return suspension(ChainFunctor._trusted([F], []), n)
    if kind == "disk":
        return suspension(ChainFunctor._trusted([F, F], [NatMap.identity(F)]), n - 1)
    raise ValueError(f"unknown standard complex kind {kind!r}")


def suspension(X: ChainFunctor, k: int = 1) -> ChainFunctor:
    if k == 0:
        return X
    Z = _zero_functor(X.poset, X.p)
    layers = [Z] * k + list(X.layers)
    d = [NatMap.zero(layers[i + 1], layers[i]) for i in range(k)] + list(X.d)
    return ChainFunctor._trusted(layers, d)


def direct_sum_chains(parts: Sequence[ChainFunctor]) -> tuple[ChainFunctor, list[ChainMap], list[ChainMap]]:
    poset = parts[0].poset
    p = parts[0].p
    top = max(x.top for x in parts)
    sums = [direct_sum_functors([x.layer(n) for x in parts]) for n in range(top + 1)]
    layers = [s[0] for s in sums]
    d = [
        NatMap._trusted(
            layers[n + 1],
            layers[n],
            tuple(Mat.block_diag([x.boundary_at(q, n + 1) for x in parts], p) for q in range(poset.n)),
        )
        for n in range(top)
    ]
    total = ChainFunctor._trusted(layers, d)
    incls = [ChainMap._trusted(x, total, tuple(s[1][i] for s in sums)) for i, x in enumerate(parts)]
    projs = [ChainMap._trusted(total, x, tuple(s[2][i] for s in sums)) for i, x in enumerate(parts)]
    return total, incls, projs


# --- homology and classification --------------------------------------------


def _homology(X: ChainFunctor, n: int) -> tuple[VectFunctor, NatMap, NatMap, list[Mat]]:
    """H_n = Z_n / B_n for every n, with the cycle inclusion Z_n -> X_n, the
    quotient map Z_n -> H_n and its canonical section at each element."""
    Z, cycles = ker_functor(X.boundary(n))
    H, quot, secs = _quotient(Z, list(map(solve, cycles.comps, X.boundary(n + 1).comps)))
    return H, cycles, quot, secs


def homology_functor(X: ChainFunctor, n: int) -> VectFunctor:
    """H_n = ker boundary / im boundary with induced maps."""
    return _homology(X, n)[0]


def homology_map(phi: ChainMap, n: int) -> NatMap:
    """H_n(phi): each class's representative cycle, mapped by phi and read
    back in the target's cycle coordinates."""
    dom_h, dcyc, _, dsecs = _homology(phi.dom, n)
    cod_h, ccyc, cquot, _ = _homology(phi.cod, n)
    f = phi._nat(n)
    comps = tuple(
        cquot.comps[q] @ solve(ccyc.comps[q], f.comps[q] @ (dcyc.comps[q] @ dsecs[q]))
        for q in range(phi.dom.poset.n)
    )
    return NatMap._trusted(dom_h, cod_h, comps)


@dataclass(frozen=True)
class MorphismClass:
    weak_equivalence: bool
    fibration: bool
    cofibration: bool


def classify_morphism(phi: ChainMap) -> MorphismClass:
    """Model-structure flags: quasi-isomorphism; degreewise epi in degrees
    >= 1; degreewise mono with projective cokernel functor."""
    weak = all(homology_map(phi, n).is_iso() for n in range(phi.depth + 1))
    fib = all(nat.is_epi() for nat in phi.nats[1:])
    cof = True
    for nat in phi.nats:
        if not nat.is_mono():
            cof = False
            break
        Q, _ = coker_functor(nat)
        if is_projective(Q) is None:
            cof = False
            break
    return MorphismClass(weak, fib, cof)


def is_cofibrant(X: ChainFunctor) -> bool:
    return all(F.is_zero() or is_projective(F) is not None for F in X.layers)


# --- kernels and cokernels of chain maps -------------------------------------


def chain_ker(phi: ChainMap) -> tuple[ChainFunctor, ChainMap]:
    K, incl = _subcomplex(phi.dom, [ker_functor(phi.nats[n])[1] for n in range(phi.dom.top + 1)])
    # Dropped top degrees are zero functors, which the inclusion still maps.
    Kt = K.trimmed()
    return Kt, ChainMap._trusted(Kt, phi.dom, incl.nats)


def chain_coker(phi: ChainMap) -> tuple[ChainFunctor, ChainMap]:
    return _chain_quotient(phi.cod, [nat.comps for nat in phi.nats])


def _chain_quotient(X: ChainFunctor, images: Sequence[Sequence[Mat]]) -> tuple[ChainFunctor, ChainMap]:
    """X modulo the subcomplex spanned in degree n at q by the columns of
    images[n][q], with the quotient map."""
    layers, projs, secs = zip(*map(_quotient, X.layers, images))
    bnds = [
        NatMap._trusted(layers[n + 1], layers[n], tuple(
            projs[n].comps[q] @ X.boundary_at(q, n + 1) @ secs[n + 1][q] for q in range(X.poset.n)))
        for n in range(X.top)
    ]
    Q = ChainFunctor._trusted(layers, bnds).trimmed()
    return Q, ChainMap._trusted(X, Q, tuple(projs))


# --- minimal projective covers of chain functors -----------------------------


def _cover_of_coker(m: NatMap) -> tuple[Cover, NatMap]:
    """Minimal cover P of coker m, with a lift P -> cod m of its cover map."""
    Q, proj = coker_functor(m)
    cov = minimal_cover(Q)
    return cov, lift_through(cov.s, proj)


@dataclass(frozen=True)
class ChCover:
    P: ChainFunctor
    cover: ChainMap
    layer_generators: tuple[tuple[tuple[int, int], ...], ...]  # per degree n: generators of P_n


def minimal_projective_cover_ch(X: ChainFunctor) -> ChCover:
    """Minimal cover assembled from disks on the minimal covers of the
    boundary cokernels, one per degree."""
    poset, p = X.poset, X.p
    zero = _zero_functor(poset, p)
    covs, lifts = zip(*(_cover_of_coker(X.boundary(n + 1)) for n in range(X.top + 1)))
    frees = [cov.P for cov in covs] + [zero]
    lifts += (NatMap.zero(zero, zero),)  # lifts[n]: P_n -> X_n
    layers = [direct_sum_functors([frees[n + 1], frees[n]])[0] for n in range(X.top + 1)]
    bnds = []
    for n in range(X.top):
        # (u, v) in P_{n+2} (+) P_{n+1} drops to (v, 0) in P_{n+1} (+) P_n:
        # the identity shifted right by dim P_{n+2}(q).
        comps = tuple(
            Mat._wrap(np.eye(layers[n].dims[q], layers[n + 1].dims[q], frees[n + 2].dims[q], dtype=np.int64), p)
            for q in range(poset.n)
        )
        bnds.append(NatMap._trusted(layers[n + 1], layers[n], comps))
    P = ChainFunctor._trusted(layers, bnds)
    cover_nats = tuple(
        NatMap._trusted(layers[n], X.layers[n], tuple(
            map(Mat.hstack, zip((X.boundary(n + 1) @ lifts[n + 1]).comps, lifts[n].comps))))
        for n in range(X.top + 1)
    )
    return ChCover(P, ChainMap._trusted(P, X, cover_nats), tuple(cov.generators for cov in covs))


def chain_projective_resolution(X: ChainFunctor) -> tuple[list[ChCover], int]:
    """Iterated minimal covers in Ch: returns the layers and the projective
    dimension (number of nontrivial kernels)."""
    max_steps = X.total_dim() + X.top + 2
    layers = []
    cur = X
    for step in range(max_steps + 1):
        cov = minimal_projective_cover_ch(cur)
        layers.append(cov)
        K, _ = chain_ker(cov.cover)
        if K.is_zero():
            return layers, len(layers) - 1
        cur = K
    raise KernelNotProjectiveError("projective resolution does not terminate within the expected bound")


# --- minimal cofibrant factorization -----------------------------------------


def _pullback_functor(pn: NatMap, beta: NatMap) -> tuple[NatMap, NatMap, NatMap]:
    """Objectwise pullback of pn: W -> Q and beta: Y -> Q as the subfunctor
    ker [pn | -beta] of W (+) Y: its inclusion and its two projections."""
    _, _, (to_w, to_y) = direct_sum_functors([pn.dom, beta.dom])
    _, incl = _subfunctor_from_bases(
        to_w.dom, [kernel(Mat.hstack([a, -b])) for a, b in zip(pn.comps, beta.comps)])
    return incl, to_w @ incl, to_y @ incl


def _mediate_pullback(incl: NatMap, u: NatMap, v: NatMap) -> NatMap:
    """The map into the pullback with projections u and v."""
    stacked = map(Mat.vstack, zip(u.comps, v.comps))
    return NatMap._trusted(u.dom, incl.dom, tuple(map(solve, incl.comps, stacked)))


def _factor_min_projective(m: NatMap) -> tuple[VectFunctor, NatMap, NatMap]:
    """Minimal projective factorization of m: X -> Q as X -> X (+) P -> Q."""
    cov, lifted = _cover_of_coker(m)
    W, incls, _ = direct_sum_functors([m.dom, cov.P])
    return W, incls[0], NatMap._trusted(W, m.cod, tuple(Mat.hstack([a, b]) for a, b in zip(m.comps, lifted.comps)))


@dataclass(frozen=True)
class Factorization:
    """f = pi . c with c a cofibration and pi a fibration and weak equivalence."""

    C: ChainFunctor
    c: ChainMap
    pi: ChainMap


def minimal_cofibrant_factorization(f: ChainMap) -> Factorization:
    """Staircase construction: degreewise pullbacks against the boundaries of
    the target, with a minimal projective factorization at every level."""
    X, Y = f.dom, f.cod
    NN = f.depth + 1
    W: list[VectFunctor] = []
    cmaps: list[NatMap] = []
    pmaps: list[NatMap] = []
    prW: list[Optional[NatMap]] = [None]
    prY = [NatMap.identity(Y.layers[0])]  # level 0: Q_0 = Y_0
    m = f._nat(0)
    for n in range(NN + 1):
        Wn, cn, pn = _factor_min_projective(m)
        W.append(Wn)
        cmaps.append(cn)
        pmaps.append(pn)
        if n == NN:
            break
        # beta: Y_{n+1} -> Q_n.
        dY = Y.boundary(n + 1)
        beta = dY if n == 0 else _mediate_pullback(incl, NatMap.zero(dY.dom, prW[n].cod), dY)
        incl, w_proj, y_proj = _pullback_functor(pn, beta)
        m = _mediate_pullback(incl, cn @ X.boundary(n + 1), f._nat(n + 1))
        prW.append(w_proj)
        prY.append(y_proj)

    if any(kernel(mm).cols for mm in pmaps[NN].comps):
        raise KernelNotProjectiveError(
            "cofibrant factorization does not close at the top degree; the poset is not of dimension <= 1"
        )

    C = ChainFunctor._trusted(W, [prW[n + 1] @ pmaps[n + 1] for n in range(NN)])
    pi_nats = [pmaps[0]] + [prY[n] @ pmaps[n] for n in range(1, NN + 1)]
    # Dropped top degrees of C are zero functors, which both maps still reach.
    C = C.trimmed()
    c_map = ChainMap._trusted(X, C, tuple(cmaps[: max(X.top, C.top) + 1]))
    pi_map = ChainMap._trusted(C, Y, tuple(pi_nats[: max(Y.top, C.top) + 1]))
    return Factorization(C, c_map, pi_map)


def cofibrant_replacement(X: ChainFunctor) -> Factorization:
    return minimal_cofibrant_factorization(ChainMap.zero(zero_chain(X.poset, X.p), X))


# --- structure decomposition --------------------------------------------------


@dataclass(frozen=True)
class SummandLabel:
    """A sphere S^degree(resolution) or disk D^degree(free functor) summand."""

    kind: str  # "sphere" | "disk"
    degree: int
    gens0: tuple[tuple[int, int], ...]
    gens1: tuple[tuple[int, int], ...]
    complex: ChainFunctor

    def key(self) -> tuple:
        names = self.complex.poset.names
        return (
            self.kind,
            self.degree,
            tuple((names[z], d) for z, d in self.gens0),
            tuple((names[z], d) for z, d in self.gens1),
        )


@dataclass(frozen=True)
class Decomposition:
    """Summands with their inclusions into the decomposed object X.  The
    retractions of a direct-sum decomposition are its unique dual system,
    so `splits` forms them on request: at each element and degree, the row
    blocks of the inverse of the inclusions side by side."""

    summands: tuple[SummandLabel, ...]
    inclusions: tuple[ChainMap, ...]

    @functools.cached_property
    def splits(self) -> tuple[tuple[ChainMap, ChainMap], ...]:  # (iota into X, rho out of X)
        if not self.summands:
            return ()
        X = self.inclusions[0].cod
        total, _, projs = direct_sum_chains([s.complex for s in self.summands])
        inv = tuple(
            NatMap._trusted(F, total.layer(n), tuple(
                inverse(Mat.hstack([i.at(q, n) for i in self.inclusions])) for q in range(X.poset.n)))
            for n, F in enumerate(X.layers)
        )
        return tuple((i, pr @ ChainMap._trusted(X, total, inv)) for i, pr in zip(self.inclusions, projs))


def structure_decompose(C: ChainFunctor) -> Decomposition:
    """Split a cofibrant chain functor over a dimension-<=1 poset into
    spheres on minimal resolutions and disks on projectives.

    A split at degree m cuts the residual down to the kernels of the
    summand's retraction in degrees m and m + 1 and keeps its other layers
    and their covers.  A canonical kernel basis depends only on the kernel
    subspace (its free variables are the last nonzero positions of the
    subspace's vectors), so ker(inv . p0) = ker(p0) and no inverse is
    formed; an untouched degree is the kernel of a zero map, an identity.
    Only the inclusions into C are kept; see `Decomposition`.
    """
    poset = C.poset
    if not poset.dimension().at_most_one():
        raise HomologyNotResolvableError("structure decomposition requires a poset of dimension <= 1")
    if not is_cofibrant(C):
        raise ValidationError("structure decomposition requires a cofibrant (degreewise projective) input")
    R = C.trimmed()  # the residual
    zero = _zero_functor(poset, C.p)
    incl = [NatMap.identity(F) for F in C.layers + (zero,)]  # R's degree n into C's
    summands, inclusions = [], []

    def split_off(label: SummandLabel, low: NatMap, high: NatMap, keep0: NatMap, keep1: NatMap) -> ChainFunctor:
        """Record a summand that low and high include into R in degrees m
        and m + 1; R cut down there to what keep0 and keep1 include."""
        S, at = label.complex, {m: incl[m] @ low, m + 1: incl[m + 1] @ high}
        summands.append(label)
        inclusions.append(ChainMap._trusted(
            S, C, tuple(at.get(n) or NatMap.zero(S.layer(n), C.layer(n)) for n in range(C.top + 1))))
        incl[m], incl[m + 1] = incl[m] @ keep0, incl[m + 1] @ keep1
        layers, d = list(R.layers), list(R.d)
        layers[m] = keep0.dom
        if m:
            d[m - 1] = NatMap.zero(layers[m], layers[m - 1])
        if m < R.top:
            layers[m + 1] = keep1.dom
            d[m] = NatMap._trusted(layers[m + 1], layers[m], tuple(map(solve, keep0.comps, (R.d[m] @ keep1).comps)))
        if m + 1 < R.top:
            d[m + 1] = NatMap._trusted(layers[m + 2], layers[m + 1], tuple(map(solve, keep1.comps, R.d[m + 1].comps)))
        return ChainFunctor._trusted(layers, d).trimmed()

    for m in range(C.top + 1):
        if m > R.top:
            break
        # Earlier steps left lower degrees zero and no later step touches them.
        if m and not R.layers[m - 1].is_zero():
            raise AssertionError("residual must vanish below the current degree")
        if R.layers[m].is_zero():  # no homology and no disk in degree m
            continue
        # Sphere step: split off S^m(minimal resolution of H_m).
        bnat = R.boundary(m + 1)
        H, qmap = coker_functor(bnat)
        if not H.is_zero():
            try:
                res = minimal_resolution(H)
            except KernelNotProjectiveError as exc:
                raise HomologyNotResolvableError(str(exc)) from exc
            s0 = lift_through(res.aug, qmap)
            p0 = lift_through(qmap, res.aug)
            p1 = lift_through(p0 @ bnat, res.d)
            sphere = suspension(ChainFunctor._trusted([res.p0, res.p1], [res.d]), m).trimmed()
            label = SummandLabel("sphere", m, res.gens0, res.gens1, sphere)
            R = split_off(label, s0, lift_through(s0 @ res.d, bnat), ker_functor(p0)[1], ker_functor(p1)[1])
        # Disk step: what remains in degree m is hit isomorphically from above.
        Fm = R.layer(m)
        if not Fm.is_zero():
            cov = is_projective(Fm)
            if cov is None:
                raise ValidationError("residual degree is not projective; input was not cofibrant")
            bnat = R.boundary(m + 1)
            if not bnat.is_epi():
                raise AssertionError("boundary must be epi after the sphere step")
            disk = suspension(ChainFunctor._trusted([cov.P, cov.P], [NatMap.identity(cov.P)]), m)
            label = SummandLabel("disk", m + 1, cov.generators, (), disk)
            R = split_off(label, cov.s, lift_through(cov.s, bnat), NatMap.zero(zero, Fm), ker_functor(bnat)[1])
    if not R.is_zero():
        raise AssertionError("decomposition left a nonzero residual")
    return Decomposition(tuple(summands), tuple(inclusions))


def reassemble(dec: Decomposition, poset: Optional[FinPoset] = None, p: Optional[int] = None) -> ChainFunctor:
    """Direct sum of the realized summand labels, in decomposition order."""
    if not dec.summands:
        if poset is None or p is None:
            raise ValueError("reassembling an empty decomposition needs a poset and modulus")
        return zero_chain(poset, p)
    total, _, _ = direct_sum_chains([s.complex for s in dec.summands])
    return total

