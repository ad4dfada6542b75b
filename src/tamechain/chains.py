"""Chain-complex valued functors on finite posets.

A chain functor is one vector-space functor per degree 0..top together
with the boundary natural maps d[k]: layers[k+1] -> layers[k]; a chain
map is one natural map per degree.  The public constructors validate:
each part checks itself, so a chain functor checks only d . d = 0 and a
chain map only its chain squares.  Flat per-element data (dims,
boundaries and cover maps) enters through the document reader,
`interchange.chain_from_json`, which builds these parts from it.
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

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    HomologyNotResolvableError,
    KernelNotProjectiveError,
    ValidationError,
)
from .field import Mat, coordinates, kernel
from .posets import FinPoset
from .functors import (
    Cover,
    NatMap,
    VectFunctor,
    _quotient,
    _same_poset,
    _subfunctor_from_bases,
    assemble_free_map,
    coker_functor,
    direct_sum_functors,
    free_on_generators,
    is_projective,
    ker_functor,
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

    def boundary(self, n: int) -> NatMap:
        """The boundary d_n: X_n -> X_{n-1}; the zero map outside 1..top."""
        if 1 <= n <= self.top:
            return self.d[n - 1]
        return NatMap.zero(self.layer(n), self.layer(n - 1))

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
    dims = [(Y.layer(n).dims, X.layer(n).dims) for n in range(max(X.top, Y.top) + 1)]
    offs = []
    at = 0
    for q in range(X.poset.n):
        row = []
        for ydims, xdims in dims:
            r, c = ydims[q], xdims[q]
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
            cod_d, dom_d = self.cod.boundary(n).comps, self.dom.boundary(n).comps
            for q, (f, g) in enumerate(zip(self.nats[n].comps, self.nats[n - 1].comps)):
                if cod_d[q] @ f != g @ dom_d[q]:
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

    def _nat(self, n: int) -> NatMap:
        if 0 <= n <= self.depth:
            return self.nats[n]
        return NatMap.zero(self.dom.layer(n), self.cod.layer(n))

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        D = max(other.dom.top, self.cod.top)
        return ChainMap._trusted(other.dom, self.cod, tuple(self._nat(n) @ other._nat(n) for n in range(D + 1)))

    def to_vec(self) -> np.ndarray:
        """The components flattened row-major in (element, degree) order:
        the coordinates of `morphisms.hom_space` and of every span of chain
        maps."""
        flat = [nat.comps[q].arr.reshape(-1) for q in range(self.dom.poset.n) for nat in self.nats]
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
            tuple(map(coordinates, incls[k].comps, (X.boundary(k + 1) @ incls[k + 1]).comps)),
        )
        for k in range(len(incls) - 1)
    ]
    S = ChainFunctor._trusted([i.dom for i in incls], d)
    return S, ChainMap._trusted(S, X, tuple(incls))


# --- constructions ----------------------------------------------------------


def zero_chain(poset: FinPoset, p: int) -> ChainFunctor:
    return ChainFunctor._trusted([_zero_functor(poset, p)], [])


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
            tuple(Mat.block_diag(blocks, p) for blocks in zip(*(x.boundary(n + 1).comps for x in parts))),
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
    H, quot, secs = _quotient(Z, list(map(coordinates, cycles.comps, X.boundary(n + 1).comps)))
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
        cquot.comps[q] @ coordinates(ccyc.comps[q], f.comps[q] @ (dcyc.comps[q] @ dsecs[q]))
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
            pr @ b @ sec for pr, b, sec in zip(projs[n].comps, X.boundary(n + 1).comps, secs[n + 1])))
        for n in range(X.top)
    ]
    Q = ChainFunctor._trusted(layers, bnds).trimmed()
    return Q, ChainMap._trusted(X, Q, tuple(projs))


# --- minimal projective covers of chain functors -----------------------------


def _cover_of_coker(m: NatMap) -> tuple[Cover, NatMap]:
    """Minimal cover P of coker m and a lift P -> cod m of its cover map: S T
    solves C X = T canonically, for the quotient map C with section S."""
    Q, _, secs = _quotient(m.cod, m.comps)
    cov = minimal_cover(Q)
    return cov, assemble_free_map(cov.P, m.cod, [secs[z] @ v for (z, _), v in zip(cov.generators, cov.sections)])


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
    return NatMap._trusted(u.dom, incl.dom, tuple(map(coordinates, incl.comps, stacked)))


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
        # On a poset of dimension <= 1 it closes whenever the domain is cofibrant.
        bad = [(n, q) for n, F in enumerate(X.layers) for q, d in enumerate(minimal_cover(F).P.dims) if d != F.dims[q]]
        cause = "the poset is not of dimension <= 1"
        if bad and X.poset.dimension().at_most_one():
            n, q = bad[0]
            cause = f"the domain is not cofibrant: its degree-{n} layer is not projective at {X.poset.names[q]!r}"
        raise KernelNotProjectiveError(f"cofibrant factorization does not close at the top degree; {cause}")

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
    """Summands of the decomposed object `obj`."""

    obj: ChainFunctor
    summands: tuple[SummandLabel, ...]


def structure_decompose(C: ChainFunctor) -> Decomposition:
    """Split a cofibrant chain functor over a dimension-<=1 poset into
    spheres on minimal resolutions and disks on projectives.

    The labels are the structure theorem's invariants: in degree m, S^m on
    the minimal resolution P1_m -> P0_m of H_m(C), then D^(m+1) on E_(m+1),
    where C_m's cover generators count P0_m + P1_(m-1) + E_(m+1) + E_m."""
    if not C.poset.dimension().at_most_one():
        raise HomologyNotResolvableError("structure decomposition requires a poset of dimension <= 1")
    if not is_cofibrant(C):
        raise ValidationError("structure decomposition requires a cofibrant (degreewise projective) input")
    summands, below = [], Counter()  # P1_(m-1) + E_m, empty when C_m is zero
    for m in (m for m, F in enumerate(C.layers) if not F.is_zero()):
        rest, below = Counter(dict(minimal_cover(C.layers[m]).generators)) - below, Counter()
        if not rest:  # C_m lies in the summands below m, so H_m = 0
            continue
        H = homology_functor(C, m)
        if not H.is_zero():
            try:
                res = minimal_resolution(H)
            except KernelNotProjectiveError as exc:
                raise HomologyNotResolvableError(str(exc)) from exc
            sphere = suspension(ChainFunctor._trusted([res.p0, res.p1], [res.d]), m).trimmed()
            summands.append(SummandLabel("sphere", m, res.gens0, res.gens1, sphere))
            rest, below = rest - Counter(dict(res.gens0)), Counter(dict(res.gens1))
        if rest:
            P = free_on_generators(C.poset, rest.items(), C.p)
            disk = suspension(ChainFunctor._trusted([P, P], [NatMap.identity(P)]), m)
            summands.append(SummandLabel("disk", m + 1, P.generators, (), disk))
            below += rest
    return Decomposition(C, tuple(summands))


def reassemble(dec: Decomposition) -> ChainFunctor:
    """Direct sum of the realized summand labels, in decomposition order."""
    if not dec.summands:
        return zero_chain(dec.obj.poset, dec.obj.p)
    total, _, _ = direct_sum_chains([s.complex for s in dec.summands])
    return total

