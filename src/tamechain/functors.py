"""Vector-space valued functors on finite posets.

A functor assigns a dimension to every element and a matrix to every
cover relation.  Composites along longer paths are formed on demand by
`map_leq` along one cover path and cached.

The public constructors of `VectFunctor` and `NatMap` validate their
input: shapes, moduli, naturality, and path independence on posets of
dimension 2 or more (on dimension <= 1 two distinct cover paths would
split at an element with two incomparable covers and meet again above,
which is exactly the dimension-2 witness).  Internal constructions are
trusted: composites, identities, zeros, direct sums, free functors and
maps out of them, kernels, cokernels, restrictions and Kan extensions
hold their invariants by construction and build through the private
`_trusted` constructor, which runs no check.  The test suite replaces
`_trusted` with the checking constructor, so it re-checks every one of
them.

A free functor on (element, multiplicity) generators gives each
coordinate one owner element: F(q) holds the coordinates whose owner is
<= q, in generator order, and every cover map is the 0/1 inclusion of
those coordinates, the shared identity where both ends agree.  Maps out
of free functors and the witnesses of direct sums follow the same index
rule, and `Cover` and `Resolution` read their generators from their
free functors; a `Cover` forms its map `s` when first read.
Subfunctor maps are read from the unit rows of canonical bases.

On top of that sit colimits over subposets, left Kan extension (colimit
route and transfer route), local homology at an element, radicals,
minimal projective covers, and length-<=1 minimal resolutions.  The
radical, the minimal cover and the dimensions of H0/H1 at an element x
all read one map, `_incoming`: the map into F(x) from the elements x
covers (its image, the sections of its cokernel, and its rank).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import KernelNotProjectiveError, ValidationError
from .field import Mat, coordinates, kernel, cokernel, rref
from .posets import FinPoset, RealizedPoset, _greatest_below, realize

__all__ = [
    "VectFunctor",
    "NatMap",
    "Cover",
    "Resolution",
    "Colimit",
    "LocalHomology",
    "free_on_generators",
    "assemble_free_map",
    "direct_sum_functors",
    "colim_over",
    "kan_extend",
    "local_homology",
    "radical",
    "minimal_cover",
    "is_projective",
    "minimal_resolution",
    "ker_functor",
    "coker_functor",
    "column_space_basis",
]


class VectFunctor:
    """Functor poset -> vect_{F_p}: dims per element, matrix per cover."""

    # (element, multiplicity) blocks when `free_on_generators` built it.
    generators: Optional[tuple[tuple[int, int], ...]] = None

    def __init__(self, poset: FinPoset, dims: Sequence[int], maps: dict[tuple[int, int], Mat], p: int):
        dims = tuple(int(d) for d in dims)
        if len(dims) != poset.n or any(d < 0 for d in dims):
            raise ValidationError("functor dims must list one non-negative value per element")
        full: dict[tuple[int, int], Mat] = {}
        for y, x in poset.covers:
            m = maps.get((y, x))
            if m is None:
                m = Mat.zeros(dims[x], dims[y], p)
            if m.p != p:
                raise ValidationError(f"cover map for {(y, x)} uses modulus {m.p}, expected {p}")
            if m.shape != (dims[x], dims[y]):
                raise ValidationError(
                    f"cover map for ({poset.names[y]}, {poset.names[x]}) has shape {m.shape}, "
                    f"expected {(dims[x], dims[y])}"
                )
            full[(y, x)] = m
        for key in maps:
            if key not in full:
                raise ValidationError(f"map given for non-cover pair {key}")
        self._assign(poset, dims, full, p)
        if not poset.dimension().at_most_one():
            self._compose_all()

    @classmethod
    def _trusted(cls, poset: FinPoset, dims: Sequence[int], maps: dict[tuple[int, int], Mat], p: int) -> "VectFunctor":
        """The functor of an internal construction, unchecked: maps holds a
        matrix of the right shape for every cover, and composites are path
        independent by construction."""
        F = cls.__new__(cls)
        F._assign(poset, tuple(dims), maps, p)
        return F

    def _assign(self, poset: FinPoset, dims: tuple[int, ...], maps: dict[tuple[int, int], Mat], p: int) -> None:
        self.poset = poset
        self.dims = dims
        self.maps = maps
        self.p = p
        # Composites formed so far, keyed by target and then source.
        self._into: list[dict[int, Mat]] = [{} for _ in range(poset.n)]
        self._cover: Optional[Cover] = None

    def _compose_all(self) -> None:
        """Fill the composite cache, checking path independence.  A cover
        (y, x) extends only the composites that end at y."""
        into = self._into
        for e in range(self.poset.n):
            into[e][e] = Mat.identity(self.dims[e], self.p)
        for x in self.poset.linear_extension():
            at_x = into[x]
            for y in self.poset.covered_by(x):
                step = self.maps[(y, x)]
                for src, m in into[y].items():
                    comp = step @ m
                    prev = at_x.get(src)
                    if prev is None:
                        at_x[src] = comp
                    elif prev != comp:
                        raise ValidationError(
                            f"functoriality fails between {self.poset.names[src]} and {self.poset.names[x]}"
                        )

    def map_leq(self, y: int, x: int) -> Mat:
        """F(y <= x), composed down from x along covers toward y.  The walk
        stops at the first cached composite and caches each one it forms;
        it is a loop because realizations hold long chains."""
        below = self.poset.leq_matrix[y]
        if not below[x]:
            raise ValueError(f"{self.poset.names[y]} is not below {self.poset.names[x]}")
        into = self._into
        if y == x:
            return Mat.identity(self.dims[x], self.p)
        path = []
        z = x
        while z != y and y not in into[z]:
            path.append(z)
            z = next(c for c in self.poset.covered_by(z) if below[c])
        if z == y:
            z = path.pop()
            into[z][y] = self.maps[(y, z)]
        m = into[z][y]
        for w in reversed(path):
            m = self.maps[(z, w)] @ m
            into[w][y] = m
            z = w
        return m

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def total_dim(self) -> int:
        return sum(self.dims)

    def restrict(self, subset: Sequence[int]) -> "VectFunctor":
        """Restriction to a full subposet (composite maps become covers)."""
        subset = sorted(set(subset))
        sub = self.poset.restrict(subset)
        maps = {
            (a, b): self.map_leq(subset[a], subset[b])
            for a, b in sub.covers
        }
        return VectFunctor._trusted(sub, [self.dims[e] for e in subset], maps, self.p)

    def __repr__(self) -> str:
        return f"VectFunctor(dims={self.dims}, p={self.p})"


def _same_poset(P: FinPoset, Q: FinPoset) -> bool:
    return P is Q or (P.names == Q.names and P.covers == Q.covers)


@dataclass(frozen=True)
class NatMap:
    """Natural transformation between functors on the same poset."""

    dom: VectFunctor
    cod: VectFunctor
    comps: tuple[Mat, ...]

    def __post_init__(self):
        if self.dom.p != self.cod.p or not _same_poset(self.dom.poset, self.cod.poset):
            raise ValidationError("natural map requires a common poset and modulus")
        if len(self.comps) != self.dom.poset.n:
            raise ValidationError("one component per element required")
        for x, m in enumerate(self.comps):
            if m.shape != (self.cod.dims[x], self.dom.dims[x]):
                raise ValidationError(f"component at {self.dom.poset.names[x]} has shape {m.shape}")
            if m.p != self.dom.p:
                raise ValidationError(f"component at {self.dom.poset.names[x]} uses modulus {m.p}, expected {self.dom.p}")
        for y, x in self.dom.poset.covers:
            if self.cod.maps[(y, x)] @ self.comps[y] != self.comps[x] @ self.dom.maps[(y, x)]:
                raise ValidationError(
                    f"naturality fails on cover ({self.dom.poset.names[y]}, {self.dom.poset.names[x]})"
                )

    @classmethod
    def _trusted(cls, dom: VectFunctor, cod: VectFunctor, comps: tuple[Mat, ...]) -> "NatMap":
        """The natural map of an internal construction, unchecked: one
        component of the right shape per element, natural by construction."""
        nat = cls.__new__(cls)
        nat.__dict__.update(dom=dom, cod=cod, comps=comps)
        return nat

    def __matmul__(self, other: "NatMap") -> "NatMap":
        return NatMap._trusted(other.dom, self.cod, tuple(a @ b for a, b in zip(self.comps, other.comps)))

    @staticmethod
    def identity(F: VectFunctor) -> "NatMap":
        return NatMap._trusted(F, F, tuple(Mat.identity(d, F.p) for d in F.dims))

    @staticmethod
    def zero(F: VectFunctor, G: VectFunctor) -> "NatMap":
        return NatMap._trusted(F, G, tuple(Mat.zeros(G.dims[x], F.dims[x], F.p) for x in range(F.poset.n)))

    def is_epi(self) -> bool:
        return all(m.rank() == m.rows for m in self.comps)

    def is_mono(self) -> bool:
        return all(m.rank() == m.cols for m in self.comps)

    def is_iso(self) -> bool:
        return all(m.rows == m.cols and m.rank() == m.rows for m in self.comps)


# --- free functors ----------------------------------------------------------


def free_on_generators(poset: FinPoset, gens: Iterable[tuple[int, int]], p: int) -> VectFunctor:
    """Free functor on (element, multiplicity) generators, merged per
    element and sorted; its coordinates follow the module docstring."""
    merged: dict[int, int] = {}
    for z, d in gens:
        if d < 0:
            raise ValueError("generator multiplicity must be non-negative")
        merged[z] = merged.get(z, 0) + d
    gens = tuple((z, d) for z, d in sorted(merged.items()) if d > 0)
    owner = np.repeat(np.array([z for z, _ in gens], dtype=np.intp), [d for _, d in gens])
    coords = [np.flatnonzero(poset.leq_matrix[owner, q]) for q in range(poset.n)]
    maps = {
        (y, x): Mat.identity(len(coords[x]), p) if len(coords[x]) == len(coords[y])
        else Mat._wrap((coords[x][:, None] == coords[y]).astype(np.int64), p)
        for y, x in poset.covers
    }
    F = VectFunctor._trusted(poset, [len(c) for c in coords], maps, p)
    F.generators = gens
    return F


def assemble_free_map(free: VectFunctor, cod: VectFunctor, values: Sequence[Mat]) -> NatMap:
    """Map out of a free functor determined by one matrix per generator,
    each of shape cod(z) x multiplicity."""
    leq = free.poset.leq_matrix
    comps = []
    for q in range(free.poset.n):
        cols = [cod.map_leq(z, q) @ v for (z, _), v in zip(free.generators, values) if leq[z, q]]
        comps.append(Mat.hstack(cols) if cols else Mat.zeros(cod.dims[q], 0, free.p))
    return NatMap._trusted(free, cod, tuple(comps))


def direct_sum_functors(functors: Sequence[VectFunctor]) -> tuple[VectFunctor, list[NatMap], list[NatMap]]:
    """Direct sum with inclusion and projection witnesses: at q, the rows
    of the identity at each summand's running offset."""
    poset = functors[0].poset
    p = functors[0].p
    dims = [sum(F.dims[q] for F in functors) for q in range(poset.n)]
    maps = {
        (y, x): Mat.block_diag([F.maps[(y, x)] for F in functors], p)
        for y, x in poset.covers
    }
    total = VectFunctor._trusted(poset, dims, maps, p)
    incls, projs = [], []
    at = [0] * poset.n
    for F in functors:
        rows = [Mat.identity(dims[q], p).arr[at[q] : at[q] + d] for q, d in enumerate(F.dims)]
        at = [a + d for a, d in zip(at, F.dims)]
        incls.append(NatMap._trusted(F, total, tuple(Mat._wrap(r.T, p) for r in rows)))
        projs.append(NatMap._trusted(total, F, tuple(Mat._wrap(r, p) for r in rows)))
    return total, incls, projs


# --- colimits and Kan extension ---------------------------------------------


@dataclass(frozen=True)
class Colimit:
    """Colimit of a functor over a subposet, presented as a cokernel."""

    dim: int
    elements: tuple[int, ...]
    cocone: dict[int, Mat]
    proj: Mat
    section: Mat
    blocks: dict[int, tuple[int, int]]

    def map_into(self, dst: "Colimit", block: Callable[[int], Mat]) -> Mat:
        """The map from this colimit into dst induced by block(s): one
        matrix per element s of this colimit, which dst must also hold."""
        moved = np.zeros((dst.proj.cols, self.section.rows), dtype=np.int64)
        for s in self.elements:
            ya, yb = self.blocks[s]
            xa, xb = dst.blocks[s]
            moved[xa:xb, ya:yb] = block(s).arr
        return dst.proj @ Mat._wrap(moved, self.proj.p) @ self.section


def colim_over(F: VectFunctor, subset: Iterable[int]) -> Colimit:
    """coker of the difference map over the induced covers of the subset."""
    elements = tuple(sorted(set(subset)))
    p = F.p
    blocks = {}
    at = 0
    for s in elements:
        blocks[s] = (at, at + F.dims[s])
        at += F.dims[s]
    covers = F.poset.restrict(elements).covers if elements else ()
    delta = np.zeros((at, sum(F.dims[elements[a]] for a, _ in covers)), dtype=np.int64)
    c = 0
    for a, b in covers:
        y, x = elements[a], elements[b]
        d = F.dims[y]
        delta[blocks[x][0] : blocks[x][1], c : c + d] = F.map_leq(y, x).arr
        # The -identity block, written as its residue p - 1.
        delta[blocks[y][0] + np.arange(d), c + np.arange(d)] = p - 1
        c += d
    delta = Mat._wrap(delta, p)
    proj, section = cokernel(delta)
    cocone = {s: proj.take_cols(range(*blocks[s])) for s in elements}
    return Colimit(proj.rows, elements, cocone, proj, section, blocks)


@dataclass(frozen=True)
class KanExtension:
    functor: VectFunctor
    unit: tuple[Mat, ...]  # F(d) -> ext(embed[d]), an iso for full inclusions
    method: str
    cocones: Optional[dict[int, Colimit]] = None


def _check_embedding(F: VectFunctor, ambient: FinPoset, embed: Sequence[int]) -> tuple[int, ...]:
    embed = tuple(int(e) for e in embed)
    if len(embed) != F.poset.n or len(set(embed)) != len(embed):
        raise ValidationError("embedding must inject the functor poset into the ambient poset")
    idx = np.array(embed, dtype=np.intp)
    if not np.array_equal(F.poset.leq_matrix, ambient.leq_matrix[idx[:, None], idx]):
        raise ValidationError("embedding is not a full order embedding")
    return embed


def kan_extend(F: VectFunctor, ambient: FinPoset, embed: Sequence[int], method: str = "auto") -> KanExtension:
    """Left Kan extension along a full subposet inclusion.

    method "colim" computes every value as a colimit over the down-set
    in the image, one colimit per distinct down-set;
    "transfer" precomposes with the transfer (valid when the image is
    closed and the ambient poset has dimension <= 1, else a ValueError);
    "auto" prefers the transfer route when it is available.
    """
    embed = _check_embedding(F, ambient, embed)
    image = set(embed)
    if method in ("auto", "transfer"):
        ok = ambient.dimension().at_most_one() and ambient.is_closed(image)
        if method == "transfer" and not ok:
            raise ValueError("the transfer route needs a closed image in a poset of dimension <= 1")
        method = "transfer" if ok else "colim"
    if method == "transfer":
        # t[x]: the element of F's poset that x transfers to, or -1.
        t = _greatest_below(
            F.poset.leq_matrix,
            ambient.leq_matrix[list(embed)],
            lambda x: f"of the subposet below {ambient.names[x]!r}",
        ).tolist()
        dims = [0 if t[x] < 0 else F.dims[t[x]] for x in range(ambient.n)]
        maps = {}
        for y, x in ambient.covers:
            if t[y] < 0 or t[x] < 0:
                maps[(y, x)] = Mat.zeros(dims[x], dims[y], F.p)
            else:
                maps[(y, x)] = F.map_leq(t[y], t[x])
        ext = VectFunctor._trusted(ambient, dims, maps, F.p)
        unit = tuple(Mat.identity(F.dims[d], F.p) for d in range(F.poset.n))
        return KanExtension(ext, unit, "transfer")
    if method != "colim":
        raise ValueError(f"unknown Kan extension method {method!r}")
    # Row x: the elements d of F's poset with embed[d] <= x.  Points with
    # the same down-set in the image share one colimit.
    downs = np.ascontiguousarray(ambient.leq_matrix[list(embed)].T)
    shared: dict[bytes, Colimit] = {}
    colims = {}
    for x in range(ambient.n):
        key = downs[x].tobytes()
        if key not in shared:
            shared[key] = colim_over(F, np.flatnonzero(downs[x]).tolist())
        colims[x] = shared[key]
    dims = [colims[x].dim for x in range(ambient.n)]
    # A cover inside one shared colimit maps by proj @ section = 1.
    maps = {
        (y, x): Mat.identity(dims[x], F.p) if colims[y] is colims[x]
        else colims[y].map_into(colims[x], lambda s: Mat.identity(F.dims[s], F.p))
        for y, x in ambient.covers
    }
    ext = VectFunctor._trusted(ambient, dims, maps, F.p)
    unit = tuple(colims[embed[d]].cocone[d] for d in range(F.poset.n))
    return KanExtension(ext, unit, "colim", colims)


# --- local homology, radical, covers ----------------------------------------


@dataclass(frozen=True)
class LocalHomology:
    """The dimensions of H0/H1 at an element: of the cokernel and the
    kernel of the map into it from the elements it covers (`_incoming`)."""

    h0_dim: int
    h1_dim: int


def _incoming(F: VectFunctor, x: int) -> Mat:
    """The maps into F(x) from the elements that x covers, side by side."""
    ys = F.poset.covered_by(x)
    if ys:
        return Mat.hstack([F.maps[(y, x)] for y in ys])
    return Mat.zeros(F.dims[x], 0, F.p)


def local_homology(F: VectFunctor, x: int) -> LocalHomology:
    A = _incoming(F, x)
    r = A.rank()
    return LocalHomology(A.rows - r, A.cols - r)


def column_space_basis(M: Mat) -> Mat:
    """Canonical (echelon) basis of the column space, as columns."""
    rr = rref(M.transpose(), transform=False)
    return rr.R.take_rows(range(rr.rank)).transpose()


def radical(F: VectFunctor) -> tuple[VectFunctor, NatMap]:
    """Subfunctor of images of all maps from strictly smaller elements."""
    return _subfunctor_from_bases(F, [column_space_basis(_incoming(F, x)) for x in range(F.poset.n)])


def _spanned_by(F: VectFunctor, sources: Sequence[Sequence[int]]) -> list[Mat]:
    """Canonical bases, per element q, of the span of the images of
    F(y <= q) for the y in sources[q]; the sources must make the spans a
    subfunctor (every source of q lies below a source of each q' >= q)."""
    bases = []
    for q, ys in enumerate(sources):
        stacked = Mat.hstack([F.map_leq(y, q) for y in ys]) if ys else Mat.zeros(F.dims[q], 0, F.p)
        bases.append(column_space_basis(stacked))
    return bases


def _subfunctor_from_bases(F: VectFunctor, bases: list[Mat]) -> tuple[VectFunctor, NatMap]:
    maps = {(y, x): coordinates(bases[x], F.maps[(y, x)] @ bases[y]) for y, x in F.poset.covers}
    sub = VectFunctor._trusted(F.poset, [b.cols for b in bases], maps, F.p)
    return sub, NatMap._trusted(sub, F, tuple(bases))


def ker_functor(nat: NatMap) -> tuple[VectFunctor, NatMap]:
    return _subfunctor_from_bases(nat.dom, [kernel(m) for m in nat.comps])


def coker_functor(nat: NatMap) -> tuple[VectFunctor, NatMap]:
    return _quotient(nat.cod, nat.comps)[:2]


def _quotient(G: VectFunctor, images: Sequence[Mat]) -> tuple[VectFunctor, NatMap, list[Mat]]:
    """G modulo the subfunctor spanned by the columns of images[q] at each
    q, with the quotient map and its canonical section at each q."""
    projs, sections = [], []
    for m in images:
        c, s = cokernel(m)
        projs.append(c)
        sections.append(s)
    dims = [c.rows for c in projs]
    maps = {
        (y, x): projs[x] @ G.maps[(y, x)] @ sections[y]
        for y, x in G.poset.covers
    }
    Q = VectFunctor._trusted(G.poset, dims, maps, G.p)
    return Q, NatMap._trusted(G, Q, tuple(projs)), sections


@dataclass(frozen=True)
class Cover:
    """Minimal projective cover s: P -> F, P free on the generators; s is formed when first read."""

    P: VectFunctor
    F: VectFunctor
    sections: tuple[Mat, ...]  # one per generator

    @property
    def generators(self) -> tuple[tuple[int, int], ...]:
        return self.P.generators

    @functools.cached_property
    def s(self) -> NatMap:
        return assemble_free_map(self.P, self.F, self.sections)


def minimal_cover(F: VectFunctor) -> Cover:
    """Minimal projective cover: one generator block per element, of size
    dim H0 there, mapped in through the canonical section of the quotient.
    It is built once per functor and kept on it."""
    if F._cover is None:
        sections = [cokernel(_incoming(F, x))[1] for x in range(F.poset.n)]
        P = free_on_generators(F.poset, ((x, s.cols) for x, s in enumerate(sections)), F.p)
        F._cover = Cover(P, F, tuple(sections[z] for z, _ in P.generators))
    return F._cover


def is_projective(F: VectFunctor) -> Optional[Cover]:
    """The minimal cover of F when it is an iso (F projective), else None.
    The cover map is onto, so it is an iso exactly when the dims agree."""
    cov = minimal_cover(F)
    return cov if cov.P.dims == F.dims else None


@dataclass(frozen=True)
class Resolution:
    """Minimal projective resolution of length <= 1: 0 -> P1 -d-> P0 -aug-> F."""

    p1: VectFunctor
    p0: VectFunctor
    d: NatMap
    aug: NatMap

    @property
    def gens0(self) -> tuple[tuple[int, int], ...]:
        return self.p0.generators

    @property
    def gens1(self) -> tuple[tuple[int, int], ...]:
        return self.p1.generators

    @property
    def length(self) -> int:
        return 0 if self.p1.is_zero() else 1


def minimal_resolution(F: VectFunctor) -> Resolution:
    cov = minimal_cover(F)
    K, incl = ker_functor(cov.s)
    kcov = is_projective(K)
    if kcov is None:
        raise KernelNotProjectiveError(
            "kernel of the minimal cover is not projective; the indexing poset is not of dimension <= 1"
        )
    d = incl @ kcov.s
    return Resolution(kcov.P, cov.P, d, cov.s)


def common_realized_discretization(base: FinPoset, items: Sequence[VectFunctor]):
    """Common discretization of functors living on realizations of closed
    subsets of one base poset: realize the closure of the union of the
    subsets with the union of the coordinate sets, then Kan-extend each
    functor along the point-name embedding."""
    subsets: set[int] = set()
    coords = set()
    for F in items:
        rp = F.poset
        if not isinstance(rp, RealizedPoset):
            raise ValidationError("functors must be carried by realized posets")
        if not _same_poset(rp.base, base):
            raise ValidationError("all realizations must share the base poset")
        subsets.update(rp.d_subset)
        coords.update(rp.vset)
    union = realize(base, [base.names[e] for e in base.closure(subsets)], sorted(coords))
    out = []
    for F in items:
        embed = [union.index(name) for name in F.poset.names]
        out.append(kan_extend(F, union, embed).functor)
    return union, out
