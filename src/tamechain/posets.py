"""Finite posets, order dimension (0 / 1 / 2+), suplim and closure,
realizations of dimension-<=1 posets, and transfers.

A poset is stored as its boolean order matrix `leq_matrix`, and every
order question (covers, dimension, suplim, closure, restriction,
transfer) is an array operation on it.  Boolean matrix products are
taken in float64 BLAS; they count common elements, which is exact while
a poset has fewer than 2**53 elements.  Transfers take no product.

Elements are addressed by integer index internally and by name at the
boundaries.  A realization holds each point as three integers (top,
bottom, coordinate rank) fixed at construction; its order, covers,
dimension and transfers follow from them by integer comparisons.
"""

from __future__ import annotations

import bisect
import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadCoordinateError,
    CycleDetectedError,
    DimensionTooHighError,
    NameCollisionError,
    NotClosedError,
    TooLargeError,
    TransferUndefinedError,
)

__all__ = [
    "PosetDim",
    "FinPoset",
    "Vertex",
    "Edge",
    "Point",
    "RealizedPoset",
    "realize",
    "transfer_point",
    "alpha_v_formula",
    "MAX_REALIZATION_POINTS",
]

# A realization with more points is an input error.  `realize` with 10,000
# points takes about 1 s and 320 MB on 2 CPUs; 20,000 take 4.4 s and 1.2 GB.
MAX_REALIZATION_POINTS = 10_000


class PosetDim(enum.Enum):
    ZERO = 0
    ONE = 1
    TWO_PLUS = 2

    def at_most_one(self) -> bool:
        return self is not PosetDim.TWO_PLUS


class FinPoset:
    """Finite poset stored as its order matrix: `leq_matrix[a, b]` is True
    when a <= b.  Covers, dimension, suplims, closures and restrictions are
    array operations on that matrix; `covers` is its transitive reduction,
    sorted."""

    def __init__(self, names: Sequence[str], covers: Iterable[tuple[int, int]]):
        names = tuple(str(n) for n in names)
        self._init_order(names, _closure_of_covers(len(names), covers))

    def _init_order(self, names: tuple[str, ...], leq: np.ndarray) -> None:
        """The checking constructor body: `leq` must be a reflexive, transitive
        and antisymmetric boolean matrix indexed like `names`.  One count
        product finds the covers."""
        lt = leq.copy()
        np.fill_diagonal(lt, False)
        ys, xs = np.nonzero(lt & ~(_counts(lt, lt) > 0))
        self._trusted(names, leq, tuple(zip(ys.tolist(), xs.tolist())), None)

    def _trusted(self, names: tuple[str, ...], leq: np.ndarray, covers: tuple, dim: Optional[PosetDim]) -> None:
        """The shared constructor body, which trusts `covers` to be the sorted
        transitive reduction of `leq` and `dim` (None: not known) its dimension."""
        self._index = {name: i for i, name in enumerate(names)}
        if len(self._index) != len(names):
            raise ValueError("poset element names must be distinct")
        self.names = names
        self.n = len(names)
        self.leq_matrix = leq
        self.covers = covers
        self._covered_by: dict[int, tuple[int, ...]] = {}
        for y, x in covers:
            self._covered_by[x] = self._covered_by.get(x, ()) + (y,)
        self._dim = dim
        self._linear: Optional[tuple[int, ...]] = None

    @classmethod
    def from_covers(cls, names: Sequence[str], covers: Iterable[tuple[str, str]]) -> "FinPoset":
        """Build from (y, x) name pairs meaning y is covered by x."""
        names = tuple(str(n) for n in names)
        idx = {n: i for i, n in enumerate(names)}
        pairs = []
        for y, x in covers:
            if y not in idx or x not in idx:
                raise ValueError(f"cover ({y!r}, {x!r}) mentions unknown element")
            pairs.append((idx[y], idx[x]))
        return cls(names, pairs)

    def index(self, name: str) -> int:
        return self._index[name]

    def leq(self, a: int, b: int) -> bool:
        return bool(self.leq_matrix[a, b])

    def covered_by(self, x: int) -> tuple[int, ...]:
        """P(x): the elements covered by x."""
        return self._covered_by.get(x, ())

    def linear_extension(self) -> tuple[int, ...]:
        """Elements by size of their down-set, ties by index."""
        if self._linear is None:
            order = np.argsort(self.leq_matrix.sum(axis=0), kind="stable")
            self._linear = tuple(order.tolist())
        return self._linear

    def dimension(self) -> PosetDim:
        if self._dim is None:
            self._dim = self._compute_dimension()
        return self._dim

    def _compute_dimension(self) -> PosetDim:
        """TWO_PLUS when two incomparable elements have both a common lower
        and a common upper bound."""
        if not self.covers:
            return PosetDim.ZERO
        leq = self.leq_matrix
        witness = ~(leq | leq.T) & (_counts(leq.T, leq) > 0) & (_counts(leq, leq.T) > 0)
        return PosetDim.TWO_PLUS if witness.any() else PosetDim.ONE

    def suplim(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Minimal upper bounds of the subset."""
        ds = sorted(set(subset))
        if not ds:
            return ()
        ub = np.flatnonzero(self.leq_matrix[ds].all(axis=0))
        minimal = self.leq_matrix[ub[:, None], ub].sum(axis=0) == 1
        return tuple(ub[minimal].tolist())

    def closure(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Least closed superset: fixpoint of suplim over subsets.

        Pairwise suplims generate on every finite poset: a minimal upper
        bound u of U u {c} lies above a minimal upper bound m of U, and u
        is then a minimal upper bound of {m, c}.  So the set takes in the
        suplims of its pairs until stable; for each member one count
        product finds, among the upper bounds of its pairs, those with no
        other upper bound below them.  For dimension <= 1 an element u
        outside the set is the suplim of two members exactly when the
        members below u lie below two different lower covers of u: an
        upper bound strictly below u lies below a lower cover of u, and an
        element lies below at most one lower cover of u (two would be
        incomparable with a common lower and upper bound).
        """
        leq = self.leq_matrix
        inside = np.zeros(self.n, dtype=bool)
        inside[list(set(subset))] = True
        low = self.dimension().at_most_one()
        ys, xs = np.array(self.covers, dtype=np.intp).reshape(-1, 2).T
        while True:
            if low:
                reached = leq[inside].any(axis=0)
                joins = np.bincount(xs[reached[ys]], minlength=self.n) >= 2
            else:
                members = leq[inside]
                joins = np.zeros(self.n, dtype=bool)
                for row in members:
                    bounds = row & members
                    joins |= (bounds & (_counts(bounds, leq) == 1)).any(axis=0)
            joins &= ~inside
            if not joins.any():
                return tuple(np.flatnonzero(inside).tolist())
            inside |= joins

    def is_closed(self, subset: Iterable[int]) -> bool:
        sub = set(subset)
        return set(self.closure(sub)) == sub

    def restrict(self, subset: Sequence[int]) -> "FinPoset":
        """Full subposet on the given elements (induced order, reduced covers)."""
        subset = sorted(set(subset))
        idx = np.array(subset, dtype=np.intp)
        sub = FinPoset.__new__(FinPoset)
        sub._init_order(tuple(self.names[e] for e in subset), self.leq_matrix[idx[:, None], idx])
        return sub

    def __repr__(self) -> str:
        return f"FinPoset({list(self.names)}, covers={[(self.names[y], self.names[x]) for y, x in self.covers]})"


def _counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry (i, j) counts the k with a[i, k] and b[k, j]: a boolean product
    taken in float64 BLAS, exact while the inner dimension is below 2**53."""
    return a.astype(np.float64) @ b.astype(np.float64)


def _closure_of_covers(n: int, covers: Iterable[tuple[int, int]]) -> np.ndarray:
    leq = np.eye(n, dtype=bool)
    pairs = set()
    for y, x in covers:
        if not (0 <= y < n and 0 <= x < n):
            raise ValueError(f"cover index out of range: {(y, x)}")
        if y == x:
            raise CycleDetectedError(f"self cover at element {y}")
        pairs.add((y, x))
    for y, x in pairs:
        leq[y, x] = True
    # Warshall closure.
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k, :])
    both = leq & leq.T
    if np.count_nonzero(both) > n:
        a, b = np.argwhere(np.triu(both, 1))[0].tolist()
        raise CycleDetectedError(f"cover digraph has a cycle through {a} and {b}")
    return leq


def _greatest_below(order: np.ndarray, below: np.ndarray, where: Callable[[int], str]) -> np.ndarray:
    """Entry j: the greatest member i with below[i, j], or -1 when there is
    none; TransferUndefinedError names where(j) for the first j with
    several maximal ones.  `order` is the order matrix of the members.
    The members below a member i all lie below j, so i is greatest below
    j exactly when they are as many as the members below j: the member
    below j with the most members below it decides each query.  Members
    below no query are not counted."""
    under = below.sum(axis=0)
    size = (order & below.any(axis=1)[:, None]).sum(axis=0)
    best = np.where(below, size[:, None], -1).argmax(axis=0)
    found = (size[best] == under) & (under > 0)
    undefined = np.flatnonzero(~found & (under > 0))
    if undefined.size:
        raise TransferUndefinedError(f"no greatest element {where(int(undefined[0]))}")
    return np.where(found, best, -1)


# --- realizations -----------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    q: str

    def __repr__(self) -> str:
        return f"Vertex({self.q})"


@dataclass(frozen=True)
class Edge:
    """A point on the open interval inserted into the cover bottom < top."""

    top: str
    bottom: str
    t: Fraction

    def __repr__(self) -> str:
        return f"Edge({self.top}, {self.bottom}, {self.t})"


Point = Union[Vertex, Edge]


def _check_coordinate(t: Fraction) -> Fraction:
    t = Fraction(t)
    if not -1 < t < 0:
        raise BadCoordinateError(f"edge coordinate {t} is not in (-1, 0)")
    return t


def point_name(z: Point) -> str:
    if isinstance(z, Vertex):
        return z.q
    return f"{z.top}~{z.bottom}~{z.t.numerator}/{z.t.denominator}"


class RealizedPoset(FinPoset):
    """Finite full subposet of the realization of a dimension-<=1 poset,
    spanned by the vertices of a closed subset D and the edge points of
    its covers at coordinates V.

    A point is held as three integers: the base indices of its top and
    bottom (both q for the vertex q) and the rank of its coordinate, its
    index in the sorted V (len(V) for a vertex).  The points are sorted on
    these integers at construction.  A point lies below another when its
    top lies below the other's bottom in the base, or when both lie on one
    edge and its rank is at most the other's: one broadcast over the base
    order matrix.  The covers, the dimension and the transfers follow from
    the integer ends alone."""

    def __init__(self, base: FinPoset, d_subset: Sequence[int], vset: Sequence[Fraction]):
        if not base.dimension().at_most_one():
            raise DimensionTooHighError("realization requires a poset of dimension at most 1")
        d_subset = tuple(sorted(set(d_subset)))
        if not base.is_closed(d_subset):
            raise NotClosedError("realization subset must be closed under suplim")
        vset = tuple(sorted(set(_check_coordinate(v) for v in vset)))
        k = len(vset)
        edges = [(x, y) for x in d_subset for y in base.covered_by(x)]
        size = len(d_subset) + k * len(edges)
        if size > MAX_REALIZATION_POINTS:
            raise TooLargeError(f"the realization would have {size:,} points, above the bound {MAX_REALIZATION_POINTS:,}")
        self.base, self.d_subset, self.vset = base, d_subset, vset
        self._vertex = {q: i for i, q in enumerate(d_subset)}
        self._dv = np.array(d_subset, dtype=np.intp)
        ends = [(q, q, k) for q in d_subset] + [(x, y, r) for x, y in edges for r in range(k)]
        self._ends = np.array(ends, dtype=np.intp).reshape(-1, 3).T
        top, bottom, rank = self._ends
        leq = base.leq_matrix[top[:, None], bottom] | (
            (top[:, None] == top) & (bottom[:, None] == bottom) & (rank[:, None] <= rank)
        )
        # Edge e holds the points len(D) + e*k .. len(D) + e*k + k - 1, from
        # its bottom to its top.  Its first point covers the maximal
        # vertices below its bottom, and its top vertex covers its last.
        names = base.names
        suffixes = [f"~{v.numerator}/{v.denominator}" for v in vset]
        point_names = [names[q] for q in d_subset]
        covers = [] if k else list(base.restrict(d_subset).covers)
        for e, (x, y) in enumerate(edges if k else ()):
            point_names += [f"{names[x]}~{names[y]}{s}" for s in suffixes]
            first = len(d_subset) + e * k
            covers += [(i, i + 1) for i in range(first, first + k - 1)]
            covers.append((first + k - 1, self._vertex[x]))
            covers += [(self._vertex[m], first) for m in ([y] if y in self._vertex else self._maximal_below(y))]
        covers.sort()
        if len(set(point_names)) < len(point_names):
            self._name_collision(point_names)
        # A realization of a poset of dimension <= 1 has dimension <= 1.
        self._trusted(tuple(point_names), leq, tuple(covers), PosetDim.ONE if covers else PosetDim.ZERO)

    def _name_collision(self, point_names: list[str]) -> None:
        """Raise for the first point whose name an earlier point holds: a
        base element named like an edge point, or names that contain `~`."""
        first: dict[str, int] = {}
        for i, name in enumerate(point_names):
            if name in first:
                a, b = (self._point(*self._ends[:, j].tolist()) for j in (first[name], i))
                raise NameCollisionError(f"the realization points {a!r} and {b!r} are both named {name!r}")
            first[name] = i

    def _maximal_below(self, y: int) -> list[int]:
        """The maximal elements of D below the base element y."""
        leq = self.base.leq_matrix
        below = self._dv[leq[self._dv, y]]
        return below[leq[below[:, None], below].sum(axis=1) == 1].tolist()

    def _point(self, top: int, bottom: int, rank: int) -> Point:
        names = self.base.names
        return Vertex(names[top]) if rank == len(self.vset) else Edge(names[top], names[bottom], self.vset[rank])

    @functools.cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(self._point(*ends) for ends in self._ends.T.tolist())

    def _point_ends(self, z: Point) -> tuple[int, int, int]:
        """Top, bottom and coordinate rank of a query point of the ambient
        realization: the number of coordinates of V at or below it minus
        one, which compares exactly with the ranks of this poset's points."""
        if isinstance(z, Vertex):
            q = self.base.index(z.q)
            return q, q, len(self.vset)
        return self.base.index(z.top), self.base.index(z.bottom), bisect.bisect_right(self.vset, z.t) - 1

    def transfer(self, z: Point) -> Optional[Point]:
        """Transfer of the inclusion into the ambient realization: the greatest
        point of this poset below the (symbolic) query, or None for -infinity.
        A query (t, b, r) with t in D and r >= 0 is its own point; any other
        transfers to the greatest vertex of D below b."""
        if isinstance(z, Edge):
            _check_coordinate(z.t)
            if self.base.index(z.bottom) not in self.base.covered_by(self.base.index(z.top)):
                raise ValueError(f"{z!r} does not lie on a cover of the base poset")
        top, bottom, rank = self._point_ends(z)
        if top in self._vertex and rank >= 0:
            return self._point(top, bottom, rank)
        below = self._maximal_below(bottom)
        if len(below) > 1:
            raise TransferUndefinedError(f"no greatest element below {z!r}")
        return self._point(below[0], below[0], len(self.vset)) if below else None


def realize(base: FinPoset, d_subset: Optional[Sequence[str]] = None, vset: Sequence[Fraction] = ()) -> RealizedPoset:
    """S(Q, D, V): vertices of the closed subset D plus edge points of its
    covers at every coordinate of V.  D defaults to all of Q."""
    if d_subset is None:
        idx = range(base.n)
    else:
        idx = [base.index(n) for n in d_subset]
    return RealizedPoset(base, list(idx), list(vset))


def alpha_v_formula(base: FinPoset, vset: Sequence[Fraction], z: Point) -> Point:
    """Closed-form transfer onto S(Q, V): vertices stay fixed; an edge point
    drops to the greatest coordinate of V below it, or to its bottom vertex."""
    if isinstance(z, Vertex):
        return z
    below = [v for v in sorted(set(Fraction(v) for v in vset)) if v <= z.t]
    if not below:
        return Vertex(z.bottom)
    return Edge(z.top, z.bottom, max(below))


def transfer_point(amb: FinPoset, sub: Sequence[int], z: int) -> Optional[int]:
    """Greatest element of {d in sub : d <= z} in a finite ambient poset.

    Returns None (bottom) when the set is empty and raises
    TransferUndefinedError when it has several maximal elements.
    """
    members = sorted(set(sub))
    below = np.zeros((amb.n, 1), dtype=bool)
    below[members, 0] = amb.leq_matrix[members, z]
    (w,) = _greatest_below(amb.leq_matrix, below, lambda _: f"of the subposet below {amb.names[z]!r}")
    return None if w < 0 else int(w)
