"""Finite posets, order dimension (0 / 1 / 2+), suplim and closure,
realizations of dimension-<=1 posets, and transfers.

A poset is stored as its boolean order matrix `leq_matrix`, and every
order question (covers, dimension, suplim, closure, restriction,
transfer) is an array operation on it.  Boolean matrix products are
taken in float64 BLAS; they count common elements, which is exact while
a poset has fewer than 2**53 elements.

Transfers are one pass over the order matrix: one count product finds
the greatest subposet element below every queried point at once.

Elements are addressed by integer index internally and by name at the
boundaries.  Realization points live on exact rational coordinates; a
realization fixes each point's integer coordinate rank at construction,
so the order on an inserted open interval is decided by integer
comparisons.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadCoordinateError,
    CycleDetectedError,
    DimensionTooHighError,
    NotClosedError,
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
]


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
        """The one constructor body: `leq` must be a reflexive, transitive
        and antisymmetric boolean matrix indexed like `names`."""
        if len(set(names)) != len(names):
            raise ValueError("poset element names must be distinct")
        self.names = names
        self.n = len(names)
        self._index = {name: i for i, name in enumerate(names)}
        self.leq_matrix = leq
        lt = leq.copy()
        np.fill_diagonal(lt, False)
        self._cover_matrix = lt & ~(_counts(lt, lt) > 0)
        ys, xs = np.nonzero(self._cover_matrix)
        self.covers = tuple(zip(ys.tolist(), xs.tolist()))
        cov: dict[int, list[int]] = {}
        for y, x in self.covers:
            cov.setdefault(x, []).append(y)
        self._covered_by = {x: tuple(ys) for x, ys in cov.items()}
        self._dim: Optional[PosetDim] = None
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

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a: int, b: int) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def covered_by(self, x: int) -> tuple[int, ...]:
        """P(x): the elements covered by x."""
        return self._covered_by.get(x, ())

    def down_set(self, x: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.leq_matrix[:, x]).tolist())

    def up_set(self, x: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.leq_matrix[x, :]).tolist())

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

        For dimension <= 1 the pairwise suplims generate, and an element u
        outside the set is the suplim of two members exactly when the
        members below u lie below two different lower covers of u: an
        upper bound strictly below u lies below a lower cover of u, and an
        element lies below at most one lower cover of u (two would be
        incomparable with a common lower and upper bound).  Otherwise all
        subsets of the current set are fed back in until stable.
        """
        current = set(subset)
        if self.dimension().at_most_one():
            inside = np.zeros(self.n, dtype=bool)
            inside[list(current)] = True
            while True:
                reached = self.leq_matrix[inside].any(axis=0)
                joins = ~inside & ((self._cover_matrix & reached[:, None]).sum(axis=0) >= 2)
                if not joins.any():
                    return tuple(np.flatnonzero(inside).tolist())
                inside |= joins
        while True:
            new = set(current)
            items = sorted(current)
            if len(items) > 20:
                raise ValueError("closure fixpoint over subsets limited to 20 elements")
            for mask in range(1, 1 << len(items)):
                u = [items[k] for k in range(len(items)) if mask >> k & 1]
                new.update(self.suplim(u))
            if new == current:
                return tuple(sorted(current))
            current = new

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
    Member i is greatest below j when every member below j lies below i,
    so one count product decides every query."""
    live = np.flatnonzero(below.any(axis=1))
    if not live.size:
        return np.full(below.shape[1], -1, dtype=np.intp)
    below = below[live]
    under = below.sum(axis=0)
    greatest = below & (_counts(order[live[:, None], live].T, below) == under)
    found = greatest.any(axis=0)
    undefined = np.flatnonzero(~found & (under > 0))
    if undefined.size:
        raise TransferUndefinedError(f"no greatest element {where(int(undefined[0]))}")
    return np.where(found, live[greatest.argmax(axis=0)], -1)


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


def point_leq(base: FinPoset, z: Point, w: Point) -> bool:
    """z <= w in the realization of `base`: either pi0(z) <= pi-1(w) in the
    base, or both projections agree and T(z) <= T(w)."""
    if isinstance(z, Vertex):
        z0 = zm1 = base.index(z.q)
        zt = Fraction(0)
    else:
        z0, zm1, zt = base.index(z.top), base.index(z.bottom), z.t
    if isinstance(w, Vertex):
        w0 = wm1 = base.index(w.q)
        wt = Fraction(0)
    else:
        w0, wm1, wt = base.index(w.top), base.index(w.bottom), w.t
    if base.leq(z0, wm1):
        return True
    return z0 == w0 and zm1 == wm1 and zt <= wt


def _check_coordinate(t: Fraction) -> Fraction:
    t = Fraction(t)
    if not (Fraction(-1) < t < Fraction(0)):
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
    these integers at construction, and the rule of `point_leq` is then
    one broadcast over the base order matrix."""

    def __init__(self, base: FinPoset, d_subset: Sequence[int], vset: Sequence[Fraction]):
        if not base.dimension().at_most_one():
            raise DimensionTooHighError("realization requires a poset of dimension at most 1")
        d_subset = tuple(sorted(set(d_subset)))
        if not base.is_closed(d_subset):
            raise NotClosedError("realization subset must be closed under suplim")
        vset = tuple(sorted(set(_check_coordinate(v) for v in vset)))
        ends = [(q, q, len(vset)) for q in d_subset]
        ends += sorted((x, y, r) for x in d_subset for y in base.covered_by(x) for r in range(len(vset)))
        names = base.names
        self.base = base
        self.d_subset = d_subset
        self.vset = vset
        self.points = tuple(
            Vertex(names[x]) if r == len(vset) else Edge(names[x], names[y], vset[r]) for x, y, r in ends
        )
        self._ends = np.array(ends, dtype=np.intp).reshape(-1, 3).T
        top, bottom, rank = self._ends
        leq = base.leq_matrix[top[:, None], bottom] | (
            (top[:, None] == top) & (bottom[:, None] == bottom) & (rank[:, None] <= rank)
        )
        self._init_order(tuple(point_name(z) for z in self.points), leq)
        # A realization of a poset of dimension <= 1 has dimension <= 1.
        self._dim = PosetDim.ONE if self.covers else PosetDim.ZERO

    def _point_ends(self, z: Point) -> tuple[int, int, int]:
        """Top, bottom and coordinate rank of a query point of the ambient
        realization: the number of coordinates of V at or below it minus
        one, which compares exactly with the ranks of this poset's points."""
        if isinstance(z, Vertex):
            q = self.base.index(z.q)
            return q, q, len(self.vset)
        return self.base.index(z.top), self.base.index(z.bottom), bisect.bisect_right(self.vset, z.t) - 1

    def point_index(self, z: Point) -> Optional[int]:
        try:
            return self.index(point_name(z))
        except KeyError:
            return None

    def transfer(self, z: Point) -> Optional[Point]:
        """Transfer of the inclusion into the ambient realization: the greatest
        point of this poset below the (symbolic) query, or None for -infinity."""
        if isinstance(z, Edge):
            _check_coordinate(z.t)
            if self.base.index(z.bottom) not in self.base.covered_by(self.base.index(z.top)):
                raise ValueError(f"{z!r} does not lie on a cover of the base poset")
        z_top, z_bottom, z_rank = self._point_ends(z)
        top, bottom, rank = self._ends
        below = self.base.leq_matrix[top, z_bottom] | ((top == z_top) & (bottom == z_bottom) & (rank <= z_rank))
        (w,) = _greatest_below(self.leq_matrix, below[:, None], lambda _: f"below {z!r}")
        return None if w < 0 else self.points[w]


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
