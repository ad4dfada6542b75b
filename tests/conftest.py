"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import io
import random
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from tamechain.field import Mat, kernel
from tamechain.posets import FinPoset, Vertex, _counts
from tamechain.functors import (
    NatMap,
    VectFunctor,
    assemble_free_map,
    coker_functor,
    free_on_generators,
    ker_functor,
)
from tamechain import chains
from tamechain.chains import ChainFunctor, ChainMap, Factorization, classify_morphism
from tamechain.cli import run
from tamechain.morphisms import hom_space

# `pytest --hypothesis-profile=ci`: a failing example also prints the blob
# that `@reproduce_failure` replays; example counts and deadlines are as in
# the default profile and the tests' own settings.
settings.register_profile("ci", print_blob=True)


@pytest.fixture(autouse=True, scope="session")
def checked_internal_constructions():
    """The program trusts its internal constructions and builds them with
    `_trusted`, which runs no check.  The suite replaces `_trusted` with
    the checking constructor on all four functor and map classes, so every
    object the algorithms build is validated here.  Likewise every poset
    (a realization or a restriction included) has its given covers
    compared with the transitive reduction by the count product and a
    given dimension with the computed one at construction, and a poset
    whose dimension is set has it compared again the first time it is
    asked for.  Every factorization the staircase returns is classified
    (see `check_factorization`), wherever the module that calls it
    imported `minimal_cofibrant_factorization` from."""
    trusted = FinPoset._trusted
    dimension = FinPoset.dimension
    agreed = weakref.WeakSet()

    def checked_trusted(poset, names, leq, covers, dim):
        trusted(poset, names, leq, covers, dim)
        lt = leq.copy()
        np.fill_diagonal(lt, False)
        ys, xs = np.nonzero(lt & ~(_counts(lt, lt) > 0))
        if covers != tuple(zip(ys.tolist(), xs.tolist())):
            raise AssertionError(f"given covers {covers} of {poset!r} are not the transitive reduction")
        if dim is not None and dim is not poset._compute_dimension():
            raise AssertionError(f"given dimension {dim} of {poset!r} disagrees with the computed one")

    def checked_dimension(poset):
        if poset not in agreed:
            if poset._dim is not None and poset._dim is not poset._compute_dimension():
                raise AssertionError(f"preset dimension {poset._dim} of {poset!r} disagrees with the computed one")
            agreed.add(poset)
        return dimension(poset)

    with pytest.MonkeyPatch.context() as mp:
        for cls in (VectFunctor, NatMap, ChainFunctor, ChainMap):
            mp.setattr(cls, "_trusted", classmethod(lambda cls, *fields: cls(*fields)))
        mp.setattr(FinPoset, "_trusted", checked_trusted)
        mp.setattr(FinPoset, "dimension", checked_dimension)
        factorization = chains.minimal_cofibrant_factorization

        def classified_factorization(f: ChainMap) -> Factorization:
            fact = factorization(f)
            check_factorization(fact)
            return fact

        for module in list(sys.modules.values()):
            if getattr(module, "minimal_cofibrant_factorization", None) is factorization:
                mp.setattr(module, "minimal_cofibrant_factorization", classified_factorization)
        yield


def check_factorization(fact: Factorization) -> None:
    """What a returned staircase guarantees and the program does not
    re-derive: pi is a weak equivalence and a fibration, and c a
    cofibration."""
    pi, c = classify_morphism(fact.pi), classify_morphism(fact.c)
    for holds, what in (
        (pi.weak_equivalence, "pi is not a weak equivalence"),
        (pi.fibration, "pi is not a fibration"),
        (c.cofibration, "c is not a cofibration"),
    ):
        if not holds:
            raise AssertionError(f"factorization of {fact.c.dom!r} -> {fact.pi.cod!r}: {what}")


@pytest.fixture
def zigzag():
    # a1 -> a2 -> a4 <- a3
    return FinPoset.from_covers(
        ["a1", "a2", "a3", "a4"], [("a1", "a2"), ("a2", "a4"), ("a3", "a4")]
    )


@pytest.fixture
def fence():
    # b1, b2 both below b3 and b4
    return FinPoset.from_covers(
        ["b1", "b2", "b3", "b4"],
        [("b1", "b3"), ("b1", "b4"), ("b2", "b3"), ("b2", "b4")],
    )


@pytest.fixture
def diamond():
    return FinPoset.from_covers(
        ["c1", "c2", "c3", "c4"],
        [("c1", "c2"), ("c1", "c3"), ("c2", "c4"), ("c3", "c4")],
    )


@pytest.fixture
def chain2():
    return FinPoset.from_covers(["a", "b"], [("a", "b")])


@pytest.fixture
def chain3():
    return FinPoset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])


@pytest.fixture
def point():
    return FinPoset.from_covers(["*"], [])


def invoke(argv, stdin_text=""):
    """Exit code, stdout and stderr of one in-process CLI run."""
    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        code = run(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err


def point_leq(base: FinPoset, z, w) -> bool:
    """Oracle of the realization order, point by point: z <= w in the
    realization of `base` when pi0(z) <= pi-1(w) in the base, or both
    projections agree and T(z) <= T(w)."""
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


def random_matrix(rng: random.Random, rows: int, cols: int, p: int) -> Mat:
    if rows == 0 or cols == 0:
        return Mat.zeros(rows, cols, p)
    return Mat([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p)


def random_invertible(rng: random.Random, n: int, p: int) -> Mat:
    while True:
        m = random_matrix(rng, n, n, p)
        if m.rank() == n:
            return m


def random_dim1_poset(rng: random.Random, max_elements: int) -> FinPoset:
    """Random poset of dimension <= 1 (rejection sampling on the covers)."""
    n = rng.randint(1, max_elements)
    names = [f"e{i}" for i in range(n)]
    while True:
        covers = []
        for j in range(1, n):
            for i in range(j):
                if rng.random() < 1.8 / n:
                    covers.append((names[i], names[j]))
        try:
            P = FinPoset.from_covers(names, covers)
        except Exception:
            continue
        if P.dimension().at_most_one():
            return P


def random_poset(rng: random.Random, max_elements: int) -> FinPoset:
    n = rng.randint(2, max_elements)
    names = [f"e{i}" for i in range(n)]
    covers = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 2.2 / n:
                covers.append((names[i], names[j]))
    return FinPoset.from_covers(names, covers)


def random_functor(rng: random.Random, poset: FinPoset, p: int, max_dim: int = 3) -> VectFunctor:
    """Random functor presented as the cokernel of a map between frees;
    valid on posets of any dimension."""
    gens0 = [(z, rng.randint(0, max_dim)) for z in range(poset.n)]
    gens0 = [(z, d) for z, d in gens0 if d]
    if not gens0:
        gens0 = [(rng.randrange(poset.n), 1)]
    F0 = free_on_generators(poset, gens0, p)
    gens1 = [(z, rng.randint(0, 1)) for z in range(poset.n)]
    gens1 = [(z, d) for z, d in gens1 if d]
    F1 = free_on_generators(poset, gens1, p)
    values = [random_matrix(rng, F0.dims[z], d, p) for z, d in F1.generators]
    rel = assemble_free_map(F1, F0, values)
    Q, _ = coker_functor(rel)
    return Q


def random_functor_dim1(rng: random.Random, poset: FinPoset, p: int, max_dim: int = 3) -> VectFunctor:
    """Random functor with free cover matrices; needs dimension <= 1."""
    dims = [rng.randint(0, max_dim) for _ in range(poset.n)]
    maps = {
        (y, x): random_matrix(rng, dims[x], dims[y], p) for y, x in poset.covers
    }
    return VectFunctor(poset, dims, maps, p)


def random_chain(rng: random.Random, poset: FinPoset, p: int, top: int) -> ChainFunctor:
    """A random functor (top 0), the complex of a random map between two
    (top 1), or that complex with the kernel of the map on top (top 2)."""
    F = random_functor(rng, poset, p, max_dim=2)
    if top == 0:
        return ChainFunctor([F], [])
    G = random_functor(rng, poset, p, max_dim=2)
    maps = hom_space(F, G)
    d = combine(maps, [rng.randrange(p) for _ in maps]).nats[0] if maps else NatMap.zero(F, G)
    if top == 1:
        return ChainFunctor([G, F], [d])
    K, incl = ker_functor(d)
    return ChainFunctor([G, F, K], [d, incl])


def random_nat_in_kernel(rng: random.Random, basis: list, constraint, p: int):
    """Random combination of hom-basis elements killed by the constraint
    (a linear functional on maps: returns a flat vector per basis map)."""
    if not basis:
        return None
    vecs = [constraint(b) for b in basis]
    M = Mat(np.stack(vecs, axis=0).T if vecs[0].size else np.zeros((0, len(basis)), dtype=np.int64), p)
    K = kernel(M)
    if K.cols == 0:
        return None
    coeffs = None
    for _ in range(20):
        c = [rng.randrange(p) for _ in range(K.cols)]
        if any(c):
            coeffs = c
            break
    if coeffs is None:
        return None
    flat = K.arr @ np.array(coeffs, dtype=np.int64) % p
    return [int(v) for v in flat]


def conjugate_chain(rng: random.Random, X: ChainFunctor) -> ChainFunctor:
    """Random change of basis at every element and degree."""
    p = X.p
    U = [
        [random_invertible(rng, X.dims[q][n], p) for n in range(X.top + 1)]
        for q in range(X.poset.n)
    ]
    from tamechain.field import inverse

    Uinv = [[inverse(m) for m in row] for row in U]
    layers = [
        VectFunctor(
            X.poset,
            F.dims,
            {(y, x): U[x][n] @ F.maps[(y, x)] @ Uinv[y][n] for y, x in X.poset.covers},
            p,
        )
        for n, F in enumerate(X.layers)
    ]
    d = [
        NatMap(layers[n + 1], layers[n], tuple(U[q][n] @ b.comps[q] @ Uinv[q][n + 1] for q in range(X.poset.n)))
        for n, b in enumerate(X.d)
    ]
    return ChainFunctor(layers, d)


def boundaries(X: ChainFunctor) -> tuple:
    """Per element, the boundary matrices of degrees 1..top."""
    return tuple(
        tuple(X.boundary(n).comps[q] for n in range(1, X.top + 1)) for q in range(X.poset.n)
    )


def combine(basis: list, coeffs) -> ChainMap:
    """The chain map sum(c * b) over a basis of chain maps X -> Y."""
    p = basis[0].dom.p
    B = Mat(np.stack([b.to_vec() for b in basis], axis=1), p)
    column = Mat(np.array([int(c) for c in coeffs], dtype=np.int64).reshape(-1, 1), p)
    return ChainMap.from_vec(basis[0].dom, basis[0].cod, (B @ column).arr[:, 0])


def add_chain_maps(a: ChainMap, b: ChainMap) -> ChainMap:
    return ChainMap.from_vec(a.dom, a.cod, (a.to_vec() + b.to_vec()) % a.dom.p)
