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

from tamechain.errors import NoSolutionError
from tamechain.field import Mat, kernel, rref, solve
from tamechain.posets import FinPoset, Vertex, _counts
from tamechain.functors import (
    NatMap,
    VectFunctor,
    assemble_free_map,
    coker_functor,
    free_on_generators,
    is_projective,
    ker_functor,
    minimal_resolution,
)
from tamechain import chains
from tamechain.chains import (
    ChainFunctor,
    ChainMap,
    Factorization,
    SummandLabel,
    chain_ker,
    classify_morphism,
    structure_decompose,
    suspension,
)
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


# --- reference constructions: inverses, lifts, decomposition witnesses -------


def inverse(M: Mat) -> Mat:
    """M^-1, the transform of M's rref; NoSolutionError when M is singular."""
    if M.rows != M.cols:
        raise ValueError(f"cannot invert non-square matrix of shape {M.shape}")
    rr = rref(M)
    if rr.rank != M.rows:
        raise NoSolutionError(f"matrix of shape {M.shape} is singular (rank {rr.rank})")
    return rr.T


def oracle_lift(f: NatMap, e: NatMap, gens, witness: NatMap) -> tuple[Mat, ...]:
    """The lift on the generators of a presentation witness: free -> dom f,
    composed with the objectwise inverse of the witness."""
    free = witness.dom
    values = []
    for i, (z, d) in enumerate(gens):
        # At z, the generators below z own consecutive blocks in order.
        start = 0
        for w, c in gens[:i]:
            if free.poset.leq(w, z):
                start += c
        values.append(solve(e.comps[z], f.comps[z] @ witness.comps[z].take_cols(range(start, start + d))))
    g0 = assemble_free_map(free, e.dom, values)
    return tuple(g0.comps[x] @ inverse(witness.comps[x]) for x in range(free.poset.n))


def lift_through(f: NatMap, e: NatMap) -> NatMap:
    """g with e g = f, for a projective domain of f and im f inside im e:
    `oracle_lift` on the domain's own generators when it is free, and on
    its minimal cover otherwise."""
    F = f.dom
    if F.generators is not None:
        return NatMap(F, e.dom, oracle_lift(f, e, F.generators, NatMap.identity(F)))
    cov = is_projective(F)
    if cov is None:
        raise ValueError("lift requires a projective domain")
    return NatMap(F, e.dom, oracle_lift(f, e, cov.generators, cov.s))


def _split_map(dom, cod, m, low, high):
    given_at = {m: low, m + 1: high}
    nats = tuple(
        given_at[n] if n in given_at else NatMap.zero(dom.layer(n), cod.layer(n))
        for n in range(max(dom.top, cod.top) + 1)
    )
    return ChainMap(dom, cod, nats)


def _residual_after(R, iota, rho):
    """ker(rho) with its inclusion and the retraction along im(iota)."""
    K, incl = chain_ker(rho)
    comp = iota @ rho
    nats = []
    for n in range(R.top + 1):
        comps = tuple(
            solve(incl.nats[n].comps[q], Mat.identity(R.layer(n).dims[q], R.p) - comp.nats[n].comps[q])
            for q in range(R.poset.n)
        )
        nats.append(NatMap(R.layers[n], K.layer(n), comps))
    return K, incl, ChainMap(R, K, tuple(nats))


def oracle_decompose(C: ChainFunctor) -> tuple[list[SummandLabel], list[tuple[ChainMap, ChainMap]]]:
    """(labels, splits) of the sphere/disk decomposition, split off a
    residual one at a time: each split is an (inclusion into C, retraction
    out of C) pair, formed by tracking the residual's inclusion and
    retraction after every split."""
    residual, incl, proj = C, ChainMap.identity(C), ChainMap.identity(C)
    labels, splits = [], []
    for m in range(C.top + 1):
        if residual.is_zero():
            break
        for kind in ("sphere", "disk"):
            Fm, Fm1 = residual.layer(m), residual.layer(m + 1)
            bnat = residual.d[m] if m < residual.top else NatMap.zero(Fm1, Fm)
            if kind == "sphere":
                H, qmap = coker_functor(bnat)
                if H.is_zero():
                    continue
                res = minimal_resolution(H)
                s0 = lift_through(res.aug, qmap)
                p0 = lift_through(qmap, res.aug)
                s1 = lift_through(s0 @ res.d, bnat)
                p1 = lift_through(p0 @ bnat, res.d)
                inv0 = [inverse(x) for x in (p0 @ s0).comps]
                inv1 = [inverse(x) for x in (p1 @ s1).comps]
                S = suspension(ChainFunctor([res.p0, res.p1], [res.d]), m).trimmed()
                rho_m = NatMap(Fm, res.p0, tuple(a @ b for a, b in zip(inv0, p0.comps)))
                rho_m1 = NatMap(Fm1, res.p1, tuple(a @ b for a, b in zip(inv1, p1.comps)))
                label = SummandLabel("sphere", m, res.gens0, res.gens1, S)
            else:
                if Fm.is_zero():
                    continue
                cov = is_projective(Fm)
                winv = tuple(inverse(x) for x in cov.s.comps)
                s0, s1 = cov.s, lift_through(cov.s, bnat)
                S = suspension(ChainFunctor([cov.P, cov.P], [NatMap.identity(cov.P)]), m)
                rho_m = NatMap(Fm, cov.P, winv)
                rho_m1 = NatMap(bnat.dom, cov.P, tuple(a @ b for a, b in zip(winv, bnat.comps)))
                label = SummandLabel("disk", m + 1, cov.generators, (), S)
            iota = _split_map(S, residual, m, s0, s1)
            rho = _split_map(residual, S, m, rho_m, rho_m1)
            labels.append(label)
            splits.append((incl @ iota, rho @ proj))
            residual, kincl, kproj = _residual_after(residual, iota, rho)
            incl, proj = incl @ kincl, kproj @ proj
    assert residual.is_zero()
    return labels, splits


def complex_data(X: ChainFunctor) -> tuple:
    """Top, dims, boundary matrices and cover maps of X, as plain data."""
    return (
        X.top,
        X.dims,
        [[X.boundary(n).comps[q].tolist() for n in range(1, X.top + 1)] for q in range(X.poset.n)],
        [[X.layer(n).maps[c].tolist() for n in range(X.top + 1)] for c in X.poset.covers],
    )


def decompose_with_splits(C: ChainFunctor):
    """`structure_decompose(C)` and the splits of `oracle_decompose(C)`,
    once the oracle's labels and complexes are asserted to equal the
    library's."""
    dec = structure_decompose(C)
    labels, splits = oracle_decompose(C)
    assert [s.key() for s in labels] == [s.key() for s in dec.summands]
    assert [complex_data(s.complex) for s in labels] == [complex_data(s.complex) for s in dec.summands]
    return dec, splits


def assert_splits_sum_to_identity(splits) -> None:
    """Every split is a retraction (rho iota = id) and the idempotents
    iota rho sum to the identity."""
    total = None
    for iota, rho in splits:
        comp = rho @ iota
        assert all(m == Mat.identity(m.rows, m.p) for nat in comp.nats for m in nat.comps)
        back = iota @ rho
        total = back if total is None else add_chain_maps(total, back)
    assert total is not None
    assert all(m == Mat.identity(m.rows, m.p) for nat in total.nats for m in nat.comps)
