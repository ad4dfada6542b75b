"""Homology functors and the staircase's pullbacks against per-element
oracles.

`chains` builds H_n as a quotient of the cycle subfunctor and the
pullback of the cofibrant staircase as a subfunctor of W (+) Y, with the
two routines that `functors` has for sub- and quotient functors.  The
oracles below are the earlier per-element loops, with the matrix
pullback they used: they compute the same objects cover by cover.  Both
must agree bit for bit, on random chain functors and chain maps and on
every pullback that a cofibrant factorization forms.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tamechain import chains
from tamechain.field import Mat, cokernel, kernel, solve
from tamechain.functors import NatMap, VectFunctor
from tamechain.chains import (
    ChainMap,
    _pullback_functor,
    cofibrant_replacement,
    homology_functor,
    homology_map,
    minimal_cofibrant_factorization,
)
from tamechain.morphisms import hom_space

from conftest import combine, random_chain, random_dim1_poset, random_functor, random_poset


# --- oracles ------------------------------------------------------------------


def oracle_homology(X, n):
    """H_n with, per element, the kernel basis, the projection from kernel
    coordinates and the representatives of the classes."""
    data = []
    for q in range(X.poset.n):
        K = kernel(X.boundary_at(q, n))
        C, S = cokernel(solve(K, X.boundary_at(q, n + 1)))
        data.append((K, C, K @ S))
    if n > X.top:
        return chains._zero_functor(X.poset, X.p), data
    maps = {}
    for y, x in X.poset.covers:
        Kx, Cx, _ = data[x]
        maps[(y, x)] = Cx @ solve(Kx, X.map_at((y, x), n) @ data[y][2])
    return VectFunctor(X.poset, [d[1].rows for d in data], maps, X.p), data


def oracle_homology_functor(X, n):
    if n < 0 or n > X.top:
        return chains._zero_functor(X.poset, X.p)
    return oracle_homology(X, n)[0]


def oracle_homology_map(phi, n):
    if n < 0 or (n > phi.dom.top and n > phi.cod.top):
        return NatMap.zero(oracle_homology_functor(phi.dom, n), oracle_homology_functor(phi.cod, n))
    dom_h, ddata = oracle_homology(phi.dom, n)
    cod_h, cdata = oracle_homology(phi.cod, n)
    comps = []
    for q in range(phi.dom.poset.n):
        Kc, Cc, _ = cdata[q]
        comps.append(Cc @ solve(Kc, phi.at(q, n) @ ddata[q][2]))
    return NatMap(dom_h, cod_h, tuple(comps))


def oracle_matrix_pullback(f, g):
    """ker [f | -g] and its two block projections."""
    K = kernel(Mat.hstack([f, -g]))
    return K.take_rows(range(f.cols)), K.take_rows(range(f.cols, f.cols + g.cols))


def oracle_pullback_functor(pn, beta):
    """Pullback functor of pn: W -> Q and beta: Y -> Q with its projections."""
    W, Y = pn.dom, beta.dom
    to_w, to_y = zip(*map(oracle_matrix_pullback, pn.comps, beta.comps))
    bases = [Mat.vstack([a, b]) for a, b in zip(to_w, to_y)]
    maps = {}
    for y, x in W.poset.covers:
        moved = Mat.vstack([W.maps[(y, x)] @ to_w[y], Y.maps[(y, x)] @ to_y[y]])
        maps[(y, x)] = solve(bases[x], moved)
    P = VectFunctor(W.poset, [b.cols for b in bases], maps, W.p)
    return P, NatMap(P, W, to_w), NatMap(P, Y, to_y), bases


# --- bitwise comparison -------------------------------------------------------


def _mats(ms):
    return [(m.shape, m.tolist()) for m in ms]


def _functor_data(F):
    return F.dims, {c: (m.shape, m.tolist()) for c, m in F.maps.items()}


def _nat_data(nat):
    return _functor_data(nat.dom), _functor_data(nat.cod), _mats(nat.comps)


def _random_poset(rng, general):
    return random_poset(rng, 4) if general else random_dim1_poset(rng, 4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.booleans(), st.integers(0, 2**32))
def test_homology_matches_per_element_oracle(p, general, seed):
    rng = random.Random(seed)
    poset = _random_poset(rng, general)
    X = random_chain(rng, poset, p, rng.randint(0, 2))
    Y = random_chain(rng, poset, p, rng.randint(0, 2))
    basis = hom_space(X, Y)
    phi = combine(basis, [rng.randrange(p) for _ in basis]) if basis else ChainMap.zero(X, Y)
    maps = [phi, ChainMap.identity(X)]
    if not general:
        fact = cofibrant_replacement(X)
        maps.append(fact.pi)
    for f in maps:
        for n in range(-1, f.depth + 3):
            assert _functor_data(homology_functor(f.dom, n)) == _functor_data(oracle_homology_functor(f.dom, n))
            assert _nat_data(homology_map(f, n)) == _nat_data(oracle_homology_map(f, n))


def _same_pullback(pn, beta):
    incl, to_w, to_y = _pullback_functor(pn, beta)
    P, prW, prY, bases = oracle_pullback_functor(pn, beta)
    assert _functor_data(incl.dom) == _functor_data(P)
    assert _mats(incl.comps) == _mats(bases)
    assert _nat_data(to_w) == _nat_data(prW)
    assert _nat_data(to_y) == _nat_data(prY)


def _random_nat(rng, F, G):
    basis = hom_space(F, G)
    return combine(basis, [rng.randrange(F.p) for _ in basis]).nats[0] if basis else NatMap.zero(F, G)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.booleans(), st.integers(0, 2**32))
def test_pullback_functor_matches_per_element_oracle(p, general, seed):
    rng = random.Random(seed)
    poset = _random_poset(rng, general)
    W, Y, Q = (random_functor(rng, poset, p, max_dim=2) for _ in range(3))
    _same_pullback(_random_nat(rng, W, Q), _random_nat(rng, Y, Q))


@pytest.fixture(scope="module")
def compared_pullbacks():
    """Compare every pullback that a factorization forms with the oracle's;
    the list records the pullbacks compared."""
    seen = []
    original = chains._pullback_functor

    def compared(pn, beta):
        _same_pullback(pn, beta)
        seen.append(None)
        return original(pn, beta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chains, "_pullback_functor", compared)
        yield seen


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 2**32))
def test_staircase_pullbacks_match_per_element_oracle(compared_pullbacks, p, seed):
    rng = random.Random(seed)
    poset = random_dim1_poset(rng, 4)
    X = cofibrant_replacement(random_chain(rng, poset, p, rng.randint(0, 2))).C
    Y = random_chain(rng, poset, p, rng.randint(0, 2))
    basis = hom_space(X, Y)
    phi = combine(basis, [rng.randrange(p) for _ in basis]) if basis else ChainMap.zero(X, Y)
    for f in (phi, ChainMap.zero(chains.zero_chain(poset, p), Y)):
        before = len(compared_pullbacks)
        minimal_cofibrant_factorization(f)
        assert len(compared_pullbacks) == before + f.depth + 1
