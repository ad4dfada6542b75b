"""The structure decomposition against two split-off oracles, and the
work it does per split.

`structure_decompose` reads the labels off the structure theorem's
invariants: the minimal resolutions of the homology functors and a count
of cover generators.  Two loops that split the summands off a residual
one at a time check them.  `chains._split_off_summands` forms the
inclusions when `Decomposition.inclusions` is read; its labels and
complexes must equal the invariant ones, since inclusion i maps from
the complex of summand i.  `oracle_decompose` is an earlier split loop:
after every split it forms the summand's retraction with one inverse per
element and degree, recomputes the kernel and the retraction of every
degree of the residual as a chain map, and composes both witnesses
against the input.  The labels, complexes and splits must equal the
oracle's bit for bit.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from tamechain import chains, functors
from tamechain.field import Mat, cokernel, inverse, solve
from tamechain.functors import (
    NatMap,
    VectFunctor,
    _incoming,
    assemble_free_map,
    coker_functor,
    is_projective,
    lift_through,
    minimal_resolution,
)
from tamechain.chains import (
    ChainFunctor,
    ChainMap,
    SummandLabel,
    chain_ker,
    cofibrant_replacement,
    direct_sum_chains,
    is_cofibrant,
    standard_complex,
    structure_decompose,
    suspension,
)

from conftest import conjugate_chain, random_chain, random_dim1_poset, random_functor_dim1


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


def oracle_decompose(C):
    """(labels, splits) of the sphere/disk decomposition, tracking the
    residual's inclusion into C and retraction out of C after every split."""
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


def _complex_data(X):
    return (
        X.top,
        X.dims,
        [[X.boundary(n).comps[q].tolist() for n in range(1, X.top + 1)] for q in range(X.poset.n)],
        [[X.layer(n).maps[c].tolist() for n in range(X.top + 1)] for c in X.poset.covers],
    )


def _map_data(phi):
    return [[(m.shape, m.tolist()) for m in nat.comps] for nat in phi.nats]


def _planted_sum(rng, poset, p):
    parts = []
    for _ in range(rng.randint(1, 3)):
        z = rng.randrange(poset.n)
        if rng.random() < 0.5:
            parts.append(standard_complex(poset, "disk", rng.randint(1, 3), z, 1, p))
            continue
        while True:
            H = random_functor_dim1(rng, poset, p, 2)
            if any(H.dims):
                break
        res = minimal_resolution(H)
        parts.append(suspension(ChainFunctor([res.p0, res.p1], [res.d]), rng.randint(0, 2)).trimmed())
    rng.shuffle(parts)
    return conjugate_chain(rng, direct_sum_chains(parts)[0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.booleans(), st.integers(0, 2**32))
def test_decompose_matches_retraction_tracking_oracle(p, planted, seed):
    rng = random.Random(seed)
    poset = random_dim1_poset(rng, 5)
    if planted:
        C = _planted_sum(rng, poset, p)
    else:
        C = cofibrant_replacement(random_chain(rng, poset, p, rng.randint(0, 2))).C
    labels, splits = oracle_decompose(C)
    dec = structure_decompose(C)
    assert [s.key() for s in dec.summands] == [s.key() for s in labels]
    assert [_complex_data(s.complex) for s in dec.summands] == [_complex_data(s.complex) for s in labels]
    assert len(dec.splits) == len(splits)
    for (iota, rho), (iota0, rho0) in zip(dec.splits, splits):
        assert _map_data(iota) == _map_data(iota0)
        assert _map_data(rho) == _map_data(rho0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.booleans(), st.integers(0, 2**32))
def test_invariant_labels_match_the_split_loop(p, planted, seed):
    """Kinds, degrees, generators and complexes (resolution matrices
    included) of the invariant labels equal those the split loop finds,
    and each inclusion maps from its summand's complex."""
    rng = random.Random(seed)
    poset = random_dim1_poset(rng, 6)
    if planted:
        C = _planted_sum(rng, poset, p)
    else:
        C = cofibrant_replacement(random_chain(rng, poset, p, rng.randint(0, 2))).C
    dec = structure_decompose(C)
    labels = chains._split_off_summands(C)[0]
    assert [(s.kind, s.degree, s.gens0, s.gens1) for s in dec.summands] == [
        (s.kind, s.degree, s.gens0, s.gens1) for s in labels
    ]
    assert [_complex_data(s.complex) for s in dec.summands] == [_complex_data(s.complex) for s in labels]
    assert [_complex_data(i.dom) for i in dec.inclusions] == [_complex_data(s.complex) for s in dec.summands]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.booleans(), st.booleans(), st.integers(0, 2**32))
def test_projectivity_checks_form_no_cover_map(p, planted, decompose, seed):
    """`is_cofibrant` and `structure_decompose` read only the generators
    of the layers' minimal covers, so no cover map is formed; read later,
    it equals the map assembled from the sections of the layer's H0."""
    rng = random.Random(seed)
    poset = random_dim1_poset(rng, 5)
    if planted:
        C = _planted_sum(rng, poset, p)
    else:
        C = cofibrant_replacement(random_chain(rng, poset, p, rng.randint(0, 2))).C
    if decompose:
        structure_decompose(C)
    else:
        assert is_cofibrant(C)
    layers = [F for F in C.layers if not F.is_zero()]
    assert all(F._cover is not None and "s" not in vars(F._cover) for F in layers)
    for F in layers:
        cov = F._cover
        eager = assemble_free_map(cov.P, F, [cokernel(_incoming(F, z))[1] for z, _ in cov.generators])
        assert cov.s.comps == eager.comps and cov.s.dom is cov.P and cov.s.cod is F


def test_split_rebuilds_only_its_two_degrees(monkeypatch, point):
    """S^0 (+) D^N on a point splits twice: at degree 0 and at N - 1.  Each
    split of the loop that forms the inclusions takes kernels on the
    residual's two layers there, which are still the input's own layer
    objects, and no others."""
    N = 300
    sphere, disk = (standard_complex(point, kind, n, 0, 1, 2) for kind, n in (("sphere", 0), ("disk", N)))
    X, _, _ = direct_sum_chains([sphere, disk])
    dec = structure_decompose(X)
    assert [(s.kind, s.degree) for s in dec.summands] == [("sphere", 0), ("disk", N)]
    doms = []
    ker_functor = chains.ker_functor

    def recording(nat):
        doms.append(nat.dom)
        return ker_functor(nat)

    monkeypatch.setattr(chains, "ker_functor", recording)
    assert len(dec.inclusions) == 2
    assert [id(F) for F in doms] == [id(X.layers[0]), id(X.layers[1]), id(X.layers[N])]


def test_per_step_checks_do_not_grow_with_the_degree(monkeypatch, point):
    """The loop over the degrees of disk(N) does O(1) checks per degree:
    layer zero tests and layer sizes are counted, and their number stays
    linear in N."""
    N = 2000
    X = standard_complex(point, "disk", N, 0, 1, 2)
    calls = [0]

    def counting(fn):
        def wrapped(*args):
            calls[0] += 1
            return fn(*args)

        return wrapped

    for cls, name in ((VectFunctor, "is_zero"), (VectFunctor, "total_dim")):
        monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    dec = structure_decompose(X)
    assert [(s.kind, s.degree) for s in dec.summands] == [("disk", N)]
    assert calls[0] <= 5 * N


def test_minimal_covers_do_not_grow_with_the_degree(monkeypatch, point):
    """disk(N) has two nonzero layers, so `structure_decompose` (with its
    cofibrancy check) takes the same number of minimal covers for every N."""
    counts = []
    for N in (20, 2000):
        calls = [0]
        original = functors.minimal_cover

        def counting(F, original=original, calls=calls):
            calls[0] += 1
            return original(F)

        monkeypatch.setattr(functors, "minimal_cover", counting)
        monkeypatch.setattr(chains, "minimal_cover", counting)
        X = standard_complex(point, "disk", N, 0, 1, 2)
        dec = structure_decompose(X)
        assert [(s.kind, s.degree) for s in dec.summands] == [("disk", N)]
        monkeypatch.undo()
        counts.append(calls[0])
    assert counts[0] == counts[1] <= 4
