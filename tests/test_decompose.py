"""The structure decomposition against a split-off oracle, and the work
it does per degree.

`structure_decompose` reads the labels off the structure theorem's
invariants: the minimal resolutions of the homology functors and a count
of cover generators.  `oracle_decompose` (in conftest) splits the
summands off a residual one at a time: after every split it forms the
summand's retraction with one inverse per element and degree, recomputes
the kernel and the retraction of every degree of the residual as a chain
map, and composes both witnesses against the input.  Its labels and
complexes must equal the invariant ones bit for bit, and each of its
inclusions maps from its summand's complex.  The tests that need the
inclusions and retractions take them from the oracle.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from tamechain import chains, functors
from tamechain.field import cokernel
from tamechain.functors import VectFunctor, _incoming, assemble_free_map, minimal_resolution
from tamechain.chains import (
    ChainFunctor,
    cofibrant_replacement,
    direct_sum_chains,
    is_cofibrant,
    standard_complex,
    structure_decompose,
    suspension,
)

from conftest import (
    assert_splits_sum_to_identity,
    complex_data,
    conjugate_chain,
    decompose_with_splits,
    random_chain,
    random_dim1_poset,
    random_functor_dim1,
)


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
    """The oracle finds the library's labels and complexes, and its
    witnesses split the input: each is a retraction, and they sum to the
    identity."""
    rng = random.Random(seed)
    poset = random_dim1_poset(rng, 5)
    if planted:
        C = _planted_sum(rng, poset, p)
    else:
        C = cofibrant_replacement(random_chain(rng, poset, p, rng.randint(0, 2))).C
    dec, splits = decompose_with_splits(C)
    if splits:
        assert_splits_sum_to_identity(splits)
    else:
        assert C.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.booleans(), st.integers(0, 2**32))
def test_invariant_labels_match_the_split_loop(p, planted, seed):
    """Kinds, degrees, generators and complexes (resolution matrices
    included) of the invariant labels equal those the oracle's split loop
    finds, and each of its inclusions maps from its summand's complex."""
    rng = random.Random(seed)
    poset = random_dim1_poset(rng, 6)
    if planted:
        C = _planted_sum(rng, poset, p)
    else:
        C = cofibrant_replacement(random_chain(rng, poset, p, rng.randint(0, 2))).C
    dec, splits = decompose_with_splits(C)
    assert [complex_data(iota.dom) for iota, _ in splits] == [complex_data(s.complex) for s in dec.summands]


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
