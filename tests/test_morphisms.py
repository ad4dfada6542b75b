import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamechain.errors import BadCoverError, BudgetExceededError, NotIdempotentError, ZeroObjectError
from tamechain.field import Mat, kernel, rref, solve
from tamechain.functors import NatMap, free_functor, free_on_generators, kan_extend
from tamechain.chains import ChainFunctor, ChainMap, chain_coker, direct_sum_chains, standard_complex, zero_chain
from tamechain.morphisms import (
    _hom_kernel,
    _ideal_is_nilpotent,
    _restriction_kernel,
    _structure_constants,
    as_chain,
    chain_radical,
    end_ring,
    fitting_idempotent,
    gluing_check,
    hom_space,
    indecomposable,
    split_by_idempotent,
)
from tamechain.posets import FinPoset

from conftest import random_chain, random_dim1_poset, random_functor, random_functor_dim1, random_poset


def test_hom_contains_identity(fence):
    F = random_functor_dim1(random.Random(0), fence, 3)
    ring = end_ring(F)
    assert ring.contains(ChainMap.identity(as_chain(F)))


def test_hom_between_free_functors(chain2):
    Fa = free_functor(chain2, 0, 1, 3)
    Fb = free_functor(chain2, 1, 1, 3)
    # By the free-functor property these are the values at the generator.
    assert len(hom_space(Fa, Fb)) == Fb.dims[0]  # = 0
    assert len(hom_space(Fb, Fa)) == Fa.dims[1]  # = 1


def test_hom_between_sphere_and_disk(point):
    s0 = standard_complex(point, "sphere", 0, 0, 1, 2)
    d1 = standard_complex(point, "disk", 1, 0, 1, 2)
    # Chain maps S^0 -> D^1: the degree-0 component is free.
    assert len(hom_space(s0, d1)) == 1
    # Chain maps D^1 -> S^0 must satisfy f_0 . id = 0, so there are none.
    assert len(hom_space(d1, s0)) == 0


def test_end_ring_closed_under_composition(fence):
    rng = random.Random(1)
    F = random_functor_dim1(rng, fence, 2)
    ring = end_ring(F)
    for a in ring.basis:
        for b in ring.basis:
            assert ring.contains(a @ b)


def test_indecomposable_free_single_generator(fence):
    F = free_functor(fence, 0, 1, 5)
    res = indecomposable(F, "exhaustive")
    assert res.certain and res.indecomposable
    assert res.end_dim == 1


def test_decomposable_sum_of_frees():
    anti = FinPoset.from_covers(["x", "y"], [])
    F = free_on_generators(anti, ((0, 1), (1, 1)), 2)
    res = indecomposable(F, "exhaustive")
    assert res.certain and not res.indecomposable
    e = res.witness
    x1, x2, (i1, r1, i2, r2) = split_by_idempotent(F, e)
    assert x1.total_dim() + x2.total_dim() == 2
    assert x1.total_dim() > 0 and x2.total_dim() > 0
    comp1 = r1 @ i1
    assert all(m.is_identity() for nat in comp1.nats for m in nat.comps)


def test_indecomposable_zero_object_raises(point):
    with pytest.raises(ZeroObjectError):
        indecomposable(zero_chain(point, 2))


def test_exhaustive_budget_guard(point):
    big, _, _ = direct_sum_chains([standard_complex(point, "sphere", 0, 0, 1, 2)] * 5)
    with pytest.raises(BudgetExceededError):
        indecomposable(big, "exhaustive", budget=4)


def test_split_requires_idempotent(fence):
    F = free_on_generators(fence, ((0, 1), (1, 1)), 3)
    ring = end_ring(F)
    phi = ring.element([1] * ring.dim)
    if not ((phi @ phi) == phi):
        with pytest.raises(NotIdempotentError):
            split_by_idempotent(F, phi)


def test_split_by_trivial_idempotents(fence):
    F = free_on_generators(fence, ((0, 1), (2, 1)), 2)
    X = as_chain(F)
    ident = ChainMap.identity(X)
    x1, x2, _ = split_by_idempotent(F, ident)
    assert x1.total_dim() == X.total_dim() and x2.total_dim() == 0
    zero = ChainMap.zero(X, X)
    y1, y2, _ = split_by_idempotent(F, zero)
    assert y1.total_dim() == 0 and y2.total_dim() == X.total_dim()


def test_fitting_detects_splits():
    rng = random.Random(2)
    found_split = 0
    for _ in range(10):
        anti = FinPoset.from_covers(["x", "y", "z"], [("x", "z"), ("y", "z")])
        F = free_on_generators(anti, ((0, 1), (1, 1)), 2)
        res = indecomposable(F, "fitting", budget=64, seed=rng.randrange(1000))
        assert res.certain and not res.indecomposable
        e = fitting_idempotent(F, res.witness)
        assert (e @ e) == e
        x1, x2, _ = split_by_idempotent(F, e)
        assert x1.total_dim() > 0 and x2.total_dim() > 0
        assert x1.total_dim() + x2.total_dim() == as_chain(F).total_dim()
        found_split += 1
    assert found_split == 10


def test_fitting_silent_on_indecomposable(fence):
    F = free_functor(fence, 0, 1, 2)
    res = indecomposable(F, "fitting", budget=32)
    assert res.indecomposable and not res.certain
    assert res.trials > 0


def _eager_fitting(obj, budget, seed):
    """The "fitting" search with every candidate formed before the first
    is tried, and powers taken as chain-map products: the reference for
    the lazy search."""
    X = as_chain(obj)
    ring = end_ring(X)
    rng = random.Random(seed)
    candidates = list(ring.basis) + [a @ b for a in ring.basis for b in ring.basis]
    for _ in range(budget):
        coeffs = [rng.randrange(X.p) for _ in range(ring.dim)]
        if any(coeffs):
            candidates.append(ring.element(coeffs))
    N = X.total_dim()
    for trials, phi in enumerate(candidates, 1):
        psi = phi
        for _ in range(N - 1):
            psi = psi @ phi
        if 0 < sum(m.rank() for nat in psi.nats for m in nat.comps) < N:
            return False, True, phi, trials, ring.dim
    return True, False, None, len(candidates), ring.dim


def _same_fitting_result(res, eager):
    indec, certain, witness, trials, end_dim = eager
    assert (res.indecomposable, res.certain, res.trials, res.end_dim) == (indec, certain, trials, end_dim)
    assert (res.witness is None) == (witness is None)
    assert witness is None or np.array_equal(res.witness.to_vec(), witness.to_vec())


def test_fitting_forms_candidates_lazily(fence, monkeypatch):
    anti = FinPoset.from_covers(["x", "y"], [])
    F = free_on_generators(anti, ((0, 1), (1, 1)), 5)
    eager = _eager_fitting(F, 32, 0)
    assert eager[3] == 1  # decided by the first basis element
    products = []
    original = ChainMap.__matmul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(ChainMap, "__matmul__", counted)
    res = indecomposable(F, "fitting", budget=32)
    assert not products
    _same_fitting_result(res, eager)
    monkeypatch.undo()
    # Searches that run past the basis products draw the same random
    # elements in the same order.
    rng = random.Random(4)
    for G in (free_functor(fence, 0, 1, 2), random_functor_dim1(rng, fence, 2), random_functor_dim1(rng, fence, 3)):
        seed = rng.randrange(1000)
        _same_fitting_result(indecomposable(G, "fitting", budget=8, seed=seed), _eager_fitting(G, 8, seed))


def test_gluing_b_contains_a(chain3):
    rng = random.Random(3)
    F = random_functor_dim1(rng, chain3, 2)
    rep = gluing_check(F, ["0"], ["0", "1", "2"])
    sub_rep = gluing_check(F, ["0", "1", "2"], ["0", "1", "2"])
    # When B = D and A n B = A = D, beta is an iso: every criterion holds.
    assert sub_rep.crit_hom_zero and sub_rep.crit_rad_iso
    assert sub_rep.crit_kernel_nilpotent and sub_rep.crit_restriction_injective
    assert all(d == 0 for row in sub_rep.beta_cokernel_dims for d in row)


def test_gluing_requires_cover(chain3):
    F = random_functor_dim1(random.Random(4), chain3, 2)
    with pytest.raises(BadCoverError):
        gluing_check(F, ["0"], ["1"])


def test_gluing_criteria_track_indecomposability():
    # Criteria (radical iso, nilpotent kernel) match the exhaustive oracle
    # whenever the restriction to A is indecomposable.
    rng = random.Random(5)
    checked = 0
    while checked < 25:
        D = random_poset(rng, 5)
        a_size = rng.randint(1, D.n - 1)
        a_idx = sorted(rng.sample(range(D.n), a_size))
        rest = [e for e in range(D.n) if e not in set(a_idx)]
        extra = [e for e in a_idx if rng.random() < 0.4]
        b_idx = sorted(set(rest) | set(extra))
        if not b_idx:
            continue
        X = random_functor(rng, D, 2, max_dim=2)
        XA = X.restrict(a_idx)
        if as_chain(XA).is_zero() or as_chain(X).is_zero():
            continue
        ring_a = end_ring(XA)
        if 2**ring_a.dim > 512:
            continue
        if not indecomposable(XA, "exhaustive", budget=512).indecomposable:
            continue
        ring_x = end_ring(X)
        if 2**ring_x.dim > 4096:
            continue
        oracle = indecomposable(X, "exhaustive", budget=4096).indecomposable
        try:
            rep = gluing_check(X, [D.names[e] for e in a_idx], [D.names[e] for e in b_idx])
        except BadCoverError:
            continue  # cross relations not factoring through A n B
        assert rep.crit_rad_iso == oracle
        assert rep.crit_kernel_nilpotent == oracle
        assert rep.crit_hom_zero == rep.crit_restriction_injective
        if rep.crit_hom_zero:
            assert rep.crit_rad_iso
        checked += 1


# --- the End ring in coordinates against chain-map products ------------------------

ORACLE_PRIMES = [2, 3, 5, 32749, 2147483629]


def reference_structure_constants(ring) -> np.ndarray:
    """C[i, j] = coordinates of basis[i] . basis[j], from chain-map
    products and one solve."""
    dim, p = ring.dim, ring.obj.p
    if not dim:
        return np.zeros((0, 0, 0), dtype=np.int64)
    prods = [(a @ b).to_vec() for a in ring.basis for b in ring.basis]
    return solve(ring.columns, Mat(np.stack(prods, axis=1) % p, p)).arr.T.reshape(dim, dim, dim)


def reference_restriction_kernel(ring, elements) -> Mat:
    """End coordinates of the maps vanishing on the elements, from the
    components of the basis maps there."""
    rows = np.stack([b.to_vec(elements) for b in ring.basis], axis=1)
    return kernel(Mat(rows, ring.obj.p))


def reference_ideal_is_nilpotent(kernel_basis: list, ring) -> bool:
    """The ideal powers formed as chain-map products, each power given by
    the nonzero rows of an rref of the products' components."""
    if not kernel_basis:
        return True
    X, p = ring.obj, ring.obj.p
    power = list(kernel_basis)
    for _ in range(max(1, ring.dim)):
        prods = np.stack([(a @ b).to_vec() for a in power for b in kernel_basis])
        rr = rref(Mat(prods, p), transform=False)
        nxt = [ChainMap.from_vec(X, X, rr.R.arr[i]) for i in range(rr.rank)]
        if not nxt:
            return True
        if len(nxt) == len(power):
            return False
        power = nxt
    return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_PRIMES), st.integers(0, 2), st.integers(0, 2**30))
def test_end_ring_coordinates_match_chain_map_products(p, top, seed):
    rng = random.Random(seed)
    P = random_poset(rng, 3)
    Y, Z = random_chain(rng, P, p, top), random_chain(rng, P, p, rng.randint(0, top))
    X, (iY, iZ), (pY, pZ) = direct_sum_chains([Y, Z])
    ring = end_ring(X)
    assert ring.basis == tuple(hom_space(X, X))
    assert np.array_equal(_structure_constants(ring), reference_structure_constants(ring))
    if not ring.dim:
        return
    ident = ChainMap.identity(X).to_vec()[ring._free]
    assert ring.coordinates_of(ChainMap.identity(X)) == Mat(ident.reshape(-1, 1), p)
    elements = sorted(rng.sample(range(P.n), rng.randint(0, P.n)))
    K = _restriction_kernel(ring, elements)
    assert K == reference_restriction_kernel(ring, elements)
    # Maps Y -> Z inside End(Y + Z) square to zero; with the maps Z -> Y
    # added, and in a random subspace, the powers may not vanish.
    forward = [iZ @ h @ pY for h in hom_space(Y, Z)]
    backward = [iY @ h @ pZ for h in hom_space(Z, Y)]
    m = rng.randint(1, 3)
    spans = [K, Mat([[rng.randrange(p) for _ in range(m)] for _ in range(ring.dim)], p)]
    for maps in (forward, forward + backward):
        if maps:
            spans.append(Mat.hstack([ring.coordinates_of(phi) for phi in maps]))
    for ideal in spans:
        maps = [ring.element(ideal.arr[:, j]) for j in range(ideal.cols)]
        assert _ideal_is_nilpotent(ideal, ring) == reference_ideal_is_nilpotent(maps, ring)


# --- gluing against beta built from the Kan extension's cocones ---------------------


def oracle_gluing(X, a_idx, b_idx) -> tuple:
    """The GluingReport fields, with coker beta taken from the comparison
    beta: Lan(X|AnB) -> X_B that the colimit cocones of each layer's Kan
    extension give, and the crossing check as a double loop; A and B are
    sets of element indices."""
    P = X.poset
    inter = a_idx & b_idx
    for u in range(P.n):
        for v in range(P.n):
            if u == v or not P.leq(u, v) or {u, v} <= a_idx or {u, v} <= b_idx:
                continue
            if not any(P.leq(u, d) and P.leq(d, v) for d in inter):
                raise BadCoverError("crossing relation")
    b_sorted = sorted(b_idx)
    XB = X.restrict(b_sorted)
    ab_in_b = [i for i, e in enumerate(b_sorted) if e in a_idx]
    if ab_in_b:
        XAB = XB.restrict(ab_in_b)
        exts = [kan_extend(F, XB.poset, ab_in_b, method="colim") for F in XAB.layers]
        layers = [e.functor for e in exts]
        d = [
            NatMap(
                layers[n + 1],
                layers[n],
                tuple(
                    exts[n + 1].cocones[q].map_into(exts[n].cocones[q], lambda s: XAB.d[n].comps[s])
                    for q in range(XB.poset.n)
                ),
            )
            for n in range(XAB.top)
        ]
        ext = ChainFunctor(layers, d)
        nats = []
        for n, F in enumerate(XB.layers):
            comps = []
            for q in range(XB.poset.n):
                co = exts[n].cocones[q]
                if co.elements:
                    comps.append(Mat.hstack([F.map_leq(ab_in_b[j], q) for j in co.elements]) @ co.section)
                else:
                    comps.append(Mat.zeros(F.dims[q], ext.dim_at(q, n), X.p))
            nats.append(NatMap(ext.layers[n], F, tuple(comps)))
        beta = ChainMap(ext, XB, tuple(nats))
    else:
        ext = zero_chain(XB.poset, X.p, XB.top)
        beta = ChainMap.zero(ext, XB)
    coker, _ = chain_coker(beta)
    hom_full = _hom_kernel(coker, XB).cols
    hom_rad = _hom_kernel(coker, chain_radical(XB)[0]).cols
    ring = end_ring(XB)
    K = _restriction_kernel(ring, ab_in_b)
    return (
        tuple(tuple(coker.dim_at(q, n) for n in range(max(coker.top, X.top) + 1)) for q in range(coker.poset.n)),
        hom_full == 0,
        hom_rad == hom_full,
        _ideal_is_nilpotent(K, ring),
        K.cols == 0,
        hom_full,
        hom_rad,
        K.cols,
        tuple(n for n in range(ext.top + 1) if any(ext.dim_at(q, n) for q in range(ext.poset.n))),
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), flat=st.booleans(), top=st.integers(0, 2), p=st.sampled_from([2, 3]))
def test_gluing_check_matches_kan_cocone_beta(seed, flat, top, p):
    rng = random.Random(seed)
    if flat:
        D = random_dim1_poset(rng, 5)
    else:
        D = random_poset(rng, 6)
        while D.dimension().at_most_one():
            D = random_poset(rng, 6)
    # Each element joins A only, B only or both; B is never empty.
    sides = [rng.choice(("A", "B", "AB")) for _ in range(D.n)]
    if "B" not in "".join(sides):
        sides[rng.randrange(D.n)] = "B"
    a_idx = {e for e, s in enumerate(sides) if "A" in s}
    b_idx = {e for e, s in enumerate(sides) if "B" in s}
    X = random_chain(rng, D, p, top)
    # Names go in shuffled and repeated; the report is that of the sets.
    a_names = [D.names[e] for e in sorted(a_idx) for _ in range(rng.randint(1, 2))]
    b_names = [D.names[e] for e in sorted(b_idx) for _ in range(rng.randint(1, 2))]
    rng.shuffle(a_names)
    rng.shuffle(b_names)
    try:
        expected = oracle_gluing(as_chain(X), a_idx, b_idx)
    except BadCoverError:
        with pytest.raises(BadCoverError):
            gluing_check(X, a_names, b_names)
        return
    assert dataclasses.astuple(gluing_check(X, a_names, b_names)) == expected
