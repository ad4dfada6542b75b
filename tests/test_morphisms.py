import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamechain.errors import BadCoverError, BudgetExceededError, NotIdempotentError, ZeroObjectError
from tamechain.field import Mat, kernel, rref, solve, solve_or_none
from tamechain.functors import (
    NatMap,
    VectFunctor,
    assemble_free_map,
    coker_functor,
    free_on_generators,
    kan_extend,
    ker_functor,
    minimal_cover,
)
from tamechain.chains import (
    ChainFunctor,
    ChainMap,
    _block_offsets,
    chain_coker,
    direct_sum_chains,
    standard_complex,
    suspension,
    zero_chain,
)
from tamechain.morphisms import (
    _YONEDA_MIN_UNKNOWNS,
    _direct_kernel,
    _hom_kernel,
    _relations_at,
    _yoneda_kernel,
    _ideal_is_nilpotent,
    _restriction_kernel,
    _structure_constants,
    as_chain,
    chain_radical,
    end_ring,
    gluing_check,
    hom_space,
    indecomposable,
    split_by_idempotent,
)
from tamechain.posets import FinPoset

from conftest import conjugate_chain, random_chain, random_dim1_poset, random_functor, random_functor_dim1, random_matrix, random_poset


def test_hom_contains_identity(fence):
    F = random_functor_dim1(random.Random(0), fence, 3)
    ring = end_ring(F)
    assert solve_or_none(ring.columns, Mat(ChainMap.identity(as_chain(F)).to_vec().reshape(-1, 1), F.p)) is not None


def test_hom_between_free_functors(chain2):
    Fa = free_on_generators(chain2, [(0, 1)], 3)
    Fb = free_on_generators(chain2, [(1, 1)], 3)
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
    basis = hom_space(F, F)
    for a in basis:
        for b in basis:
            assert solve_or_none(ring.columns, Mat((a @ b).to_vec().reshape(-1, 1), F.p)) is not None


def test_indecomposable_free_single_generator(fence):
    F = free_on_generators(fence, [(0, 1)], 5)
    res = indecomposable(F, "exhaustive")
    assert res.indecomposable
    assert res.end_dim == 1


def test_decomposable_sum_of_frees():
    anti = FinPoset.from_covers(["x", "y"], [])
    F = free_on_generators(anti, ((0, 1), (1, 1)), 2)
    res = indecomposable(F, "exhaustive")
    assert not res.indecomposable
    e = res.witness
    x1, x2, (i1, r1, i2, r2) = split_by_idempotent(F, e)
    assert x1.total_dim() + x2.total_dim() == 2
    assert x1.total_dim() > 0 and x2.total_dim() > 0
    comp1 = r1 @ i1
    assert all(m == Mat.identity(m.rows, m.p) for nat in comp1.nats for m in nat.comps)


def test_exhaustive_witness_is_a_nontrivial_idempotent(chain2):
    """P(a) + P(b) on a < b over F_3: End holds non-idempotents (2 id, the
    map P(b) -> P(a)), and the witness is an idempotent other than 0 and 1."""
    F = free_on_generators(chain2, ((0, 1), (1, 1)), 3)
    res = indecomposable(F)
    assert not res.indecomposable and res.end_dim == 3
    e = res.witness
    assert (e @ e) == e
    x1, x2, _ = split_by_idempotent(F, e)
    assert x1.total_dim() > 0 and x2.total_dim() > 0


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


def product_vec(a: ChainMap, b: ChainMap) -> np.ndarray:
    """`(a @ b).to_vec()` for endomorphisms a and b, from the products of
    their components in `to_vec` order, without building the composite."""
    flat = [(f.comps[q] @ g.comps[q]).arr.reshape(-1) for q in range(a.dom.poset.n) for f, g in zip(a.nats, b.nats)]
    return np.concatenate(flat + [np.zeros(0, dtype=np.int64)])


def reference_structure_constants(ring, basis) -> np.ndarray:
    """C[i, j] = coordinates of basis[i] . basis[j], from chain-map
    products and one solve."""
    dim, p = ring.dim, ring.obj.p
    if not dim:
        return np.zeros((0, 0, 0), dtype=np.int64)
    prods = [product_vec(a, b) for a in basis for b in basis]
    return solve(ring.columns, Mat(np.stack(prods, axis=1) % p, p)).arr.T.reshape(dim, dim, dim)


def reference_restriction_kernel(ring, basis, elements) -> Mat:
    """End coordinates of the maps vanishing on the elements, from the
    components of the basis maps there."""
    rows = np.stack(
        [
            np.concatenate([n.comps[q].arr.reshape(-1) for q in elements for n in b.nats] + [np.zeros(0, dtype=np.int64)])
            for b in basis
        ],
        axis=1,
    )
    return kernel(Mat(rows, ring.obj.p))


def reference_ideal_is_nilpotent(kernel_basis: list, ring) -> bool:
    """The ideal powers formed as chain-map products, each power given by
    the nonzero rows of an rref of the products' components."""
    if not kernel_basis:
        return True
    X, p = ring.obj, ring.obj.p
    power = list(kernel_basis)
    for _ in range(max(1, ring.dim)):
        prods = np.stack([product_vec(a, b) for a in power for b in kernel_basis])
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
    basis = hom_space(X, X)
    assert [ChainMap.from_vec(X, X, ring.columns.arr[:, j]) for j in range(ring.dim)] == basis
    assert np.array_equal(_structure_constants(ring), reference_structure_constants(ring, basis))
    if not ring.dim:
        return
    ident = ChainMap.identity(X).to_vec()[ring._free]
    assert solve_or_none(ring.columns, Mat(ChainMap.identity(X).to_vec().reshape(-1, 1), p)) == Mat(ident.reshape(-1, 1), p)
    elements = sorted(rng.sample(range(P.n), rng.randint(0, P.n)))
    K = _restriction_kernel(ring, elements)
    assert K == reference_restriction_kernel(ring, basis, elements)
    # Maps Y -> Z inside End(Y + Z) square to zero; with the maps Z -> Y
    # added, and in a random subspace, the powers may not vanish.
    forward = [iZ @ h @ pY for h in hom_space(Y, Z)]
    backward = [iY @ h @ pZ for h in hom_space(Z, Y)]
    m = rng.randint(1, 3)
    spans = [K, Mat([[rng.randrange(p) for _ in range(m)] for _ in range(ring.dim)], p)]
    for maps in (forward, forward + backward):
        if maps:
            spans.append(Mat.hstack([solve_or_none(ring.columns, Mat(phi.to_vec().reshape(-1, 1), p)) for phi in maps]))
    for ideal in spans:
        maps = [ring.element(ideal.arr[:, j]) for j in range(ideal.cols)]
        assert _ideal_is_nilpotent(ideal, ring) == reference_ideal_is_nilpotent(maps, ring)


# --- hom by Yoneda against the direct system ---------------------------------------


def _poset_of_dimension(rng: random.Random, at_most_one: bool) -> FinPoset:
    while True:
        P = random_dim1_poset(rng, 6) if at_most_one else random_poset(rng, 6)
        if P.dimension().at_most_one() == at_most_one:
            return P


# The diamond and the cube (the subsets of {x, y, z}) have dimension >= 2.
DIAMOND = FinPoset.from_covers(["0", "x", "y", "1"], [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
CUBE = FinPoset.from_covers(
    ["0", "x", "y", "z", "xy", "xz", "yz", "xyz"],
    [("0", "x"), ("0", "y"), ("0", "z"), ("x", "xy"), ("x", "xz"), ("y", "xy"), ("y", "yz"), ("z", "xz"), ("z", "yz")]
    + [("xy", "xyz"), ("xz", "xyz"), ("yz", "xyz")],
)
SHAPES = st.sampled_from(["dimension <= 1", "dimension >= 2", "diamond", "cube"])


def _shaped_poset(rng: random.Random, shape: str) -> FinPoset:
    return {"diamond": DIAMOND, "cube": CUBE}.get(shape) or _poset_of_dimension(rng, shape == "dimension <= 1")


def _with_relations(rng: random.Random, P: FinPoset, p: int, max_rel: int) -> VectFunctor:
    """The cokernel of a map F1 -> F0 between frees, with up to `max_rel`
    generators of F1 at each element, each sent into the radical of F0 (the
    coordinates owned by smaller elements).  So F0 is the minimal cover, and
    the relations that do not depend on others generate ker s."""
    F0 = free_on_generators(P, [(z, rng.randint(0, 2)) for z in range(P.n)], p)
    F1 = free_on_generators(P, [(z, rng.randint(0, max_rel)) for z in range(P.n)], p)
    owner = np.repeat([z for z, _ in F0.generators], [d for _, d in F0.generators]).astype(np.intp)
    values = []
    for z, d in F1.generators:
        V = random_matrix(rng, F0.dims[z], d, p).arr.copy()
        V[owner[P.leq_matrix[owner, z]] == z] = 0
        values.append(Mat(V, p))
    return coker_functor(assemble_free_map(F1, F0, values))[0]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    SHAPES,
    st.sampled_from([0, 1, 2, 3]),
    st.sampled_from(["same", "other", "zero domain", "zero codomain", "free domain"]),
    st.integers(0, 2**30),
)
def test_yoneda_route_matches_the_direct_system(p, shape, max_rel, kind, seed):
    # Whatever the crossover, the route through X's minimal cover gives the
    # direct system's canonical kernel basis to the bit.  A free X has no
    # equations; a zero X or Y no unknowns.  With max_rel >= 1, X's
    # relations lie in the radical, so ker s has generators at several
    # elements; with 0, X is a random cokernel whose relations may also
    # remove generators.
    rng = random.Random(seed)
    P = _shaped_poset(rng, shape)
    X = _with_relations(rng, P, p, max_rel) if max_rel else random_functor(rng, P, p)
    Y = random_functor(rng, P, p)
    zero = VectFunctor(P, [0] * P.n, {}, p)
    X, Y = {
        "same": (X, X),
        "other": (X, Y),
        "zero domain": (zero, Y),
        "zero codomain": (X, zero),
        "free domain": (free_on_generators(P, [(z, rng.randint(0, 2)) for z in range(P.n)], p), Y),
    }[kind]
    cX, cY = as_chain(X), as_chain(Y)
    offs = _block_offsets(cX, cY)
    nvars = sum(r * c for row in offs for _, r, c in row)
    K = _direct_kernel(cX, cY, offs, nvars)
    assert _yoneda_kernel(X, Y, offs, nvars) == K
    assert _hom_kernel(cX, cY) == K


@pytest.mark.parametrize("p", [2, 2147483629])
def test_yoneda_route_without_equations_matches_the_direct_system(chain3, p):
    # A free domain has no relations, so the Yoneda system has no rows and
    # its kernel is the shared identity; past the crossover (81 and 69
    # unknowns), the basis is still the direct system's, at a prime where
    # products take the 16-bit halves too.
    rng = random.Random(p)
    X = free_on_generators(chain3, [(0, 3), (1, 3)], p)
    assert minimal_cover(X).P.dims == X.dims
    for Y in (X, conjugate_chain(rng, as_chain(free_on_generators(chain3, [(0, 3), (1, 1), (2, 2)], p))).layers[0]):
        cX, cY = as_chain(X), as_chain(Y)
        offs = _block_offsets(cX, cY)
        nvars = sum(r * c for row in offs for _, r, c in row)
        assert nvars >= _YONEDA_MIN_UNKNOWNS
        assert _yoneda_kernel(X, Y, offs, nvars) == _direct_kernel(cX, cY, offs, nvars)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), SHAPES, st.integers(1, 3), st.integers(0, 2**30))
def test_yoneda_relations_are_the_generators_of_ker_s(p, shape, max_rel, seed):
    # The vectors of ker(s_q) the Yoneda route imposes at q are as many as
    # the generators at q of the minimal cover of ker s: P1 of X.
    rng = random.Random(seed)
    P = _shaped_poset(rng, shape)
    cov = minimal_cover(_with_relations(rng, P, p, max_rel))
    nulls = [kernel(m).arr for m in cov.s.comps]
    relations = dict(minimal_cover(ker_functor(cov.s)[0]).generators)
    assert [_relations_at(cov.P, nulls, q).shape[1] for q in range(P.n)] == [relations.get(q, 0) for q in range(P.n)]


def test_hom_takes_the_yoneda_route_from_the_crossover_on(chain3):
    # Below the crossover the domain's minimal cover is not formed; from it
    # on, hom is read off that cover, which the functor then keeps.  The
    # direct system has 3 d**2 unknowns here: 12 and 75.
    for d in (2, 5):
        F = free_on_generators(chain3, [(0, d)], 3)
        G = VectFunctor(chain3, [d, d, d], {}, 3)
        assert len(hom_space(F, G)) == d * d
        assert (F._cover is not None) == (3 * d * d >= _YONEDA_MIN_UNKNOWNS)


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
                    comps.append(Mat.zeros(F.dims[q], ext.layer(n).dims[q], X.p))
            nats.append(NatMap(ext.layers[n], F, tuple(comps)))
        beta = ChainMap(ext, XB, tuple(nats))
    else:
        ext = suspension(zero_chain(XB.poset, X.p), XB.top)
        beta = ChainMap.zero(ext, XB)
    coker, _ = chain_coker(beta)
    hom_full = _hom_kernel(coker, XB).cols
    hom_rad = _hom_kernel(coker, chain_radical(XB)[0]).cols
    ring = end_ring(XB)
    K = _restriction_kernel(ring, ab_in_b)
    return (
        tuple(tuple(coker.layer(n).dims[q] for n in range(max(coker.top, X.top) + 1)) for q in range(coker.poset.n)),
        hom_full == 0,
        hom_rad == hom_full,
        _ideal_is_nilpotent(K, ring),
        K.cols == 0,
        hom_full,
        hom_rad,
        K.cols,
        tuple(n for n in range(ext.top + 1) if any(ext.layer(n).dims[q] for q in range(ext.poset.n))),
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
