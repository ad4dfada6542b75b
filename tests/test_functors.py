import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tamechain.functors
from tamechain.errors import KernelNotProjectiveError, ValidationError
from tamechain.field import Mat, kernel
from tamechain.functors import (
    NatMap,
    VectFunctor,
    assemble_free_map,
    coker_functor,
    colim_over,
    common_realized_discretization,
    direct_sum_functors,
    free_on_generators,
    is_projective,
    kan_extend,
    ker_functor,
    local_homology,
    minimal_cover,
    minimal_resolution,
    radical,
)
from tamechain.posets import FinPoset, realize

from conftest import (
    combine,
    inverse,
    lift_through,
    oracle_lift,
    random_dim1_poset,
    random_functor,
    random_functor_dim1,
    random_invertible,
    random_matrix,
    random_poset,
)


def test_free_functor_zero_multiplicity(chain2):
    F = free_on_generators(chain2, [(0, 0)], 2)
    assert F.dims == (0, 0)


def test_free_functor_on_chain(chain2):
    F = free_on_generators(chain2, [(0, 2)], 3)
    assert F.dims == (2, 2)
    assert F.maps[(0, 1)] == Mat.identity(2, 3)
    G = free_on_generators(chain2, [(1, 3)], 3)
    assert G.dims == (0, 3)


def oracle_free(poset, gens, p):
    """Free functor coordinate by coordinate: at q, the blocks of the
    generators below q in generator order; each cover map sends every
    coordinate of a block to the same coordinate of that block above."""
    merged = {}
    for z, d in gens:
        merged[z] = merged.get(z, 0) + d
    gens = tuple((z, d) for z, d in sorted(merged.items()) if d)

    def blocks(q):
        out, at = {}, 0
        for i, (z, d) in enumerate(gens):
            if poset.leq(z, q):
                out[i] = at
                at += d
        return out

    dims = [sum(d for z, d in gens if poset.leq(z, q)) for q in range(poset.n)]
    maps = {}
    for y, x in poset.covers:
        m = np.zeros((dims[x], dims[y]), dtype=np.int64)
        above = blocks(x)
        for i, start in blocks(y).items():
            for k in range(gens[i][1]):
                m[above[i] + k, start + k] = 1
        maps[(y, x)] = Mat(m, p)
    return tuple(dims), maps, gens


def oracle_direct_sum(functors):
    """Direct sum coordinate by coordinate: summand j occupies the
    coordinates after those of summands 0..j-1 at every element."""
    poset, p = functors[0].poset, functors[0].p
    dims = [sum(F.dims[q] for F in functors) for q in range(poset.n)]
    maps = {}
    for y, x in poset.covers:
        m = np.zeros((dims[x], dims[y]), dtype=np.int64)
        ry = rx = 0
        for F in functors:
            m[rx : rx + F.dims[x], ry : ry + F.dims[y]] = F.maps[(y, x)].arr
            ry += F.dims[y]
            rx += F.dims[x]
        maps[(y, x)] = Mat(m, p)
    incls, projs = [], []
    at = [0] * poset.n
    for F in functors:
        inc, prj = [], []
        for q in range(poset.n):
            i = np.zeros((dims[q], F.dims[q]), dtype=np.int64)
            j = np.zeros((F.dims[q], dims[q]), dtype=np.int64)
            for k in range(F.dims[q]):
                i[at[q] + k, k] = 1
                j[k, at[q] + k] = 1
            inc.append(Mat(i, p))
            prj.append(Mat(j, p))
            at[q] += F.dims[q]
        incls.append(tuple(inc))
        projs.append(tuple(prj))
    return tuple(dims), maps, incls, projs


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=2**30))
def test_free_functors_and_direct_sums_match_per_coordinate_oracles(dim1, p, seed):
    rng = random.Random(seed)
    P = random_dim1_poset(rng, 7) if dim1 else random_poset(rng, 7)
    # Repeated elements and multiplicity 0 included; no generators at all too.
    gens = [(rng.randrange(P.n), rng.randint(0, 2)) for _ in range(rng.randint(0, 6))]
    F = free_on_generators(P, gens, p)
    dims, maps, normalized = oracle_free(P, gens, p)
    assert F.dims == dims and F.maps == maps and F.generators == normalized

    summands = [F, random_functor(rng, P, p, max_dim=2), free_on_generators(P, (), p)]
    summands = [summands[rng.randrange(3)] for _ in range(rng.randint(1, 4))]
    total, incls, projs = direct_sum_functors(summands)
    dims, maps, oracle_incls, oracle_projs = oracle_direct_sum(summands)
    assert total.dims == dims and total.maps == maps
    assert [i.comps for i in incls] == oracle_incls
    assert [j.comps for j in projs] == oracle_projs
    for G, i, j in zip(summands, incls, projs):
        assert i.dom is G and i.cod is total and j.dom is total and j.cod is G


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=2**30))
def test_cover_and_resolution_generators_are_local_h0(dim1, p, seed):
    rng = random.Random(seed)
    P = random_dim1_poset(rng, 6) if dim1 else random_poset(rng, 6)
    F = random_functor(rng, P, p, max_dim=2)

    def h0_generators(G):
        return tuple((x, h) for x in range(P.n) if (h := local_homology(G, x).h0_dim))

    cov = minimal_cover(F)
    assert cov.generators == h0_generators(F) and cov.generators is cov.P.generators
    if not dim1:
        return
    res = minimal_resolution(F)
    K, _ = ker_functor(cov.s)
    assert res.gens0 == h0_generators(F) and res.gens1 == h0_generators(K)
    assert res.gens0 is res.p0.generators and res.gens1 is res.p1.generators
    assert tuple(a - b for a, b in zip(res.p0.dims, res.p1.dims)) == F.dims


def test_functoriality_check_rejects_bad_square(diamond):
    maps = {
        (0, 1): Mat([[1]], 2),
        (0, 2): Mat([[1]], 2),
        (1, 3): Mat([[1]], 2),
        (2, 3): Mat([[0]], 2),  # the two paths now disagree
    }
    with pytest.raises(ValidationError):
        VectFunctor(diamond, [1, 1, 1, 1], maps, 2)


def eager_composites(F: VectFunctor) -> dict[int, dict[int, Mat]]:
    """Every composite, keyed by target and then source, formed eagerly
    along a linear extension with path independence asserted."""
    into = {e: {e: Mat.identity(F.dims[e], F.p)} for e in range(F.poset.n)}
    for x in F.poset.linear_extension():
        for y in F.poset.covered_by(x):
            for src, m in into[y].items():
                comp = F.maps[(y, x)] @ m
                assert into[x].setdefault(src, comp) == comp
    return into


def _check_lazy_against_eager(rng: random.Random, F: VectFunctor) -> None:
    oracle = eager_composites(F)
    pairs = [(y, x) for x in range(F.poset.n) for y in oracle[x]]
    assert len(pairs) == int(F.poset.leq_matrix.sum())
    rng.shuffle(pairs)  # hit the cache from every side
    for y, x in pairs:
        assert F.map_leq(y, x) == oracle[x][y]


def test_map_leq_matches_eager_composites_on_dim1_posets():
    rng = random.Random(11)
    for _ in range(40):
        P = random_dim1_poset(rng, 9)
        _check_lazy_against_eager(rng, random_functor_dim1(rng, P, rng.choice([2, 3, 5])))


def test_map_leq_matches_eager_composites_on_a_realization():
    rng = random.Random(12)
    base = FinPoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("d", "c")])
    rp = realize(base, None, [Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 5)])
    _check_lazy_against_eager(rng, random_functor_dim1(rng, rp, 5))


def test_map_leq_walks_a_long_realized_chain():
    base = FinPoset.from_covers(["a", "b"], [("a", "b")])
    rp = realize(base, None, [Fraction(-k, 1601) for k in range(1, 1601)])
    assert rp.n > 1500
    F = VectFunctor(rp, [1] * rp.n, {c: Mat([[2]], 5) for c in rp.covers}, 5)
    assert F.map_leq(rp.index("a"), rp.index("b")) == Mat([[pow(2, len(rp.covers), 5)]], 5)


def test_colim_singleton_and_empty(fence):
    F = random_functor_dim1(random.Random(0), fence, 5)
    for x in range(fence.n):
        co = colim_over(F, [x])
        assert co.dim == F.dims[x]
        assert co.cocone[x] == Mat.identity(co.dim, F.p)
    assert colim_over(F, []).dim == 0


def test_colim_down_set_of_free(fence):
    F = free_on_generators(fence, [(0, 2)], 2)
    for q in np.flatnonzero(fence.leq_matrix[0]).tolist():
        co = colim_over(F, np.flatnonzero(fence.leq_matrix[:, q]).tolist())
        assert co.dim == 2  # one surviving generator


def test_kan_extension_free(fence):
    sub = fence.restrict([0])
    F = VectFunctor(sub, [1], {}, 2)
    ext = kan_extend(F, fence, [0], method="colim")
    assert ext.functor.dims == (1, 0, 1, 1)
    for q in range(fence.n):
        for comp in (ext.functor.maps.get((y, x)) for y, x in fence.covers):
            pass
    free = free_on_generators(fence, [(0, 1)], 2)
    assert ext.functor.dims == free.dims


def test_kan_transfer_route_needs_its_hypotheses(fence, diamond):
    # The transfer route builds its extension unchecked, so it refuses
    # the inputs on which it would not be a functor.
    F = VectFunctor(fence.restrict([0, 1]), [1, 1], {}, 2)
    with pytest.raises(ValueError, match="closed image"):
        kan_extend(F, fence, [0, 1], method="transfer")
    assert kan_extend(F, fence, [0, 1]).method == "colim"
    G = VectFunctor(diamond.restrict([0]), [1], {}, 2)
    with pytest.raises(ValueError, match="dimension <= 1"):
        kan_extend(G, diamond, [0], method="transfer")


def test_kan_extension_restriction_is_iso():
    rng = random.Random(1)
    for _ in range(15):
        amb = random_dim1_poset(rng, 6)
        sub_idx = sorted({rng.randrange(amb.n) for _ in range(rng.randint(1, amb.n))})
        F = random_functor_dim1(rng, amb.restrict(sub_idx), 3)
        ext = kan_extend(F, amb, sub_idx, method="colim")
        for d in range(F.poset.n):
            unit = ext.unit[d]
            assert unit.rows == ext.functor.dims[sub_idx[d]]
            assert unit.cols == F.dims[d]
            assert unit.rank() == unit.rows == unit.cols


def test_kan_transfer_path_equals_colim_path():
    from tamechain.posets import transfer_point

    rng = random.Random(2)
    for _ in range(15):
        amb = random_dim1_poset(rng, 6)
        closed = amb.closure(sorted({rng.randrange(amb.n) for _ in range(rng.randint(1, amb.n))}))
        F = random_functor_dim1(rng, amb.restrict(closed), 3)
        e1 = kan_extend(F, amb, closed, method="colim")
        e2 = kan_extend(F, amb, closed, method="transfer")
        assert e1.functor.dims == e2.functor.dims
        # The transfer value sits terminally in the down-set: its cocone
        # component is the canonical iso between the two routes, and it
        # intertwines the structure maps of the two extensions.
        pos = {e: i for i, e in enumerate(closed)}
        iso = {}
        for x in range(amb.n):
            t = transfer_point(amb, closed, x)
            if t is None:
                assert e1.functor.dims[x] == 0
                iso[x] = Mat.zeros(0, 0, F.p)
                continue
            comp = e1.cocones[x].cocone[pos[t]]
            assert comp.rank() == comp.rows == comp.cols
            iso[x] = comp
        for y, x in amb.covers:
            m1 = e1.functor.maps[(y, x)]
            m2 = e2.functor.maps[(y, x)]
            assert m1 @ iso[y] == iso[x] @ m2


def per_point_colimits(F: VectFunctor, ambient: FinPoset, embed) -> list:
    """The colimit over the down-set in the image, formed separately at
    every ambient point."""
    return [
        colim_over(F, [d for d in range(F.poset.n) if ambient.leq(embed[d], x)])
        for x in range(ambient.n)
    ]


def check_colim_route(monkeypatch, F: VectFunctor, ambient: FinPoset, embed) -> int:
    """kan_extend(method="colim") forms one colimit per distinct down-set
    and equals the per-point construction exactly; returns the number of
    colimits formed."""
    calls = []

    def counting(G, subset):
        calls.append(tuple(subset))
        return colim_over(G, subset)

    with monkeypatch.context() as mp:
        mp.setattr(tamechain.functors, "colim_over", counting)
        ext = kan_extend(F, ambient, embed, method="colim")
    oracle = per_point_colimits(F, ambient, embed)
    assert len(calls) == len(set(calls)) == len({co.elements for co in oracle})
    assert ext.functor.dims == tuple(co.dim for co in oracle)
    for y, x in ambient.covers:
        expected = oracle[y].map_into(oracle[x], lambda s: Mat.identity(F.dims[s], F.p))
        assert ext.functor.maps[(y, x)] == expected
    assert ext.unit == tuple(oracle[embed[d]].cocone[d] for d in range(F.poset.n))
    for x, co in enumerate(oracle):
        got = ext.cocones[x]
        assert got.proj == co.proj and got.section == co.section
        assert got.elements == co.elements and got.blocks == co.blocks
        assert got.cocone == co.cocone
    return len(calls)


def test_colim_route_forms_one_colimit_per_down_set(monkeypatch):
    rng = random.Random(31)
    # Random dimension-1 posets.
    for _ in range(20):
        amb = random_dim1_poset(rng, 7)
        sub = sorted({rng.randrange(amb.n) for _ in range(rng.randint(1, amb.n))})
        F = random_functor_dim1(rng, amb.restrict(sub), rng.choice([2, 3, 5]))
        check_colim_route(monkeypatch, F, amb, sub)
    # A realization along its vertices: an edge point shares the down-set
    # of its bottom vertex.
    base = FinPoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("d", "c")])
    rp = realize(base, None, [Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 5)])
    F = random_functor_dim1(rng, base, 3)
    assert check_colim_route(monkeypatch, F, rp, [rp.index(n) for n in base.names]) < rp.n
    # Dimension-2 ambient posets, where only the colimit route is legal.
    done = 0
    while done < 8:
        amb = random_poset(rng, 7)
        if amb.dimension().at_most_one():
            continue
        sub = sorted({rng.randrange(amb.n) for _ in range(rng.randint(1, amb.n))})
        F = random_functor(rng, amb.restrict(sub), rng.choice([2, 3]))
        with pytest.raises(ValueError):
            kan_extend(F, amb, sub, method="transfer")
        check_colim_route(monkeypatch, F, amb, sub)
        done += 1


def test_local_homology_of_free(chain2, diamond):
    F = free_on_generators(chain2, [(0, 1)], 2)
    lh = local_homology(F, 0)
    assert lh.h0_dim == 1 and lh.h1_dim == 0
    lh1 = local_homology(F, 1)
    assert lh1.h0_dim == 0 and lh1.h1_dim == 0
    # On the diamond the free functor at the bottom has one-dimensional
    # degree-1 local homology at the top.
    G = free_on_generators(diamond, [(0, 1)], 2)
    top = diamond.index("c4")
    lht = local_homology(G, top)
    assert lht.h0_dim == 0
    assert lht.h1_dim == 1


def test_h1_vanishes_for_free_on_dim1_posets():
    rng = random.Random(3)
    for _ in range(20):
        P = random_dim1_poset(rng, 7)
        z = rng.randrange(P.n)
        F = free_on_generators(P, [(z, rng.randint(1, 3))], 5)
        for x in range(P.n):
            assert local_homology(F, x).h1_dim == 0


def test_radical_of_free(chain3):
    F = free_on_generators(chain3, [(0, 2)], 3)
    rad, incl = radical(F)
    assert rad.dims == (0, 2, 2)
    for x in range(chain3.n):
        assert incl.comps[x].cols == rad.dims[x]


def test_radical_zero_cases():
    anti = FinPoset.from_covers(["x", "y"], [])
    F = random_functor_dim1(random.Random(4), anti, 2)
    rad, _ = radical(F)
    assert rad.dims == (0, 0)
    chain = FinPoset.from_covers(["a", "b"], [("a", "b")])
    G = VectFunctor(chain, [1, 1], {(0, 1): Mat.zeros(1, 1, 2)}, 2)
    rad2, _ = radical(G)
    assert rad2.dims == (0, 0)


def test_minimal_cover_of_free_is_iso(fence):
    F = free_on_generators(fence, ((0, 1), (2, 2)), 5)
    cov = minimal_cover(F)
    assert cov.generators == ((0, 1), (2, 2))
    assert cov.s.is_iso()


def test_minimal_cover_of_zero_map_chain(chain2):
    F = VectFunctor(chain2, [1, 1], {(0, 1): Mat.zeros(1, 1, 2)}, 2)
    cov = minimal_cover(F)
    assert cov.P.dims == (1, 2)
    assert cov.generators == ((0, 1), (1, 1))
    assert cov.s.is_epi()


def test_minimal_cover_epi_and_kernel_in_radical():
    rng = random.Random(5)
    for _ in range(20):
        P = random_dim1_poset(rng, 6)
        F = random_functor_dim1(rng, P, 3)
        cov = minimal_cover(F)
        assert cov.s.is_epi()
        K, incl = ker_functor(cov.s)
        rad, rincl = radical(cov.P)
        for x in range(P.n):
            # Every kernel vector lies in the radical of the cover.
            from tamechain.field import solve_or_none

            assert solve_or_none(rincl.comps[x], incl.comps[x]) is not None


def test_minimal_cover_minimality_randomized(fence):
    # Every endomorphism phi of the cover with s . phi = s is an iso:
    # sample 32 points of the affine space id + {psi : s . psi = 0}.
    import numpy as np
    from tamechain.morphisms import hom_space

    rng = random.Random(6)
    for _ in range(4):
        F = random_functor_dim1(rng, fence, 3)
        cov = minimal_cover(F)
        basis = hom_space(cov.P, cov.P)
        vecs = [
            np.concatenate(
                [(cov.s.comps[q] @ b.nats[0].comps[q]).arr.reshape(-1) for q in range(fence.n)]
            )
            for b in basis
        ]
        M = Mat(np.stack(vecs, axis=1) % F.p, F.p)
        K = kernel(M)
        for _ in range(32):
            coeffs = [rng.randrange(F.p) for _ in range(K.cols)]
            flat = (K.arr @ np.array(coeffs, dtype=np.int64).reshape(-1, 1)) % F.p if K.cols else None
            psi_coeffs = [int(v) for v in flat[:, 0]] if flat is not None else []
            phi = combine(basis, psi_coeffs) if psi_coeffs else None
            for q in range(fence.n):
                comp = phi.nats[0].comps[q] if phi is not None else Mat.zeros(cov.P.dims[q], cov.P.dims[q], F.p)
                total = Mat.identity(cov.P.dims[q], F.p) + comp
                assert (cov.s.comps[q] @ total) == cov.s.comps[q]
                assert total.rank() == total.rows


def test_is_projective_examples(fence, chain2):
    F = free_on_generators(fence, ((1, 2),), 2)
    pres = is_projective(F)
    assert pres is not None and pres.generators == ((1, 2),)
    # dims (1,1) with zero map is a sum of two atoms; the atom at the
    # bottom is not projective: its degree-1 local homology at the top is
    # ker(0: F -> F) = F.  (Consistent with its length-1 resolution.)
    G = VectFunctor(chain2, [1, 1], {(0, 1): Mat.zeros(1, 1, 2)}, 2)
    assert local_homology(G, 1).h1_dim == 1
    assert is_projective(G) is None
    # Interval functor through b3 alone is not projective: H1 at b3 is F.
    interval = VectFunctor(
        fence,
        [1, 1, 1, 0],
        {
            (0, 2): Mat([[1]], 2),
            (1, 2): Mat([[1]], 2),
            (0, 3): Mat.zeros(0, 1, 2),
            (1, 3): Mat.zeros(0, 1, 2),
        },
        2,
    )
    A = Mat([[1, 1]], 2)
    assert kernel(A).cols == 1  # oracle for the H1 computation
    assert local_homology(interval, 2).h1_dim == 1
    assert is_projective(interval) is None


def test_is_projective_general_poset(diamond):
    F = free_on_generators(diamond, [(0, 1)], 2)
    assert is_projective(F) is not None
    atom = VectFunctor(diamond, [0, 0, 0, 1], {}, 2)
    assert is_projective(atom) is not None  # equals the free functor at the top
    bottom_atom = VectFunctor(diamond, [1, 0, 0, 0], {}, 2)
    assert is_projective(bottom_atom) is None


def test_minimal_resolution_projective_input(fence):
    F = free_on_generators(fence, ((0, 1), (3, 1)), 3)
    res = minimal_resolution(F)
    assert res.length == 0
    assert res.p1.is_zero()


def test_minimal_resolution_zero_map_chain(chain2):
    F = VectFunctor(chain2, [1, 1], {(0, 1): Mat.zeros(1, 1, 2)}, 2)
    res = minimal_resolution(F)
    assert res.p0.dims == (1, 2)
    assert res.p1.dims == (0, 1)
    assert res.gens1 == ((1, 1),)
    # Exactness: kernel of aug equals image of d objectwise.
    for x in range(chain2.n):
        K = kernel(res.aug.comps[x])
        assert K.cols == res.p1.dims[x]
        assert res.d.comps[x].rank() == res.p1.dims[x]


def test_minimal_resolution_fails_beyond_dimension_one(diamond):
    atom = VectFunctor(diamond, [1, 0, 0, 0], {}, 2)
    with pytest.raises(KernelNotProjectiveError):
        minimal_resolution(atom)


def test_resolution_exact_and_minimal_randomized():
    rng = random.Random(7)
    for _ in range(20):
        P = random_dim1_poset(rng, 6)
        F = random_functor_dim1(rng, P, 3)
        res = minimal_resolution(F)
        rad, rincl = radical(res.p0)
        from tamechain.field import solve_or_none

        for x in range(P.n):
            assert res.d.comps[x].rank() == res.p1.dims[x]  # objectwise mono
            K = kernel(res.aug.comps[x])
            assert K.cols == res.p1.dims[x]
            assert solve_or_none(rincl.comps[x], res.d.comps[x]) is not None


def test_lift_through_epi():
    rng = random.Random(8)
    for _ in range(10):
        P = random_dim1_poset(rng, 5)
        F = random_functor_dim1(rng, P, 3)
        cov = minimal_cover(F)
        # Lift the cover against itself: result must be compatible.
        lifted = lift_through(cov.s, cov.s)
        assert all(
            (cov.s.comps[x] @ lifted.comps[x]) == cov.s.comps[x] for x in range(P.n)
        )


def oracle_is_projective(F):
    """Over a poset of dimension <= 1: projective exactly when every local
    H1 vanishes."""
    return not any(local_homology(F, x).h1_dim for x in range(F.poset.n))


def random_oriented_tree(rng, n):
    names = [f"e{i}" for i in range(n)]
    covers = []
    for j in range(1, n):
        i = rng.randrange(j)
        covers.append((names[i], names[j]) if rng.random() < 0.5 else (names[j], names[i]))
    return FinPoset.from_covers(names, covers)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=2**30),
)
def test_projectivity_and_lifts_match_oracles(n, p, seed):
    rng = random.Random(seed)
    T = random_oriented_tree(rng, n)
    F = random_functor_dim1(rng, T, p, max_dim=2)
    cov = is_projective(F)
    assert (cov is not None) == oracle_is_projective(F)
    if cov is not None:
        ref = minimal_cover(F)
        assert cov.generators == ref.generators and cov.s.comps == ref.s.comps

    # A free functor D and a conjugate Dc of it: both projective, Dc not free.
    D = free_on_generators(T, [(z, rng.randint(0, 2)) for z in range(n)], p)
    U = [random_invertible(rng, d, p) for d in D.dims]
    Uinv = [inverse(u) for u in U]
    Dc = VectFunctor(T, D.dims, {(y, x): U[x] @ m @ Uinv[y] for (y, x), m in D.maps.items()}, p)
    assert Dc.generators is None
    assert oracle_is_projective(D) and oracle_is_projective(Dc)

    # e onto G, and e from a free E that need not be epi, with f = e h.
    G = random_functor_dim1(rng, T, p, max_dim=2)
    E = free_on_generators(T, [(z, rng.randint(0, 2)) for z in range(n)], p)
    targets = [minimal_cover(G).s, assemble_free_map(E, G, [random_matrix(rng, G.dims[z], d, p) for z, d in E.generators])]
    for e in targets:
        h = assemble_free_map(D, e.dom, [random_matrix(rng, e.dom.dims[z], d, p) for z, d in D.generators])
        f = e @ h
        fc = NatMap(Dc, G, tuple(m @ u for m, u in zip(f.comps, Uinv)))
        cov_d, cov_dc = is_projective(D), is_projective(Dc)
        g = lift_through(f, e)
        gc = lift_through(fc, e)
        assert g.comps == oracle_lift(f, e, D.generators, NatMap.identity(D))
        assert g.comps == oracle_lift(f, e, cov_d.generators, cov_d.s)
        assert gc.comps == oracle_lift(fc, e, cov_dc.generators, cov_dc.s)
        for lift, target in ((g, f), (gc, fc)):
            assert lift.dom is target.dom and lift.cod is e.dom
            assert (e @ lift).comps == target.comps
    if cov is None:
        with pytest.raises(ValueError):
            lift_through(NatMap.zero(F, G), targets[0])


def test_common_discretization_fence_halves(fence):
    """Kan extension of each half onto the closure of their union."""
    left = fence.restrict([0, 2])
    right = fence.restrict([1, 3])
    F1 = random_functor_dim1(random.Random(9), left, 2)
    F2 = random_functor_dim1(random.Random(10), right, 2)
    closed = fence.closure({0, 2, 1, 3})
    assert closed == (0, 1, 2, 3)
    sub = fence.restrict(closed)
    assert sub.names == fence.names
    G1, G2 = (kan_extend(F, sub, [closed.index(e) for e in embed]).functor for F, embed in ((F1, [0, 2]), (F2, [1, 3])))
    assert G1.dims[0] == F1.dims[0]
    assert G2.dims[1] == F2.dims[0]


def test_common_discretization_single(fence):
    F = random_functor_dim1(random.Random(11), fence.restrict([0, 2]), 2)
    closed = fence.closure({0, 2})
    assert set(closed) == {0, 2}
    G = kan_extend(F, fence.restrict(closed), [closed.index(0), closed.index(2)]).functor
    assert G.dims == F.dims


def test_six_term_local_homology_exactness():
    # For a subfunctor Z of F: 0 -> H1(Z) -> H1(F) -> H1(F/Z) -> H0(Z)
    # -> H0(F) -> H0(F/Z) -> 0 is exact; verified by rank bookkeeping.
    rng = random.Random(12)
    for _ in range(12):
        P = random_dim1_poset(rng, 5)
        F = random_functor_dim1(rng, P, 3)
        rad, incl = radical(F)
        Q, proj = coker_functor(incl)
        for x in range(P.n):
            hF = local_homology(F, x)
            hZ = local_homology(rad, x)
            hQ = local_homology(Q, x)
            euler = hZ.h1_dim - hF.h1_dim + hQ.h1_dim - hZ.h0_dim + hF.h0_dim - hQ.h0_dim
            assert euler == 0


def test_common_realized_discretization():
    from fractions import Fraction
    from tamechain.posets import realize
    from tamechain.functors import common_realized_discretization

    rng = random.Random(13)
    base = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    rp1 = realize(base, ["a", "b"], [Fraction(-1, 2)])
    rp2 = realize(base, ["b", "c"], [Fraction(-1, 3)])
    F1 = random_functor_dim1(rng, rp1, 2)
    F2 = random_functor_dim1(rng, rp2, 2)
    union, (G1, G2) = common_realized_discretization(base, [F1, F2])
    assert set(union.names) >= set(rp1.names) | set(rp2.names)
    for name in rp1.names:
        assert G1.dims[union.index(name)] == F1.dims[rp1.index(name)]
    for name in rp2.names:
        assert G2.dims[union.index(name)] == F2.dims[rp2.index(name)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.booleans(), st.integers(min_value=0, max_value=2**30))
def test_projectivity_test_matches_cover_ranks(p, conjugated_free, seed):
    """`is_projective` compares dims only, because a minimal cover is onto:
    on posets of every dimension it must agree with the cover's ranks."""
    rng = random.Random(seed)
    P = random_poset(rng, 6)
    if conjugated_free:
        D = free_on_generators(P, [(z, rng.randint(0, 2)) for z in range(P.n)], p)
        U = [random_invertible(rng, d, p) for d in D.dims]
        F = VectFunctor(P, D.dims, {(y, x): U[x] @ m @ inverse(U[y]) for (y, x), m in D.maps.items()}, p)
    else:
        F = random_functor(rng, P, p)
    s = minimal_cover(F).s
    assert s.is_epi()
    assert (is_projective(F) is not None) == s.is_iso()
    if conjugated_free:
        assert s.is_iso()


def _ones(poset: FinPoset, p: int) -> VectFunctor:
    """The functor with F_p at every element and identity cover maps."""
    return VectFunctor(poset, [1] * poset.n, {cover: Mat([[1]], p) for cover in poset.covers}, p)


# Two posets with the same names and different covers, and two fields.
DISCRETE = FinPoset.from_covers(["a", "b"], [])
CHAIN = FinPoset.from_covers(["a", "b"], [("a", "b")])
POINT = FinPoset.from_covers(["*"], [])


@pytest.mark.parametrize(
    "dom, cod, comps",
    [
        (_ones(DISCRETE, 2), _ones(CHAIN, 2), (Mat([[1]], 2), Mat([[1]], 2))),
        (_ones(CHAIN, 2), _ones(DISCRETE, 2), (Mat([[1]], 2), Mat([[1]], 2))),
        (_ones(POINT, 2), _ones(POINT, 2), (Mat([[1]], 3),)),
        (_ones(POINT, 2), _ones(POINT, 3), (Mat([[1]], 2),)),
    ],
    ids=["discrete-to-chain", "chain-to-discrete", "component-field", "functor-fields"],
)
def test_natural_map_checks_its_poset_and_field(dom, cod, comps):
    with pytest.raises(ValidationError):
        NatMap(dom, cod, comps)


def test_common_realized_discretization_checks_the_base_covers():
    chain3 = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    vee = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    # Below b the two bases agree, so only the base check can see this.
    F = _ones(realize(vee, ["a", "b"], [Fraction(-1, 2)]), 2)
    with pytest.raises(ValidationError, match="share the base poset"):
        common_realized_discretization(chain3, [F])


@pytest.mark.parametrize(
    "extend, message",
    [
        (lambda: kan_extend(_ones(CHAIN, 2), CHAIN, [0, 0]), "inject"),
        (lambda: kan_extend(_ones(CHAIN, 2), DISCRETE, [0, 1]), "full order embedding"),
        (lambda: common_realized_discretization(CHAIN, [_ones(CHAIN, 2)]), "realized posets"),
    ],
    ids=["non-injective-embedding", "non-full-embedding", "plain-poset"],
)
def test_embedding_and_realization_checks_raise_validation_errors(extend, message):
    with pytest.raises(ValidationError, match=message):
        extend()
