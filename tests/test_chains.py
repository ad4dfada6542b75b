import random

import pytest

from tamechain.errors import HomologyNotResolvableError, KernelNotProjectiveError, ValidationError
from tamechain.field import Mat, kernel, solve
from tamechain.functors import NatMap, VectFunctor, free_on_generators
from tamechain.posets import FinPoset
from tamechain.chains import (
    _pullback_functor,
    ChainFunctor,
    ChainMap,
    chain_coker,
    chain_ker,
    chain_projective_resolution,
    classify_morphism,
    cofibrant_replacement,
    direct_sum_chains,
    homology_functor,
    homology_map,
    is_cofibrant,
    minimal_cofibrant_factorization,
    minimal_projective_cover_ch,
    reassemble,
    standard_complex,
    structure_decompose,
    suspension,
    zero_chain,
)
from tamechain.examples import builtin_example

from conftest import (
    add_chain_maps,
    boundaries,
    combine,
    conjugate_chain,
    random_dim1_poset,
    random_functor_dim1,
    random_matrix,
)


def test_boundary_square_validation(point):
    with pytest.raises(ValidationError):
        ChainFunctor.from_arrays(
            point,
            [[1, 1, 1]],
            [[Mat([[1]], 2), Mat([[1]], 2)]],  # d . d = 1 != 0
            {},
            2,
        )


def test_from_arrays_errors_name_place_and_degree(chain2):
    I, Z = Mat.identity(1, 2), Mat.zeros(1, 1, 2)
    cases = [
        # cover map of the wrong shape in degree 1
        ([[Z], [Z]], {(0, 1): [I, Mat.zeros(1, 2, 2)]}, r"degree 1: .*\(a, b\)"),
        # boundary of the wrong shape at b
        ([[Z], [Mat.zeros(2, 1, 2)]], {}, r"boundary from degree 1: .*at b"),
        # boundary not natural on the cover
        ([[I], [I]], {(0, 1): [I, Z]}, r"boundary from degree 1: .*\(a, b\)"),
    ]
    for bdy, maps, message in cases:
        with pytest.raises(ValidationError, match=message):
            ChainFunctor.from_arrays(chain2, [[1, 1], [1, 1]], bdy, maps, 2)


def test_chain_constructors_check_degrees_and_squares(point):
    d1 = standard_complex(point, "disk", 1, 0, 1, 2)
    F = d1.layers[0]
    F2 = free_on_generators(point, ((0, 2),), 2)
    with pytest.raises(ValidationError, match="does not map degree 1"):
        ChainFunctor([F, F2], [NatMap.zero(F, F)])
    with pytest.raises(ValidationError, match="one natural map per degree"):
        ChainMap(d1, d1, (NatMap.identity(F),))
    with pytest.raises(ValidationError, match="chain square fails at element \\*, degree 1"):
        ChainMap(d1, d1, (NatMap.identity(F), NatMap.zero(F, F)))


def test_suite_checks_trusted_constructions(point, chain2, diamond):
    # Internal constructions skip their checks through `_trusted`; the
    # suite's conftest puts the checking constructor in its place, so each
    # of these broken builds must still raise here.
    I, Z = Mat.identity(1, 2), Mat.zeros(1, 1, 2)
    paths_disagree = {(0, 1): I, (0, 2): I, (1, 3): I, (2, 3): Z}
    with pytest.raises(ValidationError, match="functoriality fails"):
        VectFunctor._trusted(diamond, [1, 1, 1, 1], paths_disagree, 2)
    F = free_on_generators(chain2, ((0, 1),), 2)
    with pytest.raises(ValidationError, match="naturality fails"):
        NatMap._trusted(F, F, (I, Z))
    G = free_on_generators(point, ((0, 1),), 2)
    with pytest.raises(ValidationError, match="boundary square is nonzero"):
        ChainFunctor._trusted([G, G, G], [NatMap.identity(G)] * 2)
    d1 = standard_complex(point, "disk", 1, 0, 1, 2)
    with pytest.raises(ValidationError, match="chain square fails"):
        ChainMap._trusted(d1, d1, (NatMap.identity(G), NatMap.zero(G, G)))


def test_sphere_and_disk_shapes(point):
    s0 = standard_complex(point, "sphere", 0, 0, 1, 2)
    assert s0.dims == ((1,),)
    d1 = standard_complex(point, "disk", 1, 0, 1, 2)
    assert d1.dims == ((1, 1),)
    assert d1.boundary_at(0, 1).is_identity()
    d0 = standard_complex(point, "disk", 0, 0, 1, 2)
    assert d0.dims == s0.dims


def test_disk_is_suspended_disk_and_sphere_algebra(point):
    d1 = standard_complex(point, "disk", 1, 0, 1, 2)
    d3 = standard_complex(point, "disk", 3, 0, 1, 2)
    assert suspension(d1, 2).dims == d3.dims
    assert boundaries(suspension(d1, 2)) == boundaries(d3)
    s1 = standard_complex(point, "sphere", 1, 0, 1, 2)
    s3 = standard_complex(point, "sphere", 3, 0, 1, 2)
    assert suspension(s1, 2).dims == s3.dims
    assert suspension(suspension(s1, 1), 1).dims == s3.dims


def test_boundary_is_zero_outside_one_to_top(point):
    d = standard_complex(point, "disk", 2, 0, 2, 3)  # degrees 1 and 2, top 2
    assert d.boundary(2) is d.d[1] and d.boundary(1) is d.d[0]
    for n in (-1, 0, 3, 4):
        b = d.boundary(n)
        assert b.dom.dims == d.layer(n).dims and b.cod.dims == d.layer(n - 1).dims
        assert all(m.is_zero() for m in b.comps)
    assert d.boundary(0).dom is d.layers[0] and d.boundary(3).cod is d.layers[2]
    assert [m.shape for m in d.boundary(3).comps] == [(2, 0)]


def _point_pullback(f, g):
    """Pullback of the matrices f and g as natural maps over one element:
    its dimension and its two projections."""
    point = FinPoset.from_covers(["*"], [])
    W, Y, Q = (VectFunctor(point, [d], {}, f.p) for d in (f.cols, g.cols, f.rows))
    incl, to_left, to_right = _pullback_functor(NatMap(W, Q, (f,)), NatMap(Y, Q, (g,)))
    assert Mat.vstack([to_left.comps[0], to_right.comps[0]]) == incl.comps[0]
    return incl.dom.dims[0], to_left.comps[0], to_right.comps[0]


def test_pullback_along_identity_is_iso():
    f = Mat([[1, 0], [1, 1]], 3)
    dim, to_left, to_right = _point_pullback(f, Mat.identity(2, 3))
    assert dim == 2
    assert to_left.rank() == 2
    assert f @ to_left == to_right


def test_pullback_of_zeros_is_direct_sum():
    dim, _, _ = _point_pullback(Mat.zeros(1, 2, 2), Mat.zeros(1, 3, 2))
    assert dim == 5


def test_pullback_dimension_example():
    dim, to_left, to_right = _point_pullback(Mat([[1, 0]], 2), Mat([[1]], 2))
    assert dim == 2
    assert Mat([[1, 0]], 2) @ to_left == Mat([[1]], 2) @ to_right


def test_pullback_universal_property_randomized():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        a, b, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        f = random_matrix(rng, c, a, p)
        g = random_matrix(rng, c, b, p)
        dim, to_left, to_right = _point_pullback(f, g)
        assert f @ to_left == g @ to_right
        # Any commuting pair factors uniquely through the pullback.
        u = random_matrix(rng, dim, rng.randint(0, 3), p)
        pair_a, pair_b = to_left @ u, to_right @ u
        stacked = Mat.vstack([to_left, to_right])
        med = solve(stacked, Mat.vstack([pair_a, pair_b]))
        assert med == u
        assert kernel(stacked).cols == 0  # mediating maps are unique


def test_homology_of_spheres_and_disks(point):
    for n in range(4):
        s = standard_complex(point, "sphere", n, 0, 2, 3)
        for k in range(n + 2):
            assert homology_functor(s, k).dims == ((2,) if k == n else (0,))
    for n in range(1, 4):
        d = standard_complex(point, "disk", n, 0, 2, 3)
        for k in range(n + 2):
            assert homology_functor(d, k).dims == (0,)


def test_homology_functor_on_cover_maps(chain2):
    # Two-term complex with identity boundary at b only; H_0 survives at a.
    X = ChainFunctor.from_arrays(
        chain2,
        [[1, 0], [1, 1]],
        [[Mat.zeros(1, 0, 2)], [Mat.identity(1, 2)]],
        {(0, 1): [Mat.identity(1, 2), Mat.zeros(1, 0, 2)]},
        2,
    )
    H0 = homology_functor(X, 0)
    assert H0.dims == (1, 0)
    H1 = homology_functor(X, 1)
    assert H1.dims == (0, 0)


def test_classify_identity_and_inclusion(point):
    d2 = standard_complex(point, "disk", 2, 0, 1, 5)
    ident = ChainMap.identity(d2)
    cls = classify_morphism(ident)
    assert cls.weak_equivalence and cls.fibration and cls.cofibration
    z = zero_chain(point, 5)
    into = ChainMap.zero(z, d2)
    cls0 = classify_morphism(into)
    assert cls0.cofibration  # degreewise projective target
    assert cls0.weak_equivalence  # disks are acyclic


def test_classify_zero_into_non_cofibrant(chain2):
    # The atom at the bottom is not projective, so 0 -> atom is no cofibration.
    atom = ChainFunctor.from_arrays(chain2, [[1], [0]], [[], []], {(0, 1): [Mat.zeros(0, 1, 2)]}, 2)
    cls = classify_morphism(ChainMap.zero(zero_chain(chain2, 2), atom))
    assert not cls.cofibration


def test_minimal_cover_of_sphere_is_disk(point):
    for n in range(1, 5):
        s = standard_complex(point, "sphere", n, 0, 1, 2)
        cov = minimal_projective_cover_ch(s)
        d = standard_complex(point, "disk", n, 0, 1, 2)
        assert cov.P.trimmed().dims == d.dims
        assert boundaries(cov.P.trimmed()) == boundaries(d)
        K, _ = chain_ker(cov.cover)
        sm1 = standard_complex(point, "sphere", n - 1, 0, 1, 2)
        assert K.trimmed().dims == sm1.dims


def test_minimal_cover_of_projective_is_iso(point, chain2):
    d2 = standard_complex(chain2, "disk", 2, 0, 2, 3)
    cov = minimal_projective_cover_ch(d2)
    assert cov.cover.is_iso()


def test_sphere_resolution_sequence(point):
    # 0 -> D^0 -> D^1 -> ... -> D^n -> S^n, projective dimension n.
    for n in range(6):
        s = standard_complex(point, "sphere", n, 0, 1, 2)
        layers, pd = chain_projective_resolution(s)
        assert pd == n
        for k, cov in enumerate(layers):
            d = standard_complex(point, "disk", n - k, 0, 1, 2)
            assert cov.P.trimmed().dims == d.dims
            assert boundaries(cov.P.trimmed()) == boundaries(d)


def test_replacement_of_triple_chain_left():
    pair = builtin_example("triple_chain_pair", 2)
    fact = cofibrant_replacement(pair.left)
    assert fact.C.dims == pair.right.dims
    cls = classify_morphism(fact.pi)
    assert cls.weak_equivalence and cls.fibration and not cls.cofibration
    cls_c = classify_morphism(fact.c)
    assert cls_c.cofibration


def test_replacement_of_cofibrant_is_iso(point, chain3):
    rng = random.Random(0)
    for poset in (point, chain3):
        summands = [
            standard_complex(poset, "sphere", 1, rng.randrange(poset.n), 1, 2),
            standard_complex(poset, "disk", 2, rng.randrange(poset.n), 1, 2),
        ]
        C, _, _ = direct_sum_chains(summands)
        fact = cofibrant_replacement(C)
        assert fact.pi.is_iso() or all(
            homology_map(fact.pi, n).is_iso() for n in range(C.top + 2)
        )
        assert fact.C.total_dim() == C.total_dim()


def test_factorization_of_identity_collapses(chain3):
    rng = random.Random(1)
    X, _, _ = direct_sum_chains(
        [
            standard_complex(chain3, "disk", 1, 0, 1, 2),
            standard_complex(chain3, "sphere", 0, 1, 1, 2),
        ]
    )
    fact = minimal_cofibrant_factorization(ChainMap.identity(X))
    assert fact.C.total_dim() == X.total_dim()
    assert fact.pi.is_iso()
    assert classify_morphism(fact.c).cofibration


def test_factorization_fails_on_dimension_two(diamond):
    atom = ChainFunctor.from_arrays(diamond, [[1], [0], [0], [0]], [[], [], [], []], {}, 2)
    with pytest.raises(KernelNotProjectiveError):
        cofibrant_replacement(atom)


def test_structure_decompose_single_sphere(fence):
    P = free_on_generators(fence, ((0, 2),), 5)
    s = suspension(ChainFunctor([P], []), 2)
    dec = structure_decompose(s)
    assert len(dec.summands) == 1
    lab = dec.summands[0]
    assert lab.kind == "sphere" and lab.degree == 2
    assert lab.gens0 == ((0, 2),)


def test_structure_decompose_requires_dim1(diamond):
    d1 = standard_complex(diamond, "disk", 1, 0, 1, 2)
    # Cofibrant, but the poset has dimension 2: allowed only because the
    # homology vanishes; a sphere with non-projective homology must fail.
    bottom = free_on_generators(diamond, ((0, 1),), 2)
    X = ChainFunctor([bottom], [])
    with pytest.raises(HomologyNotResolvableError):
        structure_decompose(X)


def test_structure_decompose_rejects_non_cofibrant(chain2):
    atom = ChainFunctor.from_arrays(chain2, [[1], [0]], [[], []], {(0, 1): [Mat.zeros(0, 1, 2)]}, 2)
    with pytest.raises(ValidationError):
        structure_decompose(atom)


def test_reassemble_empty_and_small(point):
    dec = structure_decompose(zero_chain(point, 2))
    assert dec.summands == ()
    assert dec.splits == () and structure_decompose(zero_chain(point, 5, top=2)).splits == ()
    assert reassemble(dec, point, 2).is_zero()
    s0 = standard_complex(point, "sphere", 0, 0, 1, 2)
    d1 = standard_complex(point, "disk", 1, 0, 1, 2)
    X, _, _ = direct_sum_chains([s0, d1])
    dec2 = structure_decompose(X)
    out = reassemble(dec2)
    assert [X.dim_at(0, n) for n in range(2)] == [2, 1]
    assert sorted(s.key() for s in dec2.summands) == sorted(
        [("sphere", 0, (("*", 1),), ()), ("disk", 1, (("*", 1),), ())]
    )
    assert out.dims == X.dims


def test_decompose_round_trip_randomized():
    rng = random.Random(2)
    for trial in range(25):
        p = rng.choice([2, 5])
        poset = random_dim1_poset(rng, 5)
        summands = []
        for _ in range(rng.randint(1, 3)):
            z = rng.randrange(poset.n)
            if rng.random() < 0.5:
                summands.append(standard_complex(poset, "disk", rng.randint(1, 3), z, 1, p))
            else:
                summands.append(standard_complex(poset, "sphere", rng.randint(0, 2), z, 1, p))
        rng.shuffle(summands)
        C0, _, _ = direct_sum_chains(summands)
        C = conjugate_chain(rng, C0)
        dec = structure_decompose(C)
        # Splits are genuine retractions and assemble to the identity.
        total = None
        for iota, rho in dec.splits:
            comp = rho @ iota
            assert all(m.is_identity() for nat in comp.nats for m in nat.comps)
            back = iota @ rho
            total = back if total is None else add_chain_maps(total, back)
        assert total is not None
        assert all(m.is_identity() for nat in total.nats for m in nat.comps)
        assert sum(s.complex.total_dim() for s in dec.summands) == C.total_dim()


def test_chain_ker_coker_consistency(chain3):
    rng = random.Random(3)
    X = standard_complex(chain3, "disk", 2, 0, 2, 3)
    Y = standard_complex(chain3, "disk", 2, 0, 1, 3)
    maps = [m for m in _random_chain_maps(rng, X, Y, 5)]
    for phi in maps:
        K, incl = chain_ker(phi)
        Q, proj = chain_coker(phi)
        for q in range(chain3.n):
            for n in range(max(X.top, Y.top) + 1):
                assert (phi.at(q, n) @ incl.at(q, n)).is_zero()
                assert (proj.at(q, n) @ phi.at(q, n)).is_zero()


def _random_chain_maps(rng, X, Y, count):
    from tamechain.morphisms import hom_space

    basis = hom_space(X, Y)
    for _ in range(count):
        coeffs = [rng.randrange(X.p) for _ in basis]
        if any(coeffs):
            yield combine(basis, coeffs)


def test_chain_cover_is_projective_object(chain3):
    # The assembled cover has vanishing positive homology and projective
    # degree-0 homology, and compatible endomorphisms are isomorphisms.
    rng = random.Random(17)
    for _ in range(6):
        layers = [random_functor_dim1(rng, chain3, 3, 2) for _ in range(2)]
        from tamechain.morphisms import hom_space

        basis = hom_space(layers[1], layers[0])
        from tamechain.functors import NatMap

        if basis:
            coeffs = [rng.randrange(3) for _ in basis]
            chosen = combine(basis, coeffs)
            bnd = NatMap(layers[1], layers[0], chosen.nats[0].comps)
        else:
            bnd = NatMap.zero(layers[1], layers[0])
        X = ChainFunctor(layers, [bnd])
        cov = minimal_projective_cover_ch(X)
        P = cov.P
        for n in range(1, P.top + 1):
            assert homology_functor(P, n).is_zero()
        from tamechain.functors import is_projective

        assert is_projective(homology_functor(P, 0)) is not None
        for q in range(chain3.n):
            for n in range(P.top + 1):
                assert cov.cover.at(q, n).rank() == X.dim_at(q, n)


def test_factorization_of_general_morphism(chain3):
    # f = pi . c with c a cofibration and pi a trivial fibration, for a
    # random morphism between random complexes.
    rng = random.Random(23)
    for _ in range(8):
        p = rng.choice([2, 3])
        parts_x = [
            standard_complex(chain3, "sphere", rng.randint(0, 1), rng.randrange(3), 1, p),
            standard_complex(chain3, "disk", rng.randint(1, 2), rng.randrange(3), 1, p),
        ]
        parts_y = [
            standard_complex(chain3, "disk", rng.randint(1, 2), rng.randrange(3), 1, p),
            standard_complex(chain3, "sphere", rng.randint(0, 1), rng.randrange(3), 1, p),
        ]
        X, _, _ = direct_sum_chains(parts_x)
        Y, _, _ = direct_sum_chains(parts_y)
        maps = list(_random_chain_maps(rng, X, Y, 1)) or [ChainMap.zero(X, Y)]
        f = maps[0]
        fact = minimal_cofibrant_factorization(f)
        composite = fact.pi @ fact.c
        for q in range(chain3.n):
            for n in range(max(X.top, Y.top) + 1):
                assert composite.at(q, n) == f.at(q, n)
        cls_pi = classify_morphism(fact.pi)
        assert cls_pi.weak_equivalence and cls_pi.fibration
        assert classify_morphism(fact.c).cofibration


def test_replacement_is_minimal_randomized():
    # Minimality surrogate: every endomorphism phi of the replacement C
    # with pi . phi = pi is an isomorphism.  Sample the affine family
    # id + {psi : pi . psi = 0} at random points.
    import numpy as np
    from tamechain.field import Mat, kernel
    from tamechain.morphisms import hom_space

    rng = random.Random(29)
    for _ in range(6):
        p = rng.choice([2, 3])
        poset = random_dim1_poset(rng, 4)
        parts = [
            standard_complex(poset, "sphere", rng.randint(0, 1), rng.randrange(poset.n), 1, p)
            for _ in range(rng.randint(1, 2))
        ]
        X, _, _ = direct_sum_chains(parts)
        fact = cofibrant_replacement(X)
        C, pi = fact.C, fact.pi
        basis = hom_space(C, C)
        if not basis:
            continue
        vecs = []
        for b in basis:
            composed = pi @ b
            vecs.append(composed.to_vec())
        M = Mat(np.stack(vecs, axis=1) % p, p)
        K = kernel(M)
        ident = ChainMap.identity(C)
        for _ in range(16):
            if K.cols:
                cs = [rng.randrange(p) for _ in range(K.cols)]
                flat = (K.arr @ np.array(cs, dtype=np.int64).reshape(-1, 1)) % p
                psi = combine(basis, [int(v) for v in flat[:, 0]])
                phi = add_chain_maps(ident, psi)
            else:
                phi = ident
            check = pi @ phi
            assert all(
                check.at(q, n) == pi.at(q, n)
                for q in range(poset.n)
                for n in range(check.depth + 1)
            )
            assert phi.is_iso()


def test_replacement_of_zero_is_zero(point):
    fact = cofibrant_replacement(zero_chain(point, 2))
    assert fact.C.is_zero()
    assert classify_morphism(fact.pi).weak_equivalence


def test_isomorphic_objects_share_labels():
    # Two presentations of the same object (a replacement and its hand
    # built target) decompose to identical canonical label multisets.
    from tamechain.examples import builtin_example

    pair = builtin_example("triple_chain_pair", 2)
    fact = cofibrant_replacement(pair.left)
    keys_c = sorted(s.key() for s in structure_decompose(fact.C).summands)
    keys_r = sorted(s.key() for s in structure_decompose(pair.right).summands)
    assert keys_c == keys_r


def test_every_module_export_resolves():
    import importlib
    import pkgutil

    import tamechain

    modules = [tamechain] + [
        importlib.import_module(f"tamechain.{info.name}") for info in pkgutil.iter_modules(tamechain.__path__)
    ]
    assert len(modules) > 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
