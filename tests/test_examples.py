import pytest

from tamechain.errors import UnknownExampleError
from tamechain.chains import homology_functor, standard_complex
from tamechain.examples import ChainPair, GluingStage, builtin_example, counterexample_poset
from tamechain.morphisms import end_ring, gluing_check, indecomposable
from tamechain.posets import PosetDim


def test_counterexample_poset_shape():
    P = counterexample_poset()
    assert P.n == 13
    assert len(P.covers) == 17
    assert P.dimension() is PosetDim.TWO_PLUS


def test_fig2_validates_and_spans_four_degrees():
    X = builtin_example("fig2", 2)
    assert len(X.poset.covers) * X.top >= 20
    assert X.top == 3
    nonzero_degrees = {
        n for n in range(4) if any(X.layer(n).dims[q] for q in range(X.poset.n))
    }
    assert nonzero_degrees == {0, 1, 2, 3}
    # Degree-0 homology survives only at the global minimum.
    H0 = homology_functor(X, 0)
    assert [H0.dims[q] for q in range(13)] == [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_fig2_works_over_other_primes():
    X5 = builtin_example("fig2", 5)
    assert X5.p == 5
    assert end_ring(X5).dim == 1


def test_fig2_indecomposable_both_fields():
    for p in (2, 3):
        X = builtin_example("fig2", p)
        res = indecomposable(X, "exhaustive")
        assert res.indecomposable


def test_stage_posets():
    a = builtin_example("fig3_a", 2)
    b = builtin_example("fig3_b", 2)
    c = builtin_example("fig3_c", 2)
    assert isinstance(a, GluingStage)
    assert a.functor.poset.n == 4
    assert b.functor.poset.n == 9
    assert c.functor.poset.n == 13
    assert set(a.a_names) == {"x2"}
    assert set(c.b_names) == {f"x{i}" for i in range(6, 14)}


def test_stage_b_and_c_report_hom_vanishing():
    for name, degrees in (("fig3_b", None), ("fig3_c", (1,))):
        st = builtin_example(name, 2)
        rep = gluing_check(st.functor, st.a_names, st.b_names)
        assert rep.crit_hom_zero
        if degrees is not None:
            assert rep.kan_nonzero_degrees == degrees


def test_stage_a_kan_support_but_no_hom_vanishing():
    # The first-stage Kan extension is concentrated in degree 0, yet the
    # hom-vanishing criterion fails: the diamond restriction splits off a
    # disk at its top element (see the decisions ledger).
    st = builtin_example("fig3_a", 2)
    rep = gluing_check(st.functor, st.a_names, st.b_names)
    assert rep.kan_nonzero_degrees == (0,)
    assert not rep.crit_hom_zero
    assert rep.hom_coker_dim == 1
    res = indecomposable(st.functor, "exhaustive")
    assert not res.indecomposable


def test_triple_chain_pair_objects():
    pair = builtin_example("triple_chain_pair", 2)
    assert isinstance(pair, ChainPair)
    assert pair.left.dims == ((1, 0), (1, 1), (0, 1))
    assert pair.right.dims == ((1, 0), (1, 1), (1, 2))
    assert builtin_example("triple_chain_pair.left", 2).dims == pair.left.dims
    res = indecomposable(pair.left, "exhaustive")
    assert res.indecomposable


def test_sphere_disk_builtins_match_standard(point):
    for n in (0, 1, 3):
        s = builtin_example(f"sphere({n})", 3)
        assert s.dims == standard_complex(s.poset, "sphere", n, 0, 1, 3).dims
        d = builtin_example(f"disk({n})", 3)
        assert d.dims == standard_complex(d.poset, "disk", n, 0, 1, 3).dims


def test_unknown_example():
    with pytest.raises(UnknownExampleError):
        builtin_example("mystery")


def test_counterexample_chain_cover_has_nonzero_kernel():
    from tamechain.chains import chain_ker, minimal_projective_cover_ch

    X = builtin_example("fig2", 2)
    cov = minimal_projective_cover_ch(X)
    assert all(cov.cover.nats[n].comps[q].rank() == X.layer(n).dims[q]
               for q in range(X.poset.n) for n in range(X.top + 1))
    K, _ = chain_ker(cov.cover)
    assert not K.is_zero()
    # The top layer has a single generator where the degree-3 value sits.
    assert cov.layer_generators[3] == ((X.poset.index("x12"), 1),)


def test_stage_a_coker_vanishes_in_degree_zero():
    from tamechain.morphisms import gluing_check

    st = builtin_example("fig3_a", 2)
    rep = gluing_check(st.functor, st.a_names, st.b_names)
    assert all(row[0] == 0 for row in rep.beta_cokernel_dims)
