import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamechain.errors import (
    BadCoordinateError,
    CycleDetectedError,
    DimensionTooHighError,
    NotClosedError,
    TransferUndefinedError,
)
from tamechain.field import Mat
from tamechain.functors import kan_extend
from tamechain.interchange import poset_to_json
from tamechain.posets import (
    Edge,
    FinPoset,
    PosetDim,
    Vertex,
    RealizedPoset,
    alpha_v_formula,
    point_name,
    realize,
    transfer_point,
)

from conftest import point_leq, random_dim1_poset, random_functor_dim1


def brute_suplim(P: FinPoset, subset):
    """Independent oracle: minimal upper bounds by exhaustive search."""
    subset = set(subset)
    ub = [u for u in range(P.n) if all(P.leq(d, u) for d in subset)]
    return sorted(u for u in ub if not any(v != u and P.leq(v, u) for v in ub))


def test_from_covers_chain(chain2):
    assert chain2.leq(0, 1)
    assert not chain2.leq(1, 0)
    assert chain2.covers == ((0, 1),)


def test_from_covers_cycle_detected():
    with pytest.raises(CycleDetectedError):
        FinPoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_from_covers_fence(fence):
    assert fence.n == 4
    assert len(fence.covers) == 4
    assert fence.covered_by(fence.index("b3")) == (0, 1)


def test_redundant_covers_are_reduced():
    P = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert P.covers == ((0, 1), (1, 2))


def test_dimension_antichain():
    P = FinPoset.from_covers(["x", "y", "z"], [])
    assert P.dimension() is PosetDim.ZERO


def test_dimension_zigzag_is_one(zigzag):
    assert zigzag.dimension() is PosetDim.ONE


def test_dimension_fence_is_one(fence):
    assert fence.dimension() is PosetDim.ONE


def test_dimension_diamond_is_two_plus(diamond):
    assert diamond.dimension() is PosetDim.TWO_PLUS


def test_suplim_singleton(fence):
    for x in range(fence.n):
        assert fence.suplim([x]) == (x,)
        assert fence.closure([x]) == (x,)


def test_suplim_closure_fence(fence):
    got = fence.suplim([0, 1])
    assert [fence.names[i] for i in got] == ["b3", "b4"]
    assert got == tuple(brute_suplim(fence, [0, 1]))
    assert [fence.names[i] for i in fence.closure([0, 1])] == ["b1", "b2", "b3", "b4"]


def test_suplim_closure_chain(chain3):
    assert chain3.suplim([0, 2]) == (2,)
    assert chain3.closure([0, 2]) == (0, 2)


def test_closure_of_many_diamond_middles():
    # Eleven disjoint diamonds: the closure of the 22 middle elements adds
    # the 11 tops (each the suplim of its two middles) and nothing else;
    # too many members for a closure over all subsets.
    names, covers = [], []
    for k in range(11):
        bottom, left, right, top = (f"d{k}{part}" for part in "blrt")
        names += [bottom, left, right, top]
        covers += [(bottom, left), (bottom, right), (left, top), (right, top)]
    P = FinPoset.from_covers(names, covers)
    assert not P.dimension().at_most_one()
    middles = [P.index(n) for n in names if n[-1] in "lr"]
    expected = sorted(middles + [P.index(n) for n in names if n.endswith("t")])
    assert P.closure(middles) == tuple(expected)
    assert P.is_closed(expected) and not P.is_closed(middles)
    assert oracle_closure(P, middles[:4]) == P.closure(middles[:4])


def test_closure_idempotent_monotone():
    rng = random.Random(0)
    for _ in range(25):
        P = random_dim1_poset(rng, 7)
        subset = [e for e in range(P.n) if rng.random() < 0.5]
        closed = P.closure(subset)
        assert P.closure(closed) == closed
        bigger = sorted(set(subset) | {rng.randrange(P.n)})
        assert set(P.closure(subset)) <= set(P.closure(bigger))
        assert set(P.suplim(subset)) <= set(closed) or not subset


def test_suplim_matches_bruteforce_randomized():
    rng = random.Random(1)
    for _ in range(30):
        P = random_dim1_poset(rng, 7)
        subset = [e for e in range(P.n) if rng.random() < 0.5]
        if not subset:
            continue
        assert list(P.suplim(subset)) == brute_suplim(P, subset)


# --- realizations ------------------------------------------------------------


def test_realize_empty_v_is_isomorphic_to_subset(fence):
    rp = realize(fence, ["b1", "b2", "b3", "b4"], [])
    assert rp.names == fence.names
    assert rp.covers == fence.covers


def test_realize_chain_with_midpoint(chain3):
    rp = realize(chain3, None, [Fraction(-1, 2)])
    # Five points, totally ordered like 0 < 1/2 < 1 < 3/2 < 2 under pi0 + T.
    assert rp.n == 5
    key = {}
    for i, z in enumerate(rp.points):
        if isinstance(z, Vertex):
            key[i] = Fraction(int(z.q))
        else:
            key[i] = Fraction(int(z.top)) + z.t
    order = sorted(range(5), key=lambda i: key[i])
    for a, b in itertools.combinations(range(5), 2):
        i, j = order.index(a), order.index(b)
        assert rp.leq(a, b) == (key[a] <= key[b])
    assert rp.dimension() is PosetDim.ONE


def test_realize_v_poset_subdivision():
    # Two minimal elements under one top; two subdivision points per cover.
    P = FinPoset.from_covers(["p", "q", "r"], [("p", "r"), ("q", "r")])
    rp = realize(P, None, [Fraction(-3, 4), Fraction(-1, 4)])
    assert rp.n == 3 + 2 * 2
    chain_p = [
        rp.index("p"),
        rp.index("r~p~-3/4"),
        rp.index("r~p~-1/4"),
        rp.index("r"),
    ]
    for a, b in itertools.combinations(chain_p, 2):
        assert rp.leq(a, b)
    a, b = rp.index("r~p~-1/4"), rp.index("r~q~-1/4")
    assert not rp.leq(a, b) and not rp.leq(b, a)
    assert rp.dimension() is PosetDim.ONE


def test_realizations_preset_their_dimension_and_the_suite_checks_it(chain3, point):
    # A realization sets its dimension at construction instead of computing
    # it; the suite's conftest compares that preset with the computed one
    # the first time a poset is asked, so a wrong preset must raise here.
    assert realize(point, None, [])._dim is PosetDim.ZERO
    rng = random.Random(17)
    for _ in range(30):
        Q = random_dim1_poset(rng, 6)
        V = sorted({Fraction(-rng.randint(1, 12), 13) for _ in range(rng.randint(0, 3))})
        closed = Q.closure([e for e in range(Q.n) if rng.random() < 0.7]) or (0,)
        rp = realize(Q, [Q.names[e] for e in closed], V)
        assert rp._dim is rp._compute_dimension()
    rp = realize(chain3, None, [Fraction(-1, 2)])
    assert rp._dim is PosetDim.ONE
    rp._dim = PosetDim.TWO_PLUS
    with pytest.raises(AssertionError, match="preset dimension"):
        rp.dimension()


def test_the_suite_checks_every_trusted_poset(chain3):
    # Realizations and restrictions are built by `FinPoset._trusted` from
    # covers and a dimension known by construction; the suite's conftest
    # recomputes both, so a wrong cover or a wrong dimension must raise here.
    for covers, dim in [(((0, 1), (0, 2), (1, 2)), PosetDim.ONE), (((0, 1), (1, 2)), PosetDim.ZERO)]:
        with pytest.raises(AssertionError, match="given"):
            FinPoset.__new__(FinPoset)._trusted(chain3.names, chain3.leq_matrix, covers, dim)


def test_realize_rejects_bad_inputs(diamond, chain2):
    with pytest.raises(DimensionTooHighError):
        realize(diamond, None, [])
    with pytest.raises(NotClosedError):
        # {b1, b2} is not closed in the fence: its suplims b3, b4 are missing.
        fence = FinPoset.from_covers(
            ["b1", "b2", "b3", "b4"],
            [("b1", "b3"), ("b1", "b4"), ("b2", "b3"), ("b2", "b4")],
        )
        realize(fence, ["b1", "b2"], [])
    with pytest.raises(BadCoordinateError):
        realize(chain2, None, [Fraction(1, 2)])


def test_document_edges_of_a_realization_match_its_points():
    # Documents list the edge points from their integer ends; the points
    # themselves give the same list, in the same order.
    rng = random.Random(23)
    for _ in range(30):
        Q = random_dim1_poset(rng, 6)
        V = sorted({Fraction(-rng.randint(1, 12), 13) for _ in range(rng.randint(0, 3))})
        closed = Q.closure([e for e in range(Q.n) if rng.random() < 0.7]) or (0,)
        rp = realize(Q, [Q.names[e] for e in closed], V)
        edges = [[z.top, z.bottom, f"{z.t.numerator}/{z.t.denominator}"] for z in rp.points if isinstance(z, Edge)]
        assert poset_to_json(rp)["realization"]["edges"] == edges


def test_realization_dimension_matches_base():
    rng = random.Random(2)
    for _ in range(20):
        Q = random_dim1_poset(rng, 6)
        rp = realize(Q, None, [Fraction(-1, 3)])
        assert rp.dimension() == Q.dimension()
        # V = empty keeps the dimension of the chosen subset on the nose.
        closed = Q.closure([e for e in range(Q.n) if rng.random() < 0.6])
        if closed:
            sub = realize(Q, [Q.names[e] for e in closed], [])
            assert sub.dimension() == Q.restrict(closed).dimension()


# --- transfers ---------------------------------------------------------------


def test_transfer_point_on_two_chain(chain2):
    # sub = {b} inside a <= b: a has nothing below it in sub, b stays.
    sub = [chain2.index("b")]
    assert transfer_point(chain2, sub, chain2.index("a")) is None
    assert transfer_point(chain2, sub, chain2.index("b")) == chain2.index("b")


def test_transfer_point_undefined_on_diamond(diamond):
    sub = [diamond.index("c2"), diamond.index("c3")]
    below = [d for d in sub if diamond.leq(d, diamond.index("c4"))]
    assert len(below) == 2  # two maximal lower elements: no greatest one
    with pytest.raises(TransferUndefinedError):
        transfer_point(diamond, sub, diamond.index("c4"))


def test_realized_transfer_formula():
    chain = FinPoset.from_covers(["0", "1"], [("0", "1")])
    rp = realize(chain, None, [Fraction(-1, 2)])
    assert rp.transfer(Edge("1", "0", Fraction(-1, 4))) == Edge("1", "0", Fraction(-1, 2))
    assert rp.transfer(Edge("1", "0", Fraction(-3, 4))) == Vertex("0")
    assert rp.transfer(Vertex("1")) == Vertex("1")


def test_alpha_v_formula_agrees_with_transfer():
    rng = random.Random(3)
    for _ in range(25):
        Q = random_dim1_poset(rng, 5)
        V = sorted({Fraction(-rng.randint(1, 8), 9) for _ in range(rng.randint(0, 3))})
        rp = realize(Q, None, V)
        queries = [Vertex(n) for n in Q.names]
        for x in range(Q.n):
            for y in Q.covered_by(x):
                queries.append(Edge(Q.names[x], Q.names[y], Fraction(-rng.randint(1, 17), 18)))
        for z in queries:
            expected = alpha_v_formula(Q, V, z)
            assert rp.transfer(z) == expected


def test_transfer_adjunction_inequalities():
    rng = random.Random(4)
    for _ in range(25):
        Q = random_dim1_poset(rng, 6)
        V = sorted({Fraction(-rng.randint(1, 8), 9) for _ in range(rng.randint(0, 3))})
        closed = Q.closure([e for e in range(Q.n) if rng.random() < 0.7]) or (0,)
        rp = realize(Q, [Q.names[e] for e in closed], V)
        # Identity on the subposet itself.
        for d in rp.points:
            assert rp.transfer(d) == d
        queries = [Vertex(n) for n in Q.names]
        for x in range(Q.n):
            for y in Q.covered_by(x):
                queries.append(Edge(Q.names[x], Q.names[y], Fraction(-rng.randint(1, 17), 18)))
        for z in queries:
            w = rp.transfer(z)  # never TransferUndefined for closed subsets
            if w is None:
                assert not any(point_leq(Q, d, z) for d in rp.points)
            else:
                assert point_leq(Q, w, z)
                for d in rp.points:
                    assert point_leq(Q, d, z) == point_leq(Q, d, w)


# --- oracle: the per-pair loops that the order-matrix operations replace -----


def oracle_leq(n, covers):
    """Reflexive-transitive closure by depth-first search, or None on a cycle."""
    succ = {y: [] for y in range(n)}
    for y, x in covers:
        succ[y].append(x)
    leq = np.eye(n, dtype=bool)
    for y in range(n):
        stack = list(succ[y])
        while stack:
            x = stack.pop()
            if x == y:
                return None
            if not leq[y, x]:
                leq[y, x] = True
                stack.extend(succ[x])
    return leq


def oracle_reduction(leq):
    n = leq.shape[0]
    covers = []
    for y in range(n):
        for x in range(n):
            if y == x or not leq[y, x]:
                continue
            if not any(k != y and k != x and leq[y, k] and leq[k, x] for k in range(n)):
                covers.append((y, x))
    return tuple(sorted(covers))


def oracle_dimension(leq):
    n = leq.shape[0]
    if not leq.sum() > n:
        return PosetDim.ZERO
    for u in range(n):
        for v in range(u + 1, n):
            if leq[u, v] or leq[v, u]:
                continue
            if (leq[:, u] & leq[:, v]).any() and (leq[u, :] & leq[v, :]).any():
                return PosetDim.TWO_PLUS
    return PosetDim.ONE


def oracle_closure(P, subset):
    """Pairwise suplims for dimension <= 1, all subsets otherwise, fed back
    until stable."""
    current = set(subset)
    while True:
        new = set(current)
        items = sorted(current)
        if P.dimension().at_most_one():
            for i, a in enumerate(items):
                new.update(brute_suplim(P, [a]))
                for b in items[i + 1 :]:
                    new.update(brute_suplim(P, [a, b]))
        else:
            for mask in range(1, 1 << len(items)):
                new.update(brute_suplim(P, [items[k] for k in range(len(items)) if mask >> k & 1]))
        if new == current:
            return tuple(sorted(current))
        current = new


def oracle_greatest(leq, members, below):
    """The per-element scan of both transfers: ("bottom",), ("at", d) or
    ("undefined",)."""
    below = [d for d in members if below(d)]
    if not below:
        return ("bottom",)
    maxima = [d for d in below if not any(e != d and leq(d, e) for e in below)]
    return ("at", maxima[0]) if len(maxima) == 1 else ("undefined",)


def outcome(fn, *args):
    try:
        w = fn(*args)
    except TransferUndefinedError:
        return ("undefined",)
    return ("bottom",) if w is None else ("at", w)


def test_transfers_and_integer_points_match_oracles(diamond):
    # Every subset of the diamond, the undefined transfer at its top included.
    for mask in range(1 << diamond.n):
        sub = [e for e in range(diamond.n) if mask >> e & 1]
        for z in range(diamond.n):
            expected = oracle_greatest(diamond.leq, sub, lambda d: diamond.leq(d, z))
            assert outcome(transfer_point, diamond, sub, z) == expected
    assert outcome(transfer_point, diamond, [1, 2], 3) == ("undefined",)

    rng = random.Random(21)
    for _ in range(30):
        Q = random_dim1_poset(rng, 6)
        V = sorted({Fraction(-rng.randint(1, 12), 13) for _ in range(rng.randint(0, 4))})
        closed = Q.closure([e for e in range(Q.n) if rng.random() < 0.7]) or (0,)
        rp = realize(Q, [Q.names[e] for e in closed], V)
        for i, z in enumerate(rp.points):
            assert tuple(rp._ends[:, i].tolist()) == rp._point_ends(z)
        sub = [e for e in range(Q.n) if rng.random() < 0.5]
        for z in range(Q.n):
            expected = oracle_greatest(Q.leq, sub, lambda d: Q.leq(d, z))
            assert outcome(transfer_point, Q, sub, z) == expected
        queries = [Vertex(n) for n in Q.names]
        for y, x in Q.covers:
            queries += [Edge(Q.names[x], Q.names[y], Fraction(-rng.randint(1, 25), 26)) for _ in range(2)]
        for z in queries:
            expected = oracle_greatest(
                lambda i, j: rp.leq(i, j), range(rp.n), lambda i: point_leq(Q, rp.points[i], z)
            )
            got = outcome(rp.transfer, z)
            assert got == (expected if expected[0] != "at" else ("at", rp.points[expected[1]]))
        # The transfer route of the Kan extension along the vertices.
        embed = [rp.index(Q.names[e]) for e in closed]
        F = random_functor_dim1(rng, Q.restrict(closed), 3)
        ext = kan_extend(F, rp, embed, method="transfer").functor
        pos = {e: d for d, e in enumerate(embed)}
        t = []
        for x in range(rp.n):
            kind, *w = oracle_greatest(rp.leq, embed, lambda e: rp.leq(e, x))
            t.append(pos[w[0]] if kind == "at" else None)
            assert ext.dims[x] == (0 if t[x] is None else F.dims[t[x]])
        for y, x in rp.covers:
            if t[y] is None or t[x] is None:
                assert ext.maps[(y, x)] == Mat.zeros(ext.dims[x], ext.dims[y], 3)
            else:
                assert ext.maps[(y, x)] == F.map_leq(t[y], t[x])


def oracle_realization(base, d_subset, vset):
    """Points, names, order matrix and covers by the pair scan of `point_leq`."""
    def key(z):
        if isinstance(z, Vertex):
            return (0, base.index(z.q), 0, Fraction(0))
        return (1, base.index(z.top), base.index(z.bottom), z.t)

    points = [Vertex(base.names[q]) for q in d_subset]
    for x in d_subset:
        for y in base.covered_by(x):
            points += [Edge(base.names[x], base.names[y], v) for v in vset]
    points.sort(key=key)
    leq = np.array([[point_leq(base, z, w) for w in points] for z in points], dtype=bool).reshape(len(points), len(points))
    return points, [point_name(z) for z in points], leq, oracle_reduction(leq)


def random_cover_list(rng, n, density):
    return [(i, j) for j in range(n) for i in range(j) if rng.random() < density / max(n, 1)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.5, max_value=3.0),
    st.booleans(),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**30),
)
def test_order_matrix_matches_pairwise_oracle(n, density, flat, k, seed):
    rng = random.Random(seed)
    names = [f"e{i}" for i in range(n)]
    covers = random_cover_list(rng, n, density if flat else 2 * density)
    for _ in range(50 if flat else 0):
        if oracle_dimension(oracle_leq(n, covers)).at_most_one():
            break
        covers = random_cover_list(rng, n, density)
    P = FinPoset(names, covers)
    leq = oracle_leq(n, covers)
    assert np.array_equal(P.leq_matrix, leq)
    assert P.covers == oracle_reduction(leq)
    assert P.dimension() is oracle_dimension(leq)
    assert P.linear_extension() == tuple(sorted(range(n), key=lambda i: (int(leq[:, i].sum()), i)))
    for x in range(n):
        assert P.covered_by(x) == tuple(y for y, z in P.covers if z == x)

    subset = [e for e in range(n) if rng.random() < 0.3]
    if P.dimension().at_most_one() or n <= 8:
        assert P.closure(subset) == oracle_closure(P, subset)
        assert P.is_closed(subset) == (oracle_closure(P, subset) == tuple(subset))
    if subset:
        assert list(P.suplim(subset)) == brute_suplim(P, subset)
    R = P.restrict(subset)
    assert R.names == tuple(names[e] for e in subset)
    assert np.array_equal(R.leq_matrix, leq[np.ix_(subset, subset)])
    assert R.covers == oracle_reduction(leq[np.ix_(subset, subset)])
    assert R.dimension() is oracle_dimension(leq[np.ix_(subset, subset)])
    for z in range(n):
        expected = oracle_greatest(P.leq, subset, lambda d: P.leq(d, z))
        assert outcome(transfer_point, P, subset, z) == expected

    # A reversed comparable pair closes a cycle.
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and leq[a, b]]
    if pairs:
        a, b = rng.choice(pairs)
        with pytest.raises(CycleDetectedError):
            FinPoset(names, covers + [(b, a)])

    V = sorted({Fraction(-rng.randint(1, 12), 13) for _ in range(k)})
    if not P.dimension().at_most_one():
        with pytest.raises(DimensionTooHighError):
            RealizedPoset(P, range(n), V)
        return
    if oracle_closure(P, subset) != tuple(subset):
        with pytest.raises(NotClosedError):
            RealizedPoset(P, subset, V)
    D = oracle_closure(P, subset)
    rp = RealizedPoset(P, D, V)
    points, rnames, rleq, rcovers = oracle_realization(P, D, V)
    assert rp.points == tuple(points)
    assert rp.names == tuple(rnames)
    assert np.array_equal(rp.leq_matrix, rleq)
    assert rp.covers == rcovers
    assert rp.dimension() is oracle_dimension(rleq)
    queries = [Vertex(q) for q in names]
    for y, x in P.covers:
        ts = V + [Fraction(-rng.randint(1, 25), 26) for _ in range(2)]
        queries += [Edge(names[x], names[y], t) for t in ts]
    for z in queries:
        expected = oracle_greatest(
            lambda i, j: point_leq(P, points[i], points[j]),
            range(len(points)),
            lambda i: point_leq(P, points[i], z),
        )
        got = outcome(rp.transfer, z)
        assert got == (expected if expected[0] != "at" else ("at", points[expected[1]]))
