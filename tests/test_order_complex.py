"""An oracle for minimal resolutions of simple functors that shares no code
with the library: Betti numbers of order complexes.

Over the incidence algebra of a finite poset, the multiplicity of the
free functor P(y) in step i of the minimal resolution of the simple S_x
is dim Ext^i(S_x, S_y).  For x < y and i >= 1 it is the reduced
cohomology H~^(i-2) of the order complex of the open interval (x, y),
where the empty complex has H~^(-1) = k (so step 1 holds P(y) once for
each y covering x); step 0 is P(x) alone (Cibils, "Cohomology of
incidence algebras and simplicial complexes", J. Pure Appl. Algebra 56,
1989).  Over a field, reduced cohomology and reduced homology have the
same dimensions.  The oracle reads only the order matrix: it lists the
chains of each open interval and takes the ranks of their boundary maps
by its own elimination mod p.
"""

from __future__ import annotations

import random

import pytest

from tamechain.field import Mat
from tamechain.functors import VectFunctor, minimal_resolution
from tamechain.posets import FinPoset

from conftest import random_dim1_poset


def _rank(rows: list[list[int]], p: int) -> int:
    """The rank over F_p of a matrix given as a list of rows."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reduced_betti(leq, members: list[int], p: int) -> list[int]:
    """b~_j over F_p of the order complex of `members` (leq[a][b] means
    a <= b), at index j + 1 for j = -1, 0, 1, ...  The chains with k
    elements span degree k - 1; the empty chain spans degree -1."""
    chains = [[()]]
    while chains[-1]:
        chains.append([c + (z,) for c in chains[-1] for z in members if not c or (c[-1] != z and leq[c[-1]][z])])
    chains.pop()
    ranks = [0]  # ranks[k]: the boundary from k-element to (k - 1)-element chains
    for k in range(1, len(chains)):
        index = {c: i for i, c in enumerate(chains[k - 1])}
        rows = [[0] * len(chains[k]) for _ in chains[k - 1]]
        for j, c in enumerate(chains[k]):
            for i in range(len(c)):
                rows[index[c[:i] + c[i + 1:]]][j] = (-1) ** i
        ranks.append(_rank(rows, p))
    ranks.append(0)
    return [len(chains[k]) - ranks[k] - ranks[k + 1] for k in range(len(chains))]


def resolution_steps(P: FinPoset, x: int, p: int) -> dict[int, dict[int, int]]:
    """The oracle's multiplicities {step i: {y: mult}} of the minimal
    resolution of the simple at x, nonzero entries only."""
    leq = P.leq_matrix.tolist()
    steps: dict[int, dict[int, int]] = {0: {x: 1}}
    for y in range(P.n):
        if y != x and leq[x][y]:
            interval = [z for z in range(P.n) if z not in (x, y) and leq[x][z] and leq[z][y]]
            for j, b in enumerate(reduced_betti(leq, interval, p)):
                if b:
                    steps.setdefault(j + 1, {})[y] = b
    return steps


def simple(P: FinPoset, x: int, p: int) -> VectFunctor:
    dims = [int(q == x) for q in range(P.n)]
    return VectFunctor(P, dims, {(y, z): Mat.zeros(dims[z], dims[y], p) for y, z in P.covers}, p)


def test_oracle_on_intervals_of_known_homotopy_type():
    # (0, 1) in the diamond is two points: b~_0 = 1, so Ext^2(S_0, S_1) = 1.
    diamond = FinPoset.from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert resolution_steps(diamond, 0, 2) == {0: {0: 1}, 1: {1: 1, 2: 1}, 2: {3: 1}}
    # (0, 1) over the crown a, b < c, d is a 4-cycle, a circle: b~_1 = 1.
    crown = FinPoset.from_covers(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
    )
    leq = crown.leq_matrix.tolist()
    for p in (2, 3, 5):
        assert reduced_betti(leq, [1, 2, 3, 4], p) == [0, 0, 1]
        assert reduced_betti(leq, [], p) == [1]
        assert reduced_betti(leq, [1, 3], p) == [0, 0, 0]  # a < c: an edge, contractible
    assert resolution_steps(crown, 0, 3) == {0: {0: 1}, 1: {1: 1, 2: 1}, 2: {3: 1, 4: 1}, 3: {5: 1}}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_minimal_resolutions_of_simples_match_the_order_complex(p):
    rng = random.Random(20 + p)
    for _ in range(150):
        P = random_dim1_poset(rng, 8)
        for x in range(P.n):
            steps = resolution_steps(P, x, p)
            # On dimension <= 1 every open interval is a chain or empty,
            # so Ext^i vanishes for i >= 2.
            assert set(steps) <= {0, 1}
            res = minimal_resolution(simple(P, x, p))
            assert {z: m for z, m in res.gens0 if m} == steps[0]
            assert {z: m for z, m in res.gens1 if m} == steps.get(1, {})
            assert res.length == (1 in steps)
            # 0 -> P1 -> P0 -> S_x -> 0 is exact: d is mono, aug is epi,
            # aug d = 0, and the dims add up at every element.
            for q in range(P.n):
                d, aug = res.d.comps[q], res.aug.comps[q]
                assert _rank(d.tolist(), p) == d.cols
                assert _rank(aug.tolist(), p) == aug.rows
                assert (aug @ d).is_zero()
                assert res.p0.dims[q] == res.p1.dims[q] + (q == x)
