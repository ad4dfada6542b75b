"""Presentation and basis invariance of the CLI reports.

A document can list its elements and covers in any order, and its JSON
objects can hold their keys in any order.  None of this may change what
the commands report: the `replace` report and the multiset of
`decompose --machine` labels (kind, degree, generator names and
multiplicities, relation generators); the `endring` dimension; the
`indec --strategy exhaustive` verdict and End dimension; and the `glue`
criteria with the dimension of Hom(coker beta, X_B).  Element names may
contain `->`, the separator of cover keys.

Nor may a change of basis at every element and degree, which gives an
isomorphic chain functor: the same reports hold for it, except the
resolution matrices of `decompose` and the `trials` of `indec`, which
follow the basis.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tamechain.interchange import build_document, dumps_document, parse_document
from tamechain.posets import FinPoset

from conftest import conjugate_chain, invoke, random_chain, random_dim1_poset, random_poset

# Each name holds its element's index as its only digits, so no two
# covers share a key however the decorations meet the separator.
DECORATIONS = st.sampled_from(["", "->", "a->", "->b", "-", ">"])


def _shuffled_keys(val, rng: random.Random):
    """`val` with the keys of every JSON object in a random order."""
    if isinstance(val, dict):
        keys = list(val)
        rng.shuffle(keys)
        return {k: _shuffled_keys(val[k], rng) for k in keys}
    if isinstance(val, list):
        return [_shuffled_keys(v, rng) for v in val]
    return val


def _permuted(doc: dict, rng: random.Random) -> str:
    out = _shuffled_keys(doc, rng)
    for poset in out["posets"].values():
        rng.shuffle(poset["elements"])
        rng.shuffle(poset["covers"])
    for side in out.get("gluing", {}).values():
        rng.shuffle(side)
    return json.dumps(out)


def _labels(dec: str) -> list:
    """The sorted labels of a `decompose --machine` report, without the
    resolution matrices."""

    def gens(entry, key):
        return tuple(sorted((g["element"], g["multiplicity"]) for g in entry.get(key, ())))

    return sorted(
        (s["kind"], s["degree"], gens(s, "generators"), gens(s, "relation_generators"))
        for s in json.loads(dec)["summands"]
    )


def _pipeline(text: str) -> tuple[dict, list]:
    """The `replace` report and the sorted `decompose --machine` labels."""
    code, rep, err = invoke(["replace"], text)
    assert code == 0, err
    code, dec, err = invoke(["decompose", "--machine"], rep)
    assert code == 0, err
    return json.loads(rep)["report"], _labels(dec)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 2**30), st.lists(st.tuples(DECORATIONS, DECORATIONS), min_size=6, max_size=6))
def test_replace_decompose_ignores_the_presentation(p, seed, decorations):
    rng = random.Random(seed)
    base = random_dim1_poset(rng, 6)
    names = [f"{pre}{i}{post}" for i, (pre, post) in zip(range(base.n), decorations)]
    P = FinPoset.from_covers(names, [(names[y], names[x]) for y, x in base.covers])
    X = random_chain(rng, P, p, rng.randint(0, 2))
    doc = json.loads(dumps_document(build_document(p, {"P": P}, chains={"X": (X, "P")})))
    expected = _pipeline(json.dumps(doc))
    for _ in range(3):
        assert _pipeline(_permuted(doc, rng)) == expected


def _glued_document(rng: random.Random, p: int, make_poset) -> dict:
    """A random chain functor X of top 0 or 1 with a legal gluing block.
    A is the down-closure of a nonempty set of elements that leaves out a
    maximal one; B is the rest of the poset with the members of A below
    it, so no relation crosses between A - B and B - A."""
    P = make_poset(rng, 5)
    while P.n < 2:
        P = make_poset(rng, 5)
    leq = P.leq_matrix
    maximal = rng.choice([x for x in range(P.n) if leq[x].sum() == 1])
    rest = [x for x in range(P.n) if x != maximal]
    seeds = rng.sample(rest, rng.randint(1, len(rest)))
    in_a = leq[:, seeds].any(axis=1)
    in_b = ~in_a | (leq[:, ~in_a].any(axis=1))
    X = random_chain(rng, P, p, rng.randint(0, 1))
    gluing = {side: [P.names[x] for x in range(P.n) if mask[x]] for side, mask in (("A", in_a), ("B", in_b))}
    return json.loads(dumps_document(build_document(p, {"P": P}, chains={"X": (X, "P")}, gluing=gluing)))


def _machine(argv: list[str], keys: tuple[str, ...]):
    """The report of a document: the named entries of the `--machine`
    report of argv, or the exit code and message of a failure."""

    def report(text: str):
        code, out, err = invoke(argv + ["--machine"], text)
        if code:
            return code, err
        rep = json.loads(out)
        return tuple(rep[k] for k in keys)

    return report


# `trials` follows the order of End's basis, so it is left out.
INDEC = _machine(["indec", "--strategy", "exhaustive", "--budget", "4096"], ("verdict", "certainty", "end_dim"))
GLUE = _machine(
    ["glue"], ("crit_hom_zero", "crit_rad_iso", "crit_kernel_nilpotent", "crit_restriction_injective", "hom_coker_dim")
)
POSETS = pytest.mark.parametrize("make_poset", [random_dim1_poset, random_poset], ids=["dim1", "general"])
FIELDS_AND_SEEDS = given(st.sampled_from([2, 3, 5]), st.integers(0, 2**30))


def _conjugated(doc: dict, rng: random.Random) -> str:
    """The document with its chain functor in a random basis at every
    element and degree."""
    parsed = parse_document(json.dumps(doc))
    X, pname = parsed.chains["X"]
    chains = {"X": (conjugate_chain(rng, X), pname)}
    return dumps_document(build_document(parsed.field, parsed.posets, chains=chains, gluing=parsed.gluing))


def _check_invariance(report, change, make_poset, p, seed):
    """A random glued document reports the same after `change`, three times."""
    rng = random.Random(seed)
    doc = _glued_document(rng, p, make_poset)
    expected = report(json.dumps(doc))
    for _ in range(3):
        assert report(change(doc, rng)) == expected


@POSETS
@settings(max_examples=25, deadline=None)
@FIELDS_AND_SEEDS
def test_endring_ignores_the_presentation(make_poset, p, seed):
    _check_invariance(_machine(["endring"], ("dim",)), _permuted, make_poset, p, seed)


# The verdict survives most faults that reorder End: a random functor
# has many idempotents, and a search that misses one still finds another.
# So this test takes more examples than its neighbours.
@POSETS
@settings(max_examples=100, deadline=None)
@FIELDS_AND_SEEDS
def test_indec_ignores_the_presentation(make_poset, p, seed):
    # The budget bounds the enumeration; a larger End is a budget error,
    # which must not depend on the presentation either.
    _check_invariance(INDEC, _permuted, make_poset, p, seed)


@POSETS
@settings(max_examples=25, deadline=None)
@FIELDS_AND_SEEDS
def test_glue_ignores_the_presentation(make_poset, p, seed):
    _check_invariance(GLUE, _permuted, make_poset, p, seed)


def _replace_decompose(text: str):
    """The labels of `replace | decompose --machine`, or the exit code and
    message of the command that fails."""
    code, rep, err = invoke(["replace"], text)
    if code:
        return code, err
    code, dec, err = invoke(["decompose", "--machine"], rep)
    return (code, err) if code else _labels(dec)


@POSETS
@settings(max_examples=25, deadline=None)
@FIELDS_AND_SEEDS
def test_endring_ignores_the_basis(make_poset, p, seed):
    _check_invariance(_machine(["endring"], ("dim",)), _conjugated, make_poset, p, seed)


@POSETS
@settings(max_examples=50, deadline=None)
@FIELDS_AND_SEEDS
def test_indec_ignores_the_basis(make_poset, p, seed):
    _check_invariance(INDEC, _conjugated, make_poset, p, seed)


@POSETS
@settings(max_examples=50, deadline=None)
@FIELDS_AND_SEEDS
def test_glue_ignores_the_basis(make_poset, p, seed):
    _check_invariance(GLUE, _conjugated, make_poset, p, seed)


@POSETS
@settings(max_examples=25, deadline=None)
@FIELDS_AND_SEEDS
def test_replace_decompose_ignores_the_basis(make_poset, p, seed):
    _check_invariance(_replace_decompose, _conjugated, make_poset, p, seed)
