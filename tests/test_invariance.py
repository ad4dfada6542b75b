"""Presentation invariance of the `replace | decompose` pipeline.

A document can list its elements and covers in any order, and its JSON
objects can hold their keys in any order.  None of this may change what
the pipeline reports: the `replace` report, and the multiset of
`decompose --machine` labels (kind, degree, generator names and
multiplicities, relation generators).  Element names may contain `->`,
the separator of cover keys.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings, strategies as st

from tamechain.interchange import build_document, dumps_document
from tamechain.posets import FinPoset

from conftest import invoke, random_chain, random_dim1_poset

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
    return json.dumps(out)


def _pipeline(text: str) -> tuple[dict, list]:
    """The `replace` report and the sorted `decompose --machine` labels."""
    code, rep, err = invoke(["replace"], text)
    assert code == 0, err
    code, dec, err = invoke(["decompose", "--machine"], rep)
    assert code == 0, err

    def gens(entry, key):
        return tuple(sorted((g["element"], g["multiplicity"]) for g in entry.get(key, ())))

    labels = sorted(
        (s["kind"], s["degree"], gens(s, "generators"), gens(s, "relation_generators"))
        for s in json.loads(dec)["summands"]
    )
    return json.loads(rep)["report"], labels


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
