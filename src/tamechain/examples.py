"""Built-in objects: the 13-element indecomposability counterexample with
its three gluing stages, the three-chain replacement pair, and spheres
and disks on a point.  The counterexample and the pair are written as
document blocks and read by the document reader.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import InputError, UnknownExampleError
from .posets import FinPoset
from .chains import ChainFunctor, standard_complex
from .interchange import chain_from_json

__all__ = ["GluingStage", "ChainPair", "builtin_example", "counterexample_poset", "MAX_EXAMPLE_DEGREE"]

# The largest n of "sphere(n)" and "disk(n)": on 2 CPUs sphere(10^5) takes 0.8 s and prints 0.7 MB.
MAX_EXAMPLE_DEGREE = 100_000

# The indecomposable parametrized chain complex of the source diagram, as
# a `chain_functors` document block spanning degrees 0..3.  Unlabeled
# arrows are identities; the two rank-1 maps out of the 3-dimensional
# degree-1 spaces are [1 0 0].  Boundaries not listed are zero.
_COUNTEREXAMPLE = {
    "top": 3,
    "dims": {
        "x1": [1, 1, 0, 0],
        "x2": [1, 0, 0, 0],
        "x3": [1, 3, 1, 0],
        "x4": [1, 1, 0, 0],
        "x5": [1, 3, 1, 0],
        "x6": [0, 1, 0, 0],
        "x7": [0, 1, 0, 0],
        "x8": [0, 1, 0, 0],
        "x9": [0, 1, 0, 0],
        "x10": [0, 1, 1, 0],
        "x11": [0, 1, 0, 0],
        "x12": [0, 1, 2, 1],
        "x13": [0, 1, 1, 0],
    },
    "boundaries": {
        "x1": [[[1]], None, None],
        "x3": [[[1, 0, 0]], [[0], [1], [0]], None],
        "x4": [[[1]], None, None],
        "x5": [[[1, 0, 0]], [[0], [1], [0]], None],
        "x10": [None, [[1]], None],
        "x12": [None, [[1, 0]], [[0], [1]]],
        "x13": [None, [[1]], None],
    },
    "maps": {
        "x2->x1": [[[1]], None, None, None],
        "x2->x4": [[[1]], None, None, None],
        "x1->x3": [[[1]], [[1], [0], [0]], None, None],
        "x4->x3": [[[1]], [[1], [1], [1]], None, None],
        "x6->x3": [None, [[0], [0], [1]], None, None],
        "x3->x5": [[[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], None],
        "x6->x7": [None, [[1]], None, None],
        "x7->x5": [None, [[0], [0], [1]], None, None],
        "x8->x6": [None, [[1]], None, None],
        "x8->x9": [None, [[1]], None, None],
        "x9->x7": [None, [[1]], None, None],
        "x7->x10": [None, [[1]], None, None],
        "x9->x11": [None, [[1]], None, None],
        "x11->x10": [None, [[1]], None, None],
        "x10->x12": [None, [[1]], [[1], [0]], None],
        "x11->x13": [None, [[1]], None, None],
        "x13->x12": [None, [[1]], [[1], [1]], None],
    },
}


def counterexample_poset() -> FinPoset:
    """The 13-element poset, whose covers are the keys of the block's maps."""
    names = [f"x{i}" for i in range(1, 14)]
    return FinPoset.from_covers(names, [tuple(key.split("->")) for key in _COUNTEREXAMPLE["maps"]])


def _counterexample_chain(p: int) -> ChainFunctor:
    return chain_from_json(_COUNTEREXAMPLE, counterexample_poset(), p)


@dataclass(frozen=True)
class GluingStage:
    """A restriction of the counterexample with the two gluing subposets."""

    functor: ChainFunctor
    a_names: tuple[str, ...]
    b_names: tuple[str, ...]


_STAGES = {
    "fig3_a": (
        ("x1", "x2", "x3", "x4"),
        ("x2",),
        ("x1", "x2", "x3", "x4"),
    ),
    "fig3_b": (
        tuple(f"x{i}" for i in range(1, 10)),
        ("x1", "x2", "x3", "x4"),
        ("x3", "x5", "x6", "x7", "x8", "x9"),
    ),
    "fig3_c": (
        tuple(f"x{i}" for i in range(1, 14)),
        tuple(f"x{i}" for i in range(1, 10)),
        ("x6", "x7", "x8", "x9", "x10", "x11", "x12", "x13"),
    ),
}


@dataclass(frozen=True)
class ChainPair:
    left: ChainFunctor
    right: ChainFunctor


# The three-chain pair on 0 < 1 < 2, as `chain_functors` document blocks.
_TRIPLE_CHAIN_PAIR = (
    {
        "top": 1,
        "dims": {"0": [1, 0], "1": [1, 1], "2": [0, 1]},
        "boundaries": {"1": [[[1]]]},
        "maps": {"0->1": [[[1]], None], "1->2": [None, [[1]]]},
    },
    {
        "top": 1,
        "dims": {"0": [1, 0], "1": [1, 1], "2": [1, 2]},
        "boundaries": {"1": [[[1]]], "2": [[[1, 0]]]},
        "maps": {"0->1": [[[1]], None], "1->2": [[[1]], [[1], [0]]]},
    },
)


def _triple_chain_pair(p: int) -> ChainPair:
    poset = FinPoset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    left, right = (chain_from_json(block, poset, p) for block in _TRIPLE_CHAIN_PAIR)
    return ChainPair(left, right)


def builtin_example(name: str, p: int = 2) -> Union[ChainFunctor, GluingStage, ChainPair]:
    """Look up a built-in object by name.

    Names: "fig2", "fig3_a", "fig3_b", "fig3_c", "triple_chain_pair"
    (with optional ".left"/".right"), "sphere(n)", "disk(n)" (n <= MAX_EXAMPLE_DEGREE).
    """
    if name == "fig2":
        return _counterexample_chain(p)
    if name in _STAGES:
        elements, a_names, b_names = _STAGES[name]
        X = _counterexample_chain(p)
        idx = [X.poset.index(e) for e in elements]
        return GluingStage(X.restrict(idx).trimmed(), a_names, b_names)
    if name == "triple_chain_pair":
        return _triple_chain_pair(p)
    if name == "triple_chain_pair.left":
        return _triple_chain_pair(p).left
    if name == "triple_chain_pair.right":
        return _triple_chain_pair(p).right
    m = re.fullmatch(r"(sphere|disk)\((\d+)\)", name)
    if m:
        kind, digits = m.group(1), m.group(2).lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXAMPLE_DEGREE)) or int(digits) > MAX_EXAMPLE_DEGREE:
            raise InputError(f"{kind} degree {digits} is above the bound {MAX_EXAMPLE_DEGREE}")
        point = FinPoset.from_covers(["*"], [])
        return standard_complex(point, kind, int(digits), 0, 1, p)
    raise UnknownExampleError(f"unknown builtin example {name!r}")
