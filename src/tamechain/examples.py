"""Built-in objects: the 13-element indecomposability counterexample with
its three gluing stages, the three-chain replacement pair, and spheres
and disks on a point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import InputError, UnknownExampleError
from .field import Mat
from .posets import FinPoset
from .chains import ChainFunctor, standard_complex

__all__ = ["GluingStage", "ChainPair", "builtin_example", "counterexample_poset", "MAX_EXAMPLE_DEGREE"]

# The largest n of "sphere(n)" and "disk(n)": on 2 CPUs sphere(10^5) takes 0.8 s and prints 0.7 MB.
MAX_EXAMPLE_DEGREE = 100_000

_COUNTEREXAMPLE_COVERS = [
    ("x2", "x1"),
    ("x2", "x4"),
    ("x1", "x3"),
    ("x4", "x3"),
    ("x6", "x3"),
    ("x3", "x5"),
    ("x6", "x7"),
    ("x7", "x5"),
    ("x8", "x6"),
    ("x8", "x9"),
    ("x9", "x7"),
    ("x7", "x10"),
    ("x9", "x11"),
    ("x11", "x10"),
    ("x10", "x12"),
    ("x11", "x13"),
    ("x13", "x12"),
]


def counterexample_poset() -> FinPoset:
    names = [f"x{i}" for i in range(1, 14)]
    return FinPoset.from_covers(names, _COUNTEREXAMPLE_COVERS)


def _counterexample_chain(p: int) -> ChainFunctor:
    """Indecomposable parametrized chain complex spanning degrees 0..3.

    Unlabeled arrows of the source diagram are identities; the two rank-1
    maps out of the 3-dimensional degree-1 spaces are [1 0 0].
    """
    poset = counterexample_poset()

    def M(rows):
        return Mat(rows, p)

    def Z(r, c):
        return Mat.zeros(r, c, p)

    I1 = Mat.identity(1, p)
    I3 = Mat.identity(3, p)
    f = M([[1, 0, 0]])

    dims = {
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
    }
    boundaries = {
        "x1": [I1, Z(1, 0), Z(0, 0)],
        "x2": [Z(1, 0), Z(0, 0), Z(0, 0)],
        "x3": [f, M([[0], [1], [0]]), Z(1, 0)],
        "x4": [I1, Z(1, 0), Z(0, 0)],
        "x5": [f, M([[0], [1], [0]]), Z(1, 0)],
        "x6": [Z(0, 1), Z(1, 0), Z(0, 0)],
        "x7": [Z(0, 1), Z(1, 0), Z(0, 0)],
        "x8": [Z(0, 1), Z(1, 0), Z(0, 0)],
        "x9": [Z(0, 1), Z(1, 0), Z(0, 0)],
        "x10": [Z(0, 1), I1, Z(1, 0)],
        "x11": [Z(0, 1), Z(1, 0), Z(0, 0)],
        "x12": [Z(0, 1), M([[1, 0]]), M([[0], [1]])],
        "x13": [Z(0, 1), I1, Z(1, 0)],
    }
    covmaps = {
        ("x2", "x1"): [I1, Z(1, 0), Z(0, 0), Z(0, 0)],
        ("x2", "x4"): [I1, Z(1, 0), Z(0, 0), Z(0, 0)],
        ("x1", "x3"): [I1, M([[1], [0], [0]]), Z(1, 0), Z(0, 0)],
        ("x4", "x3"): [I1, M([[1], [1], [1]]), Z(1, 0), Z(0, 0)],
        ("x6", "x3"): [Z(1, 0), M([[0], [0], [1]]), Z(1, 0), Z(0, 0)],
        ("x3", "x5"): [I1, I3, I1, Z(0, 0)],
        ("x6", "x7"): [Z(0, 0), I1, Z(0, 0), Z(0, 0)],
        ("x7", "x5"): [Z(1, 0), M([[0], [0], [1]]), Z(1, 0), Z(0, 0)],
        ("x8", "x6"): [Z(0, 0), I1, Z(0, 0), Z(0, 0)],
        ("x8", "x9"): [Z(0, 0), I1, Z(0, 0), Z(0, 0)],
        ("x9", "x7"): [Z(0, 0), I1, Z(0, 0), Z(0, 0)],
        ("x7", "x10"): [Z(0, 0), I1, Z(1, 0), Z(0, 0)],
        ("x9", "x11"): [Z(0, 0), I1, Z(0, 0), Z(0, 0)],
        ("x11", "x10"): [Z(0, 0), I1, Z(1, 0), Z(0, 0)],
        ("x10", "x12"): [Z(0, 0), I1, M([[1], [0]]), Z(1, 0)],
        ("x11", "x13"): [Z(0, 0), I1, Z(1, 0), Z(0, 0)],
        ("x13", "x12"): [Z(0, 0), I1, M([[1], [1]]), Z(1, 0)],
    }
    idx = poset.index
    return ChainFunctor.from_arrays(
        poset,
        [dims[name] for name in poset.names],
        [boundaries[name] for name in poset.names],
        {(idx(y), idx(x)): covmaps[(y, x)] for y, x in _COUNTEREXAMPLE_COVERS},
        p,
    )


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


def _triple_chain_pair(p: int) -> ChainPair:
    poset = FinPoset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    I1 = Mat.identity(1, p)

    def Z(r, c):
        return Mat.zeros(r, c, p)

    left = ChainFunctor.from_arrays(
        poset,
        [[1, 0], [1, 1], [0, 1]],
        [[Z(1, 0)], [I1], [Z(0, 1)]],
        {(0, 1): [I1, Z(1, 0)], (1, 2): [Z(0, 1), I1]},
        p,
    )
    right = ChainFunctor.from_arrays(
        poset,
        [[1, 0], [1, 1], [1, 2]],
        [[Z(1, 0)], [I1], [Mat([[1, 0]], p)]],
        {(0, 1): [I1, Z(1, 0)], (1, 2): [I1, Mat([[1], [0]], p)]},
        p,
    )
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
