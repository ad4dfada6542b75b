"""Golden outputs: the CLI's machine reports on the builtin examples and
on fixed-seed random documents, byte for byte.

Each file `tests/golden/<example>.p<p>.txt` holds the document that
`example` emits and then, for every command in COMMANDS, a header line
with the command and its exit code followed by its stdout.  `decompose`
reads the output of `replace`, as in the `replace | decompose` pipeline;
the other commands read the example.  Last comes `realize` with the
coordinates -1/3 and -2/3, followed by `transfer` on its output for a
vertex, an edge point on a coordinate and an edge point off it.
Each file `tests/golden/random_dim1.s<seed>.txt` does the same for a
random functor on a random poset of dimension <= 1 with 10-16 elements,
built by `random_document` without calling the program, and also
realizes an up-set of it.
The files lock the canonical forms (leftmost pivots, free variables
zero) that any change to the F_p kernels must reproduce, and the
realized posets and transfers that any change to the posets must.

Regenerate after an intended change of output with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import random
import sys
from pathlib import Path

import pytest

from tamechain.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLES = [
    "fig2",
    "fig3_a",
    "fig3_b",
    "fig3_c",
    "triple_chain_pair.left",
    "triple_chain_pair.right",
    "sphere(2)",
    "disk(1)",
]
FIELDS = [2, 3, 5]
COMMANDS = [
    ["cover"],
    ["resolve"],
    ["replace"],
    ["decompose"],
    ["endring"],
    ["indec", "--strategy", "exhaustive"],
    ["glue"],
    ["info"],
    ["validate"],
]
RANDOM_SEEDS = [1, 2, 3]
RANDOM_COMMANDS = [["cover"], ["resolve"], ["endring"], ["info"], ["validate"]]
REALIZE = ["realize", "--V=-1/3,-2/3"]


def _invoke(argv, stdin_text=""):
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = run(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


def _section(argv, stdin_text):
    code, out = _invoke(argv, stdin_text)
    return code, out, f"$ tamechain {' '.join(argv)}  # exit {code}\n{out}"


def _realize_sections(doc: str, subset=None) -> list[str]:
    """`realize` on the document's poset, then `transfer` on the result for
    the last vertex and for two points on the first cover, one at a
    coordinate of V and one between coordinates."""
    argv = REALIZE + ([f"--D={','.join(subset)}"] if subset else []) + ["--machine"]
    code, realized, text = _section(argv, doc)
    parts = [text]
    if code != 0:
        return parts
    poset = next(iter(json.loads(doc)["posets"].values()))
    points = [f"vertex:{poset['elements'][-1]}"]
    if poset["covers"]:
        bottom, top = poset["covers"][0]
        points += [f"edge:{top},{bottom},-1/3", f"edge:{top},{bottom},-1/2"]
    for point in points:
        parts.append(_section(["transfer", "--point", point, "--machine"], realized)[2])
    return parts


def render(example: str, p: int) -> str:
    argv = ["example", example, "--field", str(p)]
    code, doc = _invoke(argv)
    assert code == 0
    parts = [f"$ tamechain {' '.join(argv)}  # exit {code}\n{doc}"]
    replaced = ""
    for cmd in COMMANDS:
        code, out, text = _section(cmd + ["--machine"], replaced if cmd == ["decompose"] else doc)
        if cmd == ["replace"]:
            replaced = out
        parts.append(text)
    parts += _realize_sections(doc)
    return "".join(parts)


def random_document(seed: int) -> tuple[str, list[str]]:
    """A random functor on a poset of dimension <= 1 with 10-16 elements,
    as document text, and the names of an up-set (a closed subset).

    The Hasse diagram is a random tree with random orientations, so two
    elements are joined by one path and no two incomparable elements have
    both a common lower and a common upper bound."""
    rng = random.Random(seed)
    p = [2, 3, 5][seed % 3]
    n = rng.randint(10, 16)
    names = [f"e{i}" for i in range(n)]
    covers = []
    for j in range(1, n):
        i = rng.randrange(j)
        covers.append((names[i], names[j]) if rng.random() < 0.5 else (names[j], names[i]))
    dims = {name: rng.randint(0, 2) for name in names}
    maps = {
        f"{y}->{x}": [[rng.randrange(p) for _ in range(dims[y])] for _ in range(dims[x])] or None
        for y, x in covers
    }
    up = {names[rng.randrange(n)]}
    while True:
        bigger = up | {x for y, x in covers if y in up}
        if bigger == up:
            break
        up = bigger
    doc = {
        "field": p,
        "posets": {"Q": {"elements": names, "covers": [list(c) for c in covers]}},
        "functors": {"F": {"poset": "Q", "dims": dims, "maps": maps}},
    }
    return json.dumps(doc, sort_keys=True) + "\n", [x for x in names if x in up]


def render_random(seed: int) -> str:
    doc, up = random_document(seed)
    parts = [f"# random_document({seed})\n{doc}"]
    for cmd in RANDOM_COMMANDS:
        parts.append(_section(cmd + ["--machine"], doc)[2])
    parts += _realize_sections(doc)
    parts += _realize_sections(doc, up)
    return "".join(parts)


def golden_path(example: str, p: int) -> Path:
    return GOLDEN / f"{example}.p{p}.txt"


def random_golden_path(seed: int) -> Path:
    return GOLDEN / f"random_dim1.s{seed}.txt"


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("example", EXAMPLES)
def test_golden_output(example, p):
    expected = golden_path(example, p).read_bytes()
    assert render(example, p).encode("utf-8") == expected


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_golden_random_output(seed):
    expected = random_golden_path(seed).read_bytes()
    assert render_random(seed).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for example in EXAMPLES:
        for p in FIELDS:
            golden_path(example, p).write_bytes(render(example, p).encode("utf-8"))
    for seed in RANDOM_SEEDS:
        random_golden_path(seed).write_bytes(render_random(seed).encode("utf-8"))
