"""Golden outputs: the CLI's machine reports on the builtin examples, byte
for byte.

Each file `tests/golden/<example>.p<p>.txt` holds the document that
`example` emits and then, for every command in COMMANDS, a header line
with the command and its exit code followed by its stdout.  `decompose`
reads the output of `replace`, as in the `replace | decompose` pipeline;
the other commands read the example.
The files lock the canonical forms (leftmost pivots, free variables
zero) that any change to the F_p kernels must reproduce.

Regenerate after an intended change of output with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
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


def _invoke(argv, stdin_text=""):
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = run(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


def render(example: str, p: int) -> str:
    argv = ["example", example, "--field", str(p)]
    code, doc = _invoke(argv)
    assert code == 0
    parts = [f"$ tamechain {' '.join(argv)}  # exit {code}\n{doc}"]
    replaced = ""
    for cmd in COMMANDS:
        argv = cmd + ["--machine"]
        code, out = _invoke(argv, replaced if cmd == ["decompose"] else doc)
        if cmd == ["replace"]:
            replaced = out
        parts.append(f"$ tamechain {' '.join(argv)}  # exit {code}\n{out}")
    return "".join(parts)


def golden_path(example: str, p: int) -> Path:
    return GOLDEN / f"{example}.p{p}.txt"


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("example", EXAMPLES)
def test_golden_output(example, p):
    expected = golden_path(example, p).read_bytes()
    assert render(example, p).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for example in EXAMPLES:
        for p in FIELDS:
            golden_path(example, p).write_bytes(render(example, p).encode("utf-8"))
