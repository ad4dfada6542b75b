"""Exit-code fuzz test of the command-line boundary.

Valid documents (the builtin examples, random documents of
`test_golden.random_document` and a realization) and valid argument
lists are mutated at random.  Whatever the mutation, a command exits 0,
1 or 2 and prints no traceback.  A mutation that makes the input
malformed (an integer written as a float or a boolean, a bad field, a
dropped required key, a container of the wrong type, an unknown name, a
bad fraction, a bad argument) must exit 2.
"""

from __future__ import annotations

import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

import tamechain
from tamechain.cli import run
from test_golden import random_document

FIELD = 3
EXAMPLES = ["fig2", "fig3_a", "fig3_b", "fig3_c", "triple_chain_pair", "sphere(2)", "disk(1)"]
COMMANDS = [
    ["info"],
    ["validate"],
    ["cover"],
    ["resolve"],
    ["endring"],
    ["indec", "--budget", "4096"],
    ["glue"],
    ["replace"],
    ["decompose"],
]
# Keys whose absence makes a document malformed wherever they occur.
REQUIRED = {"field", "elements", "covers", "dims", "poset", "base_elements", "base_covers"}
# Subtrees whose content the documents must get right; `gluing` is only
# read by `glue`.
CHECKED = ("posets", "functors", "chain_functors")
UNKNOWN = "zz"


def invoke(argv, stdin_text=""):
    """Exit code, stdout and stderr of one in-process run.  An exception
    other than argparse's SystemExit escapes, as a traceback would."""
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


def _documents() -> list[dict]:
    docs = []
    for name in EXAMPLES:
        code, out, _ = invoke(["example", name, "--field", str(FIELD)])
        assert code == 0, name
        docs.append(json.loads(out))
    for seed in (1, 2):
        text, _ = random_document(seed)
        docs.append(json.loads(text))
    code, out, _ = invoke(["realize", "--V=-1/3,-1/2"], json.dumps(docs[-1]))
    assert code == 0
    realized = json.loads(out)
    realized["functors"] = {"F": {"poset": next(iter(realized["posets"])), "dims": {}}}
    docs.append(realized)
    return docs


DOCS = _documents()


def _nodes(node, path=()):
    """(path, value) of every node below the root, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _element_names(doc: dict) -> set:
    names = set()
    for block in doc.get("posets", {}).values():
        names.update(block["elements"])
        names.update(block.get("realization", {}).get("base_elements", ()))
    return names


def _references(doc: dict) -> list[tuple]:
    """Paths of the strings and keys that name an element or a poset.
    A key is marked by a trailing None."""
    refs = []
    for path, val in _nodes(doc):
        if not path or path[0] not in CHECKED:
            continue
        parent = path[-2] if len(path) >= 2 else None
        if path[-1] == "poset" and isinstance(val, str):
            refs.append(path)
        elif isinstance(val, str) and len(path) >= 3 and path[-3] in ("covers", "base_covers"):
            refs.append(path)
        elif isinstance(val, str) and parent == "subset":
            refs.append(path)
        elif parent in ("dims", "boundaries", "maps") and path[0] != "posets":
            refs.append(path + (None,))
    return refs


def _get(doc, path):
    node = doc
    for key in path:
        node = node[key]
    return node


def _set(doc: dict, path: tuple, value) -> None:
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


BAD_FIELDS = [4, 1, 0, -3, 2147483659, 3.5, 3.0, True, False, "3", None, [3]]
BAD_FRACTIONS = ["1/0", "zz", "-1/2x", "1/2", "0/1", "-3/2", "", -0.5, None, ["-1/2"]]


@st.composite
def malformed_document(draw):
    """A mutated document that is malformed, and what was done to it."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    kinds = ["field"]
    ints = [p for p, v in _nodes(doc) if type(v) is int and p[0] in CHECKED]
    required = [p for p, _ in _nodes(doc) if p[-1] in REQUIRED and (p[0] in CHECKED or p == ("field",))]
    containers = [p for p, v in _nodes(doc) if isinstance(v, (dict, list)) and p[0] in CHECKED]
    refs = _references(doc)
    coords = [p for p, v in _nodes(doc) if len(p) >= 2 and p[-2] == "coordinates"]
    kinds += ["int"] * bool(ints) + ["drop"] * bool(required) + ["swap"] * bool(containers)
    kinds += ["name"] * bool(refs) + ["fraction"] * bool(coords)
    kind = draw(st.sampled_from(kinds))
    if kind == "field":
        doc["field"] = draw(st.sampled_from(BAD_FIELDS))
    elif kind == "int":
        path = draw(st.sampled_from(ints))
        value = draw(st.sampled_from([lambda v: v + 0.5, lambda v: float(v), lambda v: True, lambda v: False]))
        _set(doc, path, value(_get(doc, path)))
    elif kind == "drop":
        path = draw(st.sampled_from(required))
        del _get(doc, path[:-1])[path[-1]]
    elif kind == "swap":
        path = draw(st.sampled_from(containers))
        old = _get(doc, path)
        choices = [7, UNKNOWN, 1.5, True] + ([[]] if isinstance(old, dict) else [{}])
        _set(doc, path, draw(st.sampled_from(choices)))
    elif kind == "name":
        path = draw(st.sampled_from(refs))
        if path[-1] is None:
            table = _get(doc, path[:-2])
            key = path[-2]
            new = UNKNOWN
            if "->" in key:
                y, x = key.split("->")
                new = draw(st.sampled_from([f"{UNKNOWN}->{x}", f"{y}->{UNKNOWN}", UNKNOWN]))
            table[new] = table.pop(key)
        else:
            _set(doc, path, UNKNOWN)
    else:
        path = draw(st.sampled_from(coords))
        _set(doc, path, draw(st.sampled_from(BAD_FRACTIONS)))
    return kind, doc


def _check(argv, text, must_fail):
    code, out, err = invoke(argv, text)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if must_fail:
        assert code == 2, (argv, code, out[:200], err)
        assert out == ""


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(malformed_document(), st.sampled_from(COMMANDS))
def test_malformed_documents_exit_2(case, command):
    kind, doc = case
    _check(command + ["--machine"], json.dumps(doc), must_fail=True)


JSON_VALUES = [None, True, False, 0, 1, 2, -1, 3.5, "", UNKNOWN, "1/2", "x1->x2", [], {}, [[1]], [[1, 0]], {"a": 1}]


@st.composite
def mutated_document(draw):
    """A document with one node replaced, dropped or added anywhere,
    malformed or not."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    path, _ = draw(st.sampled_from(list(_nodes(doc))))
    parent = _get(doc, path[:-1])
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        parent[path[-1]] = draw(st.sampled_from(JSON_VALUES))
    elif action == "drop":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from([UNKNOWN, "top", "maps", "realization"]))] = draw(st.sampled_from(JSON_VALUES))
    else:
        parent.append(draw(st.sampled_from(JSON_VALUES)))
    return doc


@FUZZ
@given(mutated_document(), st.sampled_from(COMMANDS))
def test_mutated_documents_exit_cleanly(doc, command):
    _check(command + ["--machine"], json.dumps(doc), must_fail=False)


GLUED = json.dumps(DOCS[EXAMPLES.index("fig3_c")])
PLAIN = json.dumps({"field": FIELD, "posets": {"Q": {"elements": ["a", "b"], "covers": [["a", "b"]]}}})
REALIZED = json.dumps(DOCS[-1])
tokens = st.text(alphabet="abxyz012-/,:~", max_size=6)


def _is_coordinate(token: str) -> bool:
    num, _, den = token.partition("/")
    try:
        return -1 < int(num) / int(den) < 0
    except (ValueError, ZeroDivisionError):
        return False


def _unknown(names):
    """A comma-separated name list with at least one unknown name."""
    return tokens.filter(lambda t: any(n not in names for n in t.split(",")))


@st.composite
def malformed_arguments(draw):
    """A document and an argument list with one bad argument."""
    glued = _element_names(json.loads(GLUED))
    bad_fields = st.sampled_from(["4", "1", "0", "-3", "2147483659", "x", "3.5"])
    cases = [
        (GLUED, st.tuples(st.sampled_from(COMMANDS), _unknown({"X"})).map(lambda c: c[0] + ["--object", c[1]])),
        (GLUED, st.integers(-5, -1).map(lambda b: ["indec", "--budget", str(b)])),
        (GLUED, tokens.filter(lambda t: not t.lstrip("-").isdigit()).map(lambda b: ["indec", "--budget", b])),
        (GLUED, tokens.filter(lambda t: t not in ("exhaustive", "fitting")).map(lambda s: ["indec", "--strategy", s])),
        (GLUED, _unknown(glued).map(lambda a: ["glue", "--A", a])),
        (GLUED, _unknown(glued).map(lambda b: ["glue", "--B", b])),
        (PLAIN, tokens.filter(lambda t: t and not all(map(_is_coordinate, t.split(",")))).map(lambda v: ["realize", f"--V={v}"])),
        (PLAIN, _unknown({"a", "b"}).map(lambda d: ["realize", f"--D={d}"])),
        (PLAIN, _unknown({"Q"}).map(lambda n: ["realize", "--poset", n])),
        (PLAIN, _unknown({"a", "b"}).map(lambda s: ["transfer", "--point", "b", "--sub", s])),
        (PLAIN, _unknown({"a", "b"}).filter(lambda t: "," not in t).map(lambda z: ["transfer", "--point", z, "--sub", "a"])),
        (PLAIN, st.just(["transfer", "--point", "b"])),
        (REALIZED, tokens.map(lambda z: ["transfer", "--point", f"vertex:{z}x"])),
        (REALIZED, tokens.map(lambda t: ["transfer", "--point", f"edge:e0,e1,{t}x"])),
        ("", _unknown(set(EXAMPLES)).map(lambda n: ["example", n])),
        ("", bad_fields.map(lambda f: ["example", "fig2", "--field", f])),
        (PLAIN, tokens.map(lambda f: ["info", f"--{f}x"])),
        (PLAIN, tokens.map(lambda c: [f"{c}x"])),
    ]
    text, argv = draw(st.sampled_from(cases))
    return text, draw(argv)


@FUZZ
@given(malformed_arguments())
def test_malformed_arguments_exit_2(case):
    text, argv = case
    _check(argv, text, must_fail=True)


FLAGS = ["--object", "--budget", "--strategy", "--A", "--B", "--V", "--D", "--point", "--sub", "--poset", "--field"]


@FUZZ
@given(
    st.sampled_from([GLUED, PLAIN, REALIZED]),
    st.lists(st.one_of(tokens, st.sampled_from(FLAGS + ["--machine", "X", "a", "fig2"])), max_size=4),
    st.sampled_from(COMMANDS + [["realize"], ["transfer"], ["example"]]),
)
def test_mutated_arguments_exit_cleanly(text, args, command):
    _check(command + args, text, must_fail=False)


# Run one command in a child process capped at 2 GB of address space, so
# that a missing size check fails fast instead of swapping.
CAPPED = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    "from tamechain.cli import run; sys.exit(run(sys.argv[1:]))"
)


@pytest.mark.parametrize("name", ["sphere(100000000)", "disk(" + "9" * 30 + ")"])
def test_example_degree_above_the_bound_exits_2(name):
    src = str(Path(tamechain.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED, "example", name],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    degree = name[name.index("(") + 1 : -1]
    assert degree in proc.stderr and str(tamechain.examples.MAX_EXAMPLE_DEGREE) in proc.stderr


@pytest.mark.parametrize("command", COMMANDS)
def test_integer_literal_over_the_digit_limit_exits_2(command):
    """`json` refuses integer literals over Python's int-string digit limit
    (4,300 digits) with a plain ValueError, not a JSONDecodeError."""
    doc = json.loads(PLAIN)
    doc["functors"] = {"F": {"poset": "Q", "dims": {"a": 1}}}
    text = json.dumps(doc).replace('"a": 1', '"a": ' + "9" * 5000)
    _check(command + ["--machine"], text, must_fail=True)
