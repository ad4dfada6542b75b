import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamechain.cli import _end_ring_json
from tamechain.field import Mat
from tamechain.interchange import build_document, chain_from_json, dumps_document, parse_document
from tamechain.examples import ChainPair, GluingStage, builtin_example
from tamechain.posets import FinPoset, realize
from tamechain.functors import free_on_generators
from tamechain.morphisms import EndRing, hom_space

from conftest import invoke, random_chain, random_poset


def test_example_pipes_into_indec():
    code, doc, _ = invoke(["example", "fig2"])
    assert code == 0
    code, out, _ = invoke(["indec", "--strategy", "exhaustive"], doc)
    assert code == 0
    assert "verdict: indecomposable" in out
    assert "certainty: certain" in out


def test_example_replace_decompose_pipeline():
    code, doc, _ = invoke(["example", "triple_chain_pair.left"])
    assert code == 0
    code, rep_doc, _ = invoke(["replace"], doc)
    assert code == 0
    code, out, _ = invoke(["decompose"], rep_doc)
    assert code == 0
    assert "count: 2" in out


def test_glue_uses_document_defaults():
    code, doc, _ = invoke(["example", "fig3_c"])
    assert code == 0
    code, out, _ = invoke(["glue", "--machine"], doc)
    assert code == 0
    rep = json.loads(out)
    assert rep["crit_hom_zero"] is True
    assert rep["kan_nonzero_degrees"] == [1]


def test_validate_rejects_broken_boundary(tmp_path):
    poset = FinPoset.from_covers(["*"], [])
    bad = {
        "field": 2,
        "posets": {"P": {"elements": ["*"], "covers": []}},
        "chain_functors": {
            "X": {
                "poset": "P",
                "top": 2,
                "dims": {"*": [1, 1, 1]},
                "boundaries": {"*": [[[1]], [[1]]]},
                "maps": {},
            }
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = invoke(["validate", str(path)])
    assert code == 2
    assert "degree" in err


def test_math_error_exit_code():
    # Resolving an atom at the bottom of a diamond has no length-1
    # resolution: exit code 1.
    diamond = FinPoset.from_covers(
        ["c1", "c2", "c3", "c4"],
        [("c1", "c2"), ("c1", "c3"), ("c2", "c4"), ("c3", "c4")],
    )
    functor_block = {
        "field": 2,
        "posets": {
            "P": {
                "elements": list(diamond.names),
                "covers": [[diamond.names[y], diamond.names[x]] for y, x in diamond.covers],
            }
        },
        "functors": {
            "F": {"poset": "P", "dims": {"c1": 1, "c2": 0, "c3": 0, "c4": 0}, "maps": {}}
        },
    }
    code, out, err = invoke(["resolve"], json.dumps(functor_block))
    assert code == 1
    assert "KernelNotProjective" in err


def test_glue_reads_repeated_names_as_sets():
    _, doc, _ = invoke(["example", "fig3_a"])
    code, plain, _ = invoke(["glue", "--machine", "--A", "x2", "--B", "x1,x2,x3,x4"], doc)
    assert code == 0
    assert json.loads(plain)["kan_nonzero_degrees"] == [0]
    for a, b in (("x2", "x1,x1,x2,x3,x4"), ("x2,x2", "x4,x3,x2,x1,x4")):
        code, out, _ = invoke(["glue", "--machine", "--A", a, "--B", b], doc)
        assert code == 0
        assert out == plain


def test_machine_output_deterministic():
    _, doc, _ = invoke(["example", "fig3_b"])
    c1, out1, _ = invoke(["glue", "--machine"], doc)
    c2, out2, _ = invoke(["glue", "--machine"], doc)
    assert c1 == c2 == 0
    assert out1 == out2
    _, doc1, _ = invoke(["example", "fig2"])
    _, doc2, _ = invoke(["example", "fig2"])
    assert doc1 == doc2


def test_realize_and_transfer_commands():
    chain = {
        "field": 3,
        "posets": {"Q": {"elements": ["0", "1"], "covers": [["0", "1"]]}},
    }
    code, doc, _ = invoke(["realize", "--V=-1/2"], json.dumps(chain))
    assert code == 0
    parsed = json.loads(doc)
    assert "Q_realized" in parsed["posets"]
    code, out, _ = invoke(["transfer", "--point", "edge:1,0,-1/4"], doc)
    assert code == 0
    assert "1~0~-1/2" in out
    code, out, _ = invoke(["transfer", "--point", "edge:1,0,-3/4"], doc)
    assert "transfer: 0" in out
    # Bottom case on a plain poset.
    code, out, _ = invoke(["transfer", "--point", "0", "--sub", "1"], json.dumps(chain))
    assert code == 0
    assert "transfer: bottom" in out


def test_info_reports_homology_table():
    _, doc, _ = invoke(["example", "sphere(2)"])
    code, out, _ = invoke(["info"], doc)
    assert code == 0
    assert "H2" in out


def test_cover_and_endring_reports():
    _, doc, _ = invoke(["example", "fig2"])
    code, out, _ = invoke(["cover", "--machine"], doc)
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "chain"
    code, out, _ = invoke(["endring", "--machine"], doc)
    rep = json.loads(out)
    assert rep["dim"] == 1


def test_field_mismatch_between_example_and_request():
    code, doc, _ = invoke(["example", "fig2", "--field", "5"])
    parsed = json.loads(doc)
    assert parsed["field"] == 5


def test_interchange_round_trip_realized():
    base = FinPoset.from_covers(["p", "q", "r"], [("p", "r"), ("q", "r")])
    rp = realize(base, None, [Fraction(-1, 3)])
    F = free_on_generators(rp, [(rp.index("p"), 2)], 5)
    doc = build_document(5, {"R": rp}, functors={"F": (F, "R")})
    text = dumps_document(doc)
    back = parse_document(text)
    assert back.field == 5
    P2 = back.posets["R"]
    assert P2.names == rp.names
    assert P2.covers == rp.covers
    F2 = back.functors["F"][0]
    assert F2.dims == F.dims
    assert dumps_document(build_document(5, {"R": P2}, functors={"F": (F2, "R")})) == text


def _assert_round_trip(X) -> None:
    """`chain_to_json` then `chain_from_json` give X's poset, dims,
    boundary components and cover maps."""
    text = dumps_document(build_document(X.p, {"P": X.poset}, chains={"X": (X, "P")}))
    X2 = parse_document(text).chains["X"][0]
    assert (X2.poset.names, X2.poset.covers) == (X.poset.names, X.poset.covers)
    assert X2.dims == X.dims
    assert [b.comps for b in X2.d] == [b.comps for b in X.d]
    assert [F.maps for F in X2.layers] == [F.maps for F in X.layers]


BUILTIN_NAMES = [
    "fig2",
    "fig3_a",
    "fig3_b",
    "fig3_c",
    "triple_chain_pair",
    "triple_chain_pair.left",
    "triple_chain_pair.right",
    "sphere(0)",
    "sphere(3)",
    "disk(0)",
    "disk(3)",
]


def test_interchange_round_trip_chain():
    for p in (2, 3, 5):
        for name in BUILTIN_NAMES:
            obj = builtin_example(name, p)
            if isinstance(obj, GluingStage):
                _assert_round_trip(obj.functor)
            elif isinstance(obj, ChainPair):
                _assert_round_trip(obj.left)
                _assert_round_trip(obj.right)
            else:
                _assert_round_trip(obj)


@st.composite
def arrow_named_chains(draw):
    """`random_chain` with top 0 to 2 on a random poset of any dimension,
    its elements renamed to names that contain `->`."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    P = random_poset(rng, 5)
    forms = draw(st.lists(st.sampled_from(["e{}->", "->e{}", "e{}->x"]), min_size=P.n, max_size=P.n))
    names = [form.format(i) for i, form in enumerate(forms)]
    P = FinPoset.from_covers(names, [(names[y], names[x]) for y, x in P.covers])
    return random_chain(rng, P, draw(st.sampled_from([2, 3, 5, 32749])), draw(st.integers(0, 2)))


@settings(max_examples=60, deadline=None)
@given(arrow_named_chains())
def test_interchange_round_trip_random_chain(X):
    _assert_round_trip(X)


@pytest.mark.parametrize("p", [2, 3, 32749, 2147483629])
def test_endring_machine_prints_the_hom_space_basis(p):
    rng = random.Random(p)
    for top in (0, 1, 2):
        X = random_chain(rng, random_poset(rng, 4), p, top)
        text = dumps_document(build_document(p, {"P": X.poset}, chains={"X": (X, "P")}))
        code, out, _ = invoke(["endring", "--machine"], text)
        assert code == 0
        Xd = parse_document(text).chains["X"][0]
        expected = [
            {name: [nat.comps[q].tolist() for nat in b.nats] for q, name in enumerate(Xd.poset.names)}
            for b in hom_space(Xd, Xd)
        ]
        assert json.loads(out)["basis"] == expected


def _end_ring_json_oracle(name, ring) -> str:
    """The `endring --machine` report as lists: one `tolist` per block and
    one `json.dumps`."""
    cols = ring.columns.arr
    basis = [
        {
            element: [cols[o : o + r * c, j].reshape(r, c).tolist() for o, r, c in ring.blocks[q]]
            for q, element in enumerate(ring.obj.poset.names)
        }
        for j in range(ring.dim)
    ]
    report = {"object": name, "dim": ring.dim, "basis": basis}
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


# Characters that JSON escapes, that `%` formatting reads, and non-ASCII ones.
NAMES = st.text(alphabet='ad%"\\\n {}:,é∂\u2028😀', max_size=4)


@st.composite
def rings(draw):
    """A chain functor with zero maps and boundaries on a chain of names,
    with top 0 to 2 and dims 0 to 3, and 0 to 4 random columns as its End
    basis: the report reads only the names, the blocks and the columns."""
    p = draw(st.sampled_from([2, 32749]))
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    top = draw(st.integers(0, 2))
    dims = [[draw(st.integers(0, 3)) for _ in range(top + 1)] for _ in names]
    P = FinPoset.from_covers(names, [(a, b) for a, b in zip(names, names[1:])][: draw(st.integers(0, len(names) - 1))])
    X = chain_from_json({"top": top, "dims": dict(zip(names, dims))}, P, p)
    k = draw(st.integers(0, 4))
    rows = sum(d * d for row in dims for d in row)
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * k, max_size=rows * k))
    return EndRing(X, Mat(np.array(entries, dtype=np.int64).reshape(rows, k), p))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.none(), NAMES), rings())
def test_end_ring_report_template_matches_the_lists(name, ring):
    assert _end_ring_json(name, ring) == _end_ring_json_oracle(name, ring)


def test_indec_on_plain_functor_document():
    doc = {
        "field": 2,
        "posets": {"P": {"elements": ["a", "b"], "covers": [["a", "b"]]}},
        "functors": {"F": {"poset": "P", "dims": {"a": 1, "b": 1}, "maps": {"a->b": [[1]]}}},
    }
    code, out, _ = invoke(["indec"], json.dumps(doc))
    assert code == 0
    assert "verdict: indecomposable" in out
    code, out, _ = invoke(["endring"], json.dumps(doc))
    assert code == 0
    assert "dim: 1" in out


def test_unknown_object_is_one_input_error_on_every_command():
    doc = {
        "field": 2,
        "posets": {"P": {"elements": ["a", "b"], "covers": [["a", "b"]]}},
        "functors": {"F": {"poset": "P", "dims": {"a": 1, "b": 1}, "maps": {"a->b": [[1]]}}},
        "chain_functors": {"X": {"poset": "P", "top": 0, "dims": {"a": [1], "b": [1]}, "maps": {"a->b": [[[1]]]}}},
    }
    errors = set()
    for cmd in ("cover", "resolve", "endring", "indec"):
        code, out, err = invoke([cmd, "--object", "zz"], json.dumps(doc))
        assert code == 2, cmd
        assert out == ""
        assert "'zz'" in err
        errors.add(err)
    assert len(errors) == 1, errors


def test_field_env_read_when_example_runs(monkeypatch):
    invoke(["example", "fig2"])  # the parser exists before the variable is set
    monkeypatch.setenv("TAMECHAIN_FIELD", "5")
    code, doc, _ = invoke(["example", "fig2"])
    assert code == 0
    assert json.loads(doc)["field"] == 5
    code, doc, _ = invoke(["example", "fig2", "--field", "3"])
    assert json.loads(doc)["field"] == 3


def test_bad_field_env_ignored_by_other_commands(monkeypatch):
    _, doc, _ = invoke(["example", "fig3_c"])
    monkeypatch.setenv("TAMECHAIN_FIELD", "x")
    code, out, err = invoke(["info"], doc)
    assert code == 0, err
    assert "field: 2" in out


def test_non_integer_field_env_is_input_error(monkeypatch):
    monkeypatch.setenv("TAMECHAIN_FIELD", "x")
    code, out, err = invoke(["example", "fig2"])
    assert code == 2
    assert out == ""
    assert "input error (InputError)" in err


def test_non_prime_field_env_is_input_error(monkeypatch):
    monkeypatch.setenv("TAMECHAIN_FIELD", "4")
    code, out, err = invoke(["example", "fig2"])
    assert code == 2
    assert out == ""
    assert "not prime" in err


def test_non_prime_field_option_is_input_error():
    code, out, err = invoke(["example", "fig2", "--field", "4"])
    assert code == 2
    assert out == ""
    assert "not prime" in err


def _dims_only_document(field) -> str:
    return json.dumps(
        {
            "field": field,
            "posets": {"P": {"elements": ["a", "b"], "covers": [["a", "b"]]}},
            "functors": {"F": {"poset": "P", "dims": {"a": 1, "b": 1}}},
        }
    )


def test_non_prime_document_field_is_input_error():
    for field in (4, "x"):
        for cmd in ("cover", "info"):
            code, out, err = invoke([cmd], _dims_only_document(field))
            assert code == 2, (field, cmd)
            assert out == ""
            assert "Traceback" not in err
            assert f"bad field {field!r}" in err


def test_float_or_bool_document_field_is_input_error():
    for field in (3.5, 3.0, True):
        for cmd in ("cover", "info"):
            code, out, err = invoke([cmd], _dims_only_document(field))
            assert code == 2, (field, cmd)
            assert out == ""
            assert "Traceback" not in err
            assert f"bad field {field!r}" in err


PLAIN = json.dumps({"field": 3, "posets": {"Q": {"elements": ["a", "b"], "covers": [["a", "b"]]}}})


def _realized(**edits) -> dict:
    code, doc, _ = invoke(["realize", "--V=-1/2"], PLAIN)
    assert code == 0
    doc = json.loads(doc)
    block = doc["posets"]["Q_realized"]
    for key, value in edits.items():
        if value is None:
            del block["realization"][key]
        else:
            block[key] = value
    return doc


@pytest.mark.parametrize(
    "argv, token",
    [
        (["realize", "--V=1/0"], "1/0"),
        (["realize", "--V=zz"], "zz"),
        (["realize", "--V=-1/2x"], "-1/2x"),
        (["realize", "--D=zz"], "zz"),
        (["transfer", "--point", "q", "--sub", "a"], "q"),
        (["transfer", "--point", "a", "--sub", "zz"], "zz"),
    ],
)
def test_bad_arguments_on_plain_poset_are_input_errors(argv, token):
    code, out, err = invoke(argv, PLAIN)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert repr(token) in err


@pytest.mark.parametrize("point, token", [("vertex:zz", "zz"), ("edge:b,a,1/0", "1/0"), ("edge:a,b,-1/2", "edge:a,b,-1/2")])
def test_bad_points_on_realization_are_input_errors(point, token):
    code, out, err = invoke(["transfer", "--point", point], json.dumps(_realized()))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert repr(token) in err


def _check_input_error(doc: str, message: str) -> None:
    for cmd in ("info", "validate"):
        code, out, err = invoke([cmd], doc)
        assert code == 2, cmd
        assert out == ""
        assert "Traceback" not in err
        assert message in err


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"base_covers": None}, "base_covers"),
        ({"base_elements": None}, "base_elements"),
        ({"covers": [["a", "b~a~-1/2"]]}, "('b~a~-1/2', 'b')"),
        ({"covers": [["a", "b"], ["a", "b~a~-1/2"], ["b~a~-1/2", "b"]]}, "('a', 'b')"),
    ],
)
def test_bad_realization_blocks_are_input_errors(edits, message):
    _check_input_error(json.dumps(_realized(**edits)), message)


@pytest.mark.parametrize("key", ["coordinates", "subset", "elements"])
def test_non_list_realization_keys_are_input_errors(key):
    doc = _realized()
    block = doc["posets"]["Q_realized"]
    (block if key == "elements" else block["realization"])[key] = 3
    _check_input_error(json.dumps(doc), f"poset 'Q_realized': `{key}` must be a list of strings, got 3")


def test_non_integer_dims_are_input_errors():
    posets = json.loads(PLAIN)["posets"]
    doc = {"field": 3, "posets": posets, "functors": {"F": {"poset": "Q", "dims": {"a": "x"}}}}
    _check_input_error(json.dumps(doc), "functor 'F': dim at 'a' is not an integer")
    doc = {"field": 3, "posets": posets, "chain_functors": {"X": {"poset": "Q", "dims": {"a": ["x"]}}}}
    _check_input_error(json.dumps(doc), "chain functor 'X': dim at 'a' is not an integer")


def test_validate_missing_file_is_input_error(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(PLAIN)
    missing = str(tmp_path / "missing.json")
    for argv in ([missing], [missing, str(good)], [str(good), missing]):
        code, out, err = invoke(["validate"] + argv)
        assert code == 2
        assert out == ""
        assert repr(missing) in err


def test_batch_validate_names_the_failing_file(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(PLAIN)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": 4}))
    for files in ([bad, good], [good, bad], [good, good, bad]):
        code, out, err = invoke(["validate"] + [str(f) for f in files])
        assert code == 2
        assert out == ""
        assert f"input error (ParseError): {bad}: bad field 4: field modulus 4 is not prime" in err


@pytest.mark.parametrize("command", [["info"], ["endring"], ["validate"]])
def test_document_errors_name_the_file(tmp_path, command):
    # A document read from a file is named in its parse error; the same
    # document on stdin is not, since it has no name.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": 4}))
    message = "input error (ParseError): {}bad field 4: field modulus 4 is not prime\n"
    code, out, err = invoke(command + [str(bad)])
    assert (code, out, err) == (2, "", message.format(f"{bad}: "))
    code, out, err = invoke(command + ["-"], bad.read_text())
    assert (code, out, err) == (2, "", message.format(""))


@pytest.mark.parametrize(
    "broken, message",
    [
        (
            {"top": 2, "dims": {"a": [1, 1, 1]}, "boundaries": {"a": [[[1]], [[1]]]}},
            "boundary square is nonzero at element a, degree 2",
        ),
        (
            {"top": 1, "dims": {"a": [1, 1], "b": [1, 1]}, "boundaries": {"a": [[[1]]], "b": [[[1]]]},
             "maps": {"a->b": [[[1]], None]}},
            "boundary from degree 1: naturality fails on cover (a, b)",
        ),
    ],
    ids=["square", "naturality"],
)
def test_constructor_errors_in_a_document_name_the_object(broken, message):
    # X is well formed; only Y, the second chain functor, is broken.
    good = {"top": 1, "dims": {"a": [1, 1], "b": [1, 1]}, "boundaries": {"a": [[[1]]], "b": [[[1]]]},
            "maps": {"a->b": [[[1]], [[1]]]}}
    doc = json.loads(PLAIN)
    doc["chain_functors"] = {"X": {"poset": "Q", **good}, "Y": {"poset": "Q", **broken}}
    code, out, err = invoke(["info"], json.dumps(doc))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"input error (ValidationError): chain functor 'Y': {message}" in err


def _fig2_document(edit) -> str:
    code, doc, _ = invoke(["example", "fig2", "--field", "3"])
    assert code == 0
    doc = json.loads(doc)
    edit(doc["chain_functors"])
    return json.dumps(doc)


def _set_entry(val):
    def edit(chains):
        chains["fig2"]["maps"]["x1->x3"][0] = [[val]]

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c["fig2"].update(top="a"), "chain functor 'fig2': `top` is not an integer: 'a'"),
        (lambda c: c.update(fig2=3), "chain functor 'fig2' must be an object, got 3"),
        (lambda c: c["fig2"]["dims"].update(x1=5), "chain functor 'fig2': dims at 'x1'"),
        (_set_entry(1.5), "chain functor 'fig2': cover map 'x1->x3' degree 0 entry is not an integer: 1.5"),
        (_set_entry(True), "chain functor 'fig2': cover map 'x1->x3' degree 0 entry is not an integer: True"),
    ],
    ids=["top-not-int", "entry-not-object", "dims-not-list", "float-entry", "bool-entry"],
)
def test_malformed_chain_functors_are_input_errors(edit, message):
    doc = _fig2_document(edit)
    for cmd in ("info", "indec", "cover"):
        code, out, err = invoke([cmd], doc)
        assert code == 2, cmd
        assert out == ""
        assert "Traceback" not in err
        assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["glue", "--A", "zz", "--B", "x1"], "--A names unknown element 'zz'"),
        (["glue", "--A", ",", "--B", ","], "--A names unknown element ''"),
        (["indec", "--budget", "-1"], "--budget must be non-negative, got -1"),
    ],
)
def test_bad_glue_and_indec_arguments_are_input_errors(argv, message):
    code, out, err = invoke(argv, _fig2_document(lambda c: None))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in err


def _functor_document(**edits) -> str:
    doc = json.loads(_dims_only_document(3))
    for key, value in edits.items():
        doc["functors"]["F"][key] = value
    return json.dumps(doc)


def _poset_document(**edits) -> str:
    doc = json.loads(PLAIN)
    doc["posets"]["Q"].update(edits)
    return json.dumps(doc)


def _glued_document(**gluing) -> str:
    doc = json.loads(_fig2_document(lambda c: None))
    doc["gluing"] = gluing
    return json.dumps(doc)


def _realized_edges(edges) -> str:
    doc = _realized()
    doc["posets"]["Q_realized"]["realization"]["edges"] = edges
    return json.dumps(doc)


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["info"], _functor_document(dims={"a": -1}), "functor 'F': dim at 'a' is negative: -1"),
        (["info"], _functor_document(dims={"a": 1, "zz": 1}), "functor 'F': `dims` names unknown element 'zz'"),
        (["info"], _poset_document(elements=[1, 2]), "poset 'Q': `elements` must be a list of strings"),
        (["info"], _poset_document(covers={"ab": 1}), "poset 'Q': `covers` must be a list of [lower, upper] name pairs"),
        (["info"], _realized_edges([]), "poset 'Q_realized': realization block lists `edges` that differ"),
        (["glue", "--A", "", "--B", "x1"], _fig2_document(lambda c: None), "--A names unknown element ''"),
        (["glue"], _glued_document(A=[["x1"]], B=["x1"]), "gluing block `A` names unknown element ['x1']"),
        (["realize", "--D="], PLAIN, "--D names unknown element ''"),
        (["realize", "--D=--"], PLAIN, "--D needs a value"),
        (["realize", "--V=--"], PLAIN, "--V needs a value"),
        (["indec", "--budget=--"], _fig2_document(lambda c: None), "--budget needs a value"),
    ],
    ids=[
        "negative-dim", "unknown-dims-key", "non-string-elements", "covers-object", "edges-differ",
        "empty-glue-side", "unhashable-gluing-name", "empty-realize-subset", "dashes-subset",
        "dashes-coordinates", "dashes-budget",
    ],
)
def test_inputs_found_by_the_exit_code_fuzz_are_input_errors(argv, text, message):
    code, out, err = invoke(argv, text)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in err


def test_cover_keys_with_arrows_in_names_round_trip():
    # The key of the cover a->b < c is "a->b->c": it splits at two places,
    # and only one of them names two elements.
    doc = {
        "field": 2,
        "posets": {"P": {"elements": ["a->b", "c"], "covers": [["a->b", "c"]]}},
        "chain_functors": {
            "X": {
                "poset": "P",
                "top": 1,
                "dims": {"a->b": [1, 1], "c": [1, 1]},
                "boundaries": {"a->b": [[[1]]], "c": [[[1]]]},
                "maps": {"a->b->c": [[[1]], [[1]]]},
            }
        },
    }
    code, rep, err = invoke(["replace"], json.dumps(doc))
    assert code == 0, err
    assert set(json.loads(rep)["chain_functors"]["replacement"]["maps"]) == {"a->b->c"}
    code, out, err = invoke(["decompose", "--machine"], rep)
    assert code == 0, err
    assert json.loads(out)["summands"] == [
        {"degree": 1, "generators": [{"element": "a->b", "multiplicity": 1}], "kind": "disk"}
    ]


def test_covers_with_one_key_are_an_input_error():
    # a < ->b and a-> < b both have the key "a->->b".
    doc = {
        "field": 2,
        "posets": {"P": {"elements": ["a", "a->", "b", "->b"], "covers": [["a", "->b"], ["a->", "b"]]}},
        "chain_functors": {"X": {"poset": "P", "dims": {"a": [1], "a->": [1], "b": [1], "->b": [1]}}},
    }
    code, out, err = invoke(["replace"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert "covers ('a', '->b') and ('a->', 'b') have the same key 'a->->b'" in err


# A document with two posets, a functor and a chain functor, and a gluing
# block whose `A` is a string.
MIXED = {
    "field": 2,
    "posets": {"P": {"elements": ["a", "b"], "covers": [["a", "b"]]}, "Q": {"elements": ["x"], "covers": []}},
    "functors": {"F": {"poset": "P", "dims": {"a": 1, "b": 1}, "maps": {"a->b": [[1]]}}},
    "chain_functors": {"X": {"poset": "P", "top": 0, "dims": {"a": [0], "b": [1]}, "maps": {}}},
    "gluing": {"A": "a", "B": ["a", "b"]},
}


def test_batch_validate_reports_every_file(tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    one.write_text(PLAIN)
    two.write_text(json.dumps(MIXED))
    code, out, err = invoke(["validate", str(one), str(two)])
    assert (code, err) == (0, "")
    assert out == f"{one}: valid (0 chain functors)\n{two}: valid (1 chain functors)\n"
    code, out, err = invoke(["validate", "--machine", str(one), str(two)])
    assert (code, err) == (0, "")
    assert out == (
        f'{{"chain_functors":0,"file":"{one}","functors":0,"posets":1,"valid":true}}\n'
        f'{{"chain_functors":1,"checks[X]":0,"file":"{two}","functors":1,"posets":2,"valid":true}}\n'
    )


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["endring", "--object", "F"], 0, "object: F\ndim: 1\n", ""),
        (["endring", "--object", "X"], 0, "object: X\ndim: 1\n", ""),
        (["replace", "--object", "zz"], 2, "", "input error (ParseError): no chain functor named 'zz' in the document\n"),
        (
            ["realize", "--poset", "Q"],
            0,
            '{"field":2,"posets":{"Q_realized":{"covers":[],"elements":["x"],"realization":'
            '{"base_covers":[],"base_elements":["x"],"coordinates":[],"edges":[],"subset":["x"]}}}}\n',
            "",
        ),
        (["realize"], 2, "", "input error (ParseError): document holds several posets; use --poset\n"),
        (["glue"], 2, "", "input error (ParseError): gluing block `A` must list element names, got 'a'\n"),
    ],
    ids=["functor-by-name", "chain-by-name", "unknown-object", "poset-by-name", "several-posets", "string-side"],
)
def test_object_poset_and_gluing_selection(argv, code, out, err):
    assert invoke(argv, json.dumps(MIXED)) == (code, out, err)
