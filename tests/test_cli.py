import io
import json
import random
import sys
from fractions import Fraction

import pytest

from tamechain.cli import run
from tamechain.interchange import build_document, dumps_document, parse_document
from tamechain.examples import builtin_example
from tamechain.posets import FinPoset, realize
from tamechain.functors import free_functor
from tamechain.morphisms import hom_space

from conftest import random_chain, random_poset


def invoke(argv, stdin_text=""):
    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        code = run(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err


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
    F = free_functor(rp, rp.index("p"), 2, 5)
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


def test_interchange_round_trip_chain():
    X = builtin_example("fig2", 2)
    doc = build_document(2, {"P": X.poset}, chains={"X": (X, "P")})
    text = dumps_document(doc)
    back = parse_document(text)
    X2 = back.chains["X"][0]
    assert X2.dims == X.dims
    assert [b.comps for b in X2.d] == [b.comps for b in X.d]
    assert [F.maps for F in X2.layers] == [F.maps for F in X.layers]


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
