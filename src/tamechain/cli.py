"""Command-line front end.

Commands that produce objects (`example`, `replace`, `realize`) print an
interchange document on stdout so they compose under pipes; analysis
commands print a text report, or one JSON document with `--machine`.
`validate` accepts several files and emits one report per file once all
of them have passed.  The default modulus for
`example` comes from TAMECHAIN_FIELD when set.
Exit codes: 0 success, 1 mathematical failure, 2 input failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InputError, MathError, ParseError, TooLargeError
from .field import _check_modulus
from .posets import Edge, FinPoset, RealizedPoset, Vertex, point_name, realize, transfer_point
from .functors import is_projective, minimal_cover, minimal_resolution
from .chains import (
    ChainFunctor,
    chain_projective_resolution,
    cofibrant_replacement,
    homology_functor,
    minimal_projective_cover_ch,
    structure_decompose,
)
from .morphisms import EndRing, end_ring, gluing_check, indecomposable
from .examples import ChainPair, GluingStage, builtin_example
from .interchange import (
    Document,
    build_document,
    dumps_document,
    parse_document,
    parse_fraction,
)

__all__ = ["main", "run"]


def _read_text(path: str) -> str:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        # Python's UTF-8 mode reads stdin bytes that are not UTF-8 as lone surrogates.
        return text.encode("utf-8", "surrogateescape").decode("utf-8")
    except (OSError, UnicodeError) as exc:
        raise ParseError(f"cannot read {'stdin' if path == '-' else repr(path)}: {exc}") from exc


def _read_doc(path: str) -> Document:
    """The document in `path`; its input errors name the file (not stdin)."""
    text = _read_text(path)  # an unreadable file is named by its error
    try:
        return parse_document(text)
    except InputError as exc:
        if path == "-":
            raise
        raise type(exc)(f"{path}: {exc}") from exc


def _element(P: FinPoset, name: str, flag: str) -> int:
    try:
        return P.index(name)
    except (KeyError, TypeError):
        raise ParseError(f"{flag} names unknown element {name!r}") from None


def _emit_report(args, report: dict) -> None:
    if args.machine:
        sys.stdout.write(dumps_document(report))
        return
    for key, value in report.items():
        sys.stdout.write(f"{key}: {value}\n")


def _gens_json(poset: FinPoset, gens) -> list[dict]:
    return [{"element": poset.names[z], "multiplicity": d} for z, d in gens]


def _pick_object(doc: Document, name: Optional[str]):
    """Resolve --object against chain functors first, then functors."""
    if name is not None and name in doc.functors and name not in doc.chains:
        return doc.only_functor(name)
    if doc.chains or name in doc.chains:
        return doc.only_chain(name)
    return doc.only_functor(name)


def _validate_one(doc: Document) -> dict:
    checks = {"posets": len(doc.posets), "functors": len(doc.functors), "chain_functors": len(doc.chains)}
    for name, (X, _) in doc.chains.items():
        # One d.d = 0 check per element and degree 2..top, one square per cover and degree 1..top.
        checks[f"checks[{name}]"] = X.poset.n * max(0, X.top - 1) + len(X.poset.covers) * X.top
    return {"valid": True, **checks}


def cmd_validate(args) -> int:
    files = [args.file] + list(args.files)
    results = [_validate_one(_read_doc(path)) for path in files]
    if len(files) == 1:
        _emit_report(args, results[0])
        return 0
    for path, report in zip(files, results):
        if args.machine:
            sys.stdout.write(dumps_document({"file": path, **report}))
        else:
            sys.stdout.write(f"{path}: valid ({report['chain_functors']} chain functors)\n")
    return 0


def cmd_info(args) -> int:
    doc = _read_doc(args.file)
    report: dict = {"field": doc.field}
    for name, P in doc.posets.items():
        report[f"poset[{name}].elements"] = len(P.names)
        report[f"poset[{name}].dimension"] = P.dimension().name
    for name, (F, _) in doc.functors.items():
        report[f"functor[{name}].dims"] = {F.poset.names[q]: F.dims[q] for q in range(F.poset.n)}
    for name, (X, _) in doc.chains.items():
        report[f"chain[{name}].top"] = X.top
        report[f"chain[{name}].dims"] = {X.poset.names[q]: list(X.dims[q]) for q in range(X.poset.n)}
        for n in range(X.top + 1):
            H = homology_functor(X, n)
            report[f"chain[{name}].H{n}"] = {X.poset.names[q]: H.dims[q] for q in range(X.poset.n)}
    _emit_report(args, report)
    return 0


def cmd_cover(args) -> int:
    name, obj = _pick_object(_read_doc(args.file), args.object)
    if isinstance(obj, ChainFunctor):
        cov = minimal_projective_cover_ch(obj)
        report = {
            "object": name,
            "kind": "chain",
            "layers": [
                {"degree": n, "generators": _gens_json(obj.poset, gens)}
                for n, gens in enumerate(cov.layer_generators)
            ],
        }
    else:
        cov = minimal_cover(obj)
        report = {
            "object": name,
            "kind": "functor",
            "generators": _gens_json(obj.poset, cov.generators),
            "iso": is_projective(obj) is not None,
        }
    _emit_report(args, report)
    return 0


def cmd_resolve(args) -> int:
    name, obj = _pick_object(_read_doc(args.file), args.object)
    if isinstance(obj, ChainFunctor):
        layers, pd = chain_projective_resolution(obj)
        report = {
            "object": name,
            "kind": "chain",
            "projective_dimension": pd,
            "layers": [
                {
                    "step": i,
                    "cover_dims": {obj.poset.names[q]: list(cov.P.trimmed().dims[q]) for q in range(obj.poset.n)},
                }
                for i, cov in enumerate(layers)
            ],
        }
    else:
        res = minimal_resolution(obj)
        report = {
            "object": name,
            "kind": "functor",
            "length": res.length,
            "p0_generators": _gens_json(obj.poset, res.gens0),
            "p1_generators": _gens_json(obj.poset, res.gens1),
            "d": {
                obj.poset.names[q]: res.d.comps[q].tolist()
                for q in range(obj.poset.n)
                if res.d.comps[q].rows and res.d.comps[q].cols
            },
        }
    _emit_report(args, report)
    return 0


def cmd_replace(args) -> int:
    doc = _read_doc(args.file)
    name, X = doc.only_chain(args.object)
    fact = cofibrant_replacement(X)
    pname = doc.chains[name][1]
    out = build_document(doc.field, {pname: doc.posets[pname]}, chains={"replacement": (fact.C, pname)})
    # A returned factorization makes pi a weak equivalence and a fibration:
    # the staircase raises KernelNotProjectiveError when it does not close.
    out["report"] = {"source": name, "weak_equivalence": True, "fibration": True}
    sys.stdout.write(dumps_document(out))
    return 0


def cmd_decompose(args) -> int:
    doc = _read_doc(args.file)
    name, X = doc.only_chain(args.object)
    dec = structure_decompose(X)
    summands = []
    for label in dec.summands:
        entry = {
            "kind": label.kind,
            "degree": label.degree,
            "generators": _gens_json(X.poset, label.gens0),
        }
        if label.kind == "sphere" and label.gens1:
            entry["relation_generators"] = _gens_json(X.poset, label.gens1)
            entry["resolution_matrix"] = {
                X.poset.names[q]: m.tolist()
                for q, m in enumerate(label.complex.boundary(label.degree + 1).comps)
                if m.cols
            }
        summands.append(entry)
    _emit_report(args, {"object": name, "summands": summands, "count": len(summands)})
    return 0


def _end_ring_json(name: Optional[str], ring: EndRing) -> str:
    """The `--machine` report of `endring`: the bytes of `json.dumps` with
    sorted keys and no spaces of {"object", "dim", "basis"}, where each
    basis vector maps every element name to its components per degree as
    nested lists.  One byte template (the names JSON-escaped, so with no
    control bytes, and W NUL cells per entry in printing order, W the
    digits of the largest entry) is repeated once per vector; each place's
    digits take one division by 10, and one mask drops leading zeros."""
    largest = ring.columns.arr.max(initial=0)
    width = len(str(largest))
    names = ring.obj.poset.names
    parts, perm = [], []
    for q in sorted(range(len(names)), key=names.__getitem__):
        blocks = []
        for o, r, c in ring.blocks[q]:
            blocks.append("[" + ",".join(["[" + ",".join(["\0" * width] * c) + "]"] * r) + "]")
            perm.extend(range(o, o + r * c))
        parts.append(json.dumps(names[q]) + ":[" + ",".join(blocks) + "]")
    template = np.frombuffer(("{" + ",".join(parts) + "},").encode(), dtype=np.uint8)
    cells = np.flatnonzero(template == 0).reshape(-1, width)
    rows = np.tile(template, (ring.dim, 1))
    keep = np.ones(rows.shape, dtype=bool)
    vals = ring.columns.arr.astype(np.min_scalar_type(largest))[perm].T
    for place, at in enumerate(cells.T[::-1]):
        tens = vals // 10
        rows[:, at] = vals - 10 * tens + 48
        if place:
            keep[:, at] = vals > 0
        vals = tens
    basis = rows[keep].tobytes().decode()[:-1]
    return '{"basis":[%s],"dim":%d,"object":%s}' % (basis, ring.dim, json.dumps(name))


def _named_hom_error(name: Optional[str], exc: TooLargeError) -> TooLargeError:
    return TooLargeError(f"Hom({name!r}, {name!r}): {exc}")


def cmd_endring(args) -> int:
    doc = _read_doc(args.file)
    name, obj = _pick_object(doc, args.object)
    try:
        ring = end_ring(obj)
    except TooLargeError as exc:
        raise _named_hom_error(name, exc) from None
    if args.machine:
        sys.stdout.write(_end_ring_json(name, ring) + "\n")
    else:
        _emit_report(args, {"object": name, "dim": ring.dim})
    return 0


def cmd_indec(args) -> int:
    doc = _read_doc(args.file)
    if args.budget is not None and args.budget < 0:
        raise InputError(f"--budget must be non-negative, got {args.budget}")
    name, obj = _pick_object(doc, args.object)
    try:
        res = indecomposable(obj, budget=args.budget)
    except TooLargeError as exc:
        raise _named_hom_error(name, exc) from None
    verdict = "indecomposable" if res.indecomposable else "decomposable"
    _emit_report(
        args,
        {
            "object": name,
            "verdict": verdict,
            "certainty": "certain",
            "end_dim": res.end_dim,
            "trials": res.trials,
        },
    )
    return 0


def cmd_glue(args) -> int:
    doc = _read_doc(args.file)
    block = doc.gluing if isinstance(doc.gluing, dict) else {}
    sides = []
    for key, arg in (("A", args.A), ("B", args.B)):
        names, flag = (arg.split(","), f"--{key}") if arg is not None else (block.get(key), f"gluing block `{key}`")
        if not names:
            raise ParseError("glue requires --A and --B (or a gluing block in the document)")
        if not isinstance(names, list):
            raise ParseError(f"{flag} must list element names, got {names!r}")
        sides.append((names, flag))
    name, obj = _pick_object(doc, args.object)
    for names, flag in sides:
        for n in names:
            _element(obj.poset, n, flag)
    rep = gluing_check(obj, sides[0][0], sides[1][0])
    _emit_report(
        args,
        {
            "object": name,
            "crit_hom_zero": rep.crit_hom_zero,
            "crit_rad_iso": rep.crit_rad_iso,
            "crit_kernel_nilpotent": rep.crit_kernel_nilpotent,
            "crit_restriction_injective": rep.crit_restriction_injective,
            "hom_coker_dim": rep.hom_coker_dim,
            "kan_nonzero_degrees": list(rep.kan_nonzero_degrees),
        },
    )
    return 0


def cmd_realize(args) -> int:
    doc = _read_doc(args.file)
    name, P = doc.only_poset(args.poset)
    if isinstance(P, RealizedPoset):
        raise ParseError("poset is already a realization")
    coords = [parse_fraction(tok) for tok in args.V.split(",")] if args.V else []
    subset = args.D.split(",") if args.D is not None else None
    for n in subset or ():
        _element(P, n, "--D")
    try:
        rp = realize(P, subset, coords)
    except TooLargeError as exc:
        raise TooLargeError(f"--V: {exc}") from exc
    out = build_document(doc.field, {f"{name}_realized": rp})
    sys.stdout.write(dumps_document(out))
    return 0


def _parse_point(text: str, base: FinPoset):
    """A point of the realization of `base`, written vertex:q or edge:x,y,num/den."""
    kind, _, rest = text.partition(":")
    fields = rest.split(",")
    if (kind, len(fields)) not in (("vertex", 1), ("edge", 3)):
        raise ParseError(f"bad point {text!r}; use vertex:q or edge:x,y,num/den")
    for name in fields[:2]:
        _element(base, name, f"point {text!r}")
    if kind == "vertex":
        return Vertex(fields[0])
    return Edge(fields[0], fields[1], parse_fraction(fields[2]))


def cmd_transfer(args) -> int:
    doc = _read_doc(args.file)
    name, P = doc.only_poset(args.poset)
    if isinstance(P, RealizedPoset):
        point = _parse_point(args.point, P.base)
        try:
            result = P.transfer(point)
        except ValueError as exc:
            raise ParseError(f"bad point {args.point!r}: {exc}") from exc
        _emit_report(args, {"poset": name, "point": args.point, "transfer": "bottom" if result is None else point_name(result)})
        return 0
    if not args.sub:
        raise ParseError("transfer on a plain poset needs --sub")
    sub = [_element(P, n, "--sub") for n in args.sub.split(",")]
    z = _element(P, args.point, "--point")
    result = transfer_point(P, sub, z)
    _emit_report(args, {"poset": name, "point": args.point, "transfer": "bottom" if result is None else P.names[result]})
    return 0


def _example_field(args) -> int:
    """The modulus for `example`: --field, else TAMECHAIN_FIELD, else 2."""
    text = os.environ.get("TAMECHAIN_FIELD", "2") if args.field is None else args.field
    try:
        return _check_modulus(int(text))
    except ValueError as exc:
        raise InputError(f"bad field modulus {text!r}: {exc}") from exc


def cmd_example(args) -> int:
    p = _example_field(args)
    obj = builtin_example(args.name, p)
    gluing = None
    if isinstance(obj, GluingStage):
        chains, gluing = {"X": obj.functor}, {"A": list(obj.a_names), "B": list(obj.b_names)}
    elif isinstance(obj, ChainPair):
        chains = {"left": obj.left, "right": obj.right}
    else:
        chains = {args.name: obj}
    poset = next(iter(chains.values())).poset
    out = build_document(p, {"P": poset}, chains={n: (X, "P") for n, X in chains.items()}, gluing=gluing)
    sys.stdout.write(dumps_document(out))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tamechain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, text, pick="object"):
        """A subcommand that reads a document; --`pick` selects one of its objects."""
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(fn=fn)
        sp.add_argument("file", nargs="?", default="-", help="interchange document (default: stdin)")
        sp.add_argument("--machine", action="store_true", help="emit a JSON report")
        if pick:
            sp.add_argument(f"--{pick}", default=None)
        return sp

    sp = add("validate", cmd_validate, "check structural invariants", None)
    sp.add_argument("files", nargs="*", help="additional documents for batch mode")
    add("info", cmd_info, "dimensions, poset class, homology table", None)
    add("cover", cmd_cover, "minimal projective cover generators")
    add("resolve", cmd_resolve, "minimal projective resolution")
    add("replace", cmd_replace, "minimal cofibrant replacement (emits a document)")
    add("decompose", cmd_decompose, "sphere/disk summand labels")
    add("endring", cmd_endring, "endomorphism ring dimension and basis")
    sp = add("indec", cmd_indec, "indecomposability certificate")
    sp.add_argument("--strategy", choices=["exhaustive"], default="exhaustive")
    sp.add_argument("--budget", type=int, default=None)
    sp = add("glue", cmd_glue, "gluing criteria for D = A u B")
    sp.add_argument("--A", default=None, help="comma-separated element names")
    sp.add_argument("--B", default=None, help="comma-separated element names")
    sp = add("realize", cmd_realize, "realize a poset (emits a document)", "poset")
    sp.add_argument("--V", default="", help="comma-separated coordinates, e.g. -1/2,-3/4")
    sp.add_argument("--D", default=None, help="comma-separated closed subset (default: all)")
    sp = add("transfer", cmd_transfer, "transfer of a point into a subposet", "poset")
    sp.add_argument("--point", required=True)
    sp.add_argument("--sub", default=None, help="subposet element names (plain posets)")

    sp = sub.add_parser("example", help="emit a builtin object as a document")
    sp.set_defaults(fn=cmd_example)
    sp.add_argument("name")
    sp.add_argument("--field", type=int, default=None, help="prime modulus (default: TAMECHAIN_FIELD, else 2)")
    sp.add_argument("--machine", action="store_true")
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse reads the value of `--flag=--` as an empty list.
        empty = [key for key, val in vars(args).items() if val == [] and key != "files"]
        if empty:
            raise InputError(f"--{empty[0]} needs a value")
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"input error ({type(exc).__name__}): {exc}\n")
        return 2
    except MathError as exc:
        sys.stderr.write(f"mathematical error ({type(exc).__name__}): {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
