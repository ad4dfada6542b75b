"""Interchange documents: UTF-8 JSON with top-level keys `field`, `posets`,
`functors`, `chain_functors` (plus optional metadata such as `gluing`).

Matrices are arrays of rows of integers reduced mod p; a zero or empty
matrix may be written as null since its shape is determined by the
declared dims.  Rational coordinates are "num/den" strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .errors import ParseError
from .field import Mat, _check_modulus
from .posets import Edge, FinPoset, RealizedPoset, realize
from .functors import VectFunctor
from .chains import ChainFunctor

__all__ = ["Document", "parse_document", "dumps_document", "build_document"]


def _mat_to_json(m: Mat):
    if m.rows == 0 or m.cols == 0 or m.is_zero():
        return None
    return m.tolist()


def _mat_from_json(val, rows: int, cols: int, p: int, where: str) -> Mat:
    """The matrix `where` names: null, or a list of rows of JSON integers."""
    if val is None:
        return Mat.zeros(rows, cols, p)
    if not isinstance(val, list) or not all(isinstance(row, list) for row in val):
        raise ParseError(f"{where} must be a list of rows, got {val!r}")
    for row in val:
        for v in row:
            _int(v, f"{where} entry")
    try:
        m = Mat(val, p)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: bad matrix literal: {exc}") from exc
    if m.shape != (rows, cols):
        raise ParseError(f"{where} has shape {m.shape}, expected {(rows, cols)}")
    return m


def _fraction_to_json(t: Fraction) -> str:
    return f"{t.numerator}/{t.denominator}"


def parse_fraction(s) -> Fraction:
    """A rational written "num/den", as in documents and CLI flags."""
    try:
        if isinstance(s, str):
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        raise ValueError("expected a \"num/den\" string")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {s!r}: {exc}") from exc


def poset_to_json(P: FinPoset) -> dict:
    out = {
        "elements": list(P.names),
        "covers": [[P.names[y], P.names[x]] for y, x in P.covers],
    }
    if isinstance(P, RealizedPoset):
        base = P.base
        out["realization"] = {
            "base_elements": list(base.names),
            "base_covers": [[base.names[y], base.names[x]] for y, x in base.covers],
            "subset": [base.names[q] for q in P.d_subset],
            "coordinates": [_fraction_to_json(v) for v in P.vset],
            "edges": [
                [z.top, z.bottom, _fraction_to_json(z.t)]
                for z in P.points
                if isinstance(z, Edge)
            ],
        }
    return out


def _strings(val, what: str) -> list[str]:
    """A JSON list of strings: element names or coordinates."""
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise ParseError(f"`{what}` must be a list of strings, got {val!r}")
    return val


def _pairs(val, what: str) -> list[tuple[str, str]]:
    """A JSON list of [lower, upper] name pairs."""
    if not isinstance(val, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(isinstance(v, str) for v in c) for c in val
    ):
        raise ParseError(f"`{what}` must be a list of [lower, upper] name pairs, got {val!r}")
    return [tuple(c) for c in val]


def _poset(elements: list[str], covers: list[tuple[str, str]]) -> FinPoset:
    try:
        return FinPoset.from_covers(elements, covers)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def poset_from_json(block: dict) -> FinPoset:
    if not isinstance(block, dict) or "elements" not in block or "covers" not in block:
        raise ParseError("poset block needs `elements` and `covers`")
    elements = _strings(block["elements"], "elements")
    listed = _pairs(block["covers"], "covers")
    real = block.get("realization")
    if real is None:
        return _poset(elements, listed)
    if not isinstance(real, dict) or "base_elements" not in real or "base_covers" not in real:
        raise ParseError("realization block needs `base_elements` and `base_covers`")
    base = _poset(_strings(real["base_elements"], "base_elements"), _pairs(real["base_covers"], "base_covers"))
    coords = [parse_fraction(s) for s in _strings(real.get("coordinates", []), "coordinates")]
    subset = real.get("subset")
    try:
        rp = realize(base, None if subset is None else _strings(subset, "subset"), coords)
    except KeyError as exc:
        raise ParseError(f"realization subset names unknown element {exc}") from exc
    if list(rp.names) != elements:
        raise ParseError("realization block does not reproduce the listed elements")
    listed_set = set(listed)
    actual = [(rp.names[y], rp.names[x]) for y, x in rp.covers]
    actual_set = set(actual)
    extra = [c for c in listed if c not in actual_set]
    if extra:
        raise ParseError(f"realization block lists cover {extra[0]}, which the realization does not have")
    missing = [c for c in actual if c not in listed_set]
    if missing:
        raise ParseError(f"realization block omits cover {missing[0]} of the realization")
    if "edges" in real and real["edges"] != poset_to_json(rp)["realization"]["edges"]:
        raise ParseError("realization block lists `edges` that differ from the realization's")
    return rp


def functor_to_json(F: VectFunctor, poset_name: str) -> dict:
    names = F.poset.names
    return {
        "poset": poset_name,
        "dims": {names[q]: F.dims[q] for q in range(F.poset.n)},
        "maps": {
            f"{names[y]}->{names[x]}": _mat_to_json(F.maps[(y, x)])
            for y, x in F.poset.covers
        },
    }


def _cover_from_key(P: FinPoset, key: str) -> tuple[int, int]:
    if "->" not in key:
        raise ParseError(f"bad cover key {key!r}")
    y, x = key.split("->", 1)
    try:
        pair = (P.index(y), P.index(x))
    except KeyError as exc:
        raise ParseError(f"cover key {key!r} mentions unknown element") from exc
    if pair not in set(P.covers):
        raise ParseError(f"{key!r} is not a cover relation")
    return pair


def _int(value, what: str, where: str = "") -> int:
    """A JSON integer: not a float, a boolean or a string."""
    if type(value) is not int:
        raise ParseError(f"{what} is not an integer: {value!r}{where}")
    return value


def _dim(value, what: str, where: str = "") -> int:
    d = _int(value, what, where)
    if d < 0:
        raise ParseError(f"{what} is negative: {d}{where}")
    return d


def _table(block: dict, key: str, required: bool = False) -> dict:
    """The object under `key`; an absent or null one is empty unless required."""
    val = block.get(key)
    if val is None and required:
        raise ParseError(f"missing `{key}`")
    val = {} if val is None else val
    if not isinstance(val, dict):
        raise ParseError(f"`{key}` must be an object, got {val!r}")
    return val


def _per_element(block: dict, key: str, P: FinPoset, required: bool = False) -> dict:
    """The object under `key`, keyed by element names of P."""
    val = _table(block, key, required)
    unknown = set(val) - set(P.names)
    if unknown:
        raise ParseError(f"`{key}` names unknown element {min(unknown)!r}")
    return val


def _list(val, length: int, what: str) -> list:
    if not isinstance(val, list) or len(val) != length:
        raise ParseError(f"{what} must be a list of {length}, got {val!r}")
    return val


def functor_from_json(block: dict, P: FinPoset, p: int) -> VectFunctor:
    given = _per_element(block, "dims", P, required=True)
    dims = [_dim(given.get(name, 0), f"dim at {name!r}") for name in P.names]
    maps = {}
    for key, val in _table(block, "maps").items():
        y, x = _cover_from_key(P, key)
        maps[(y, x)] = _mat_from_json(val, dims[x], dims[y], p, f"map {key!r}")
    return VectFunctor(P, dims, maps, p)


def chain_to_json(X: ChainFunctor, poset_name: str) -> dict:
    names = X.poset.names
    return {
        "poset": poset_name,
        "top": X.top,
        "dims": {names[q]: list(X.dims[q]) for q in range(X.poset.n)},
        "boundaries": {
            names[q]: [_mat_to_json(b.comps[q]) for b in X.d]
            for q in range(X.poset.n)
        },
        "maps": {
            f"{names[y]}->{names[x]}": [_mat_to_json(F.maps[(y, x)]) for F in X.layers]
            for y, x in X.poset.covers
        },
    }


def chain_from_json(block: dict, P: FinPoset, p: int) -> ChainFunctor:
    top = _dim(block.get("top", 0), "`top`")
    given_dims = _per_element(block, "dims", P, required=True)
    dims = []
    for name in P.names:
        row = _list(given_dims.get(name, [0] * (top + 1)), top + 1, f"dims at {name!r} (degrees 0..{top})")
        dims.append([_dim(d, f"dim at {name!r}", f" in degree {n}") for n, d in enumerate(row)])
    given_bdy = _per_element(block, "boundaries", P)
    bdy = []
    for q, name in enumerate(P.names):
        given = _list(given_bdy.get(name, [None] * top), top, f"boundaries at {name!r} (degrees 1..{top})")
        bdy.append(
            [
                _mat_from_json(given[k], dims[q][k], dims[q][k + 1], p, f"boundary at {name!r} degree {k + 1}")
                for k in range(top)
            ]
        )
    maps = {}
    for key, val in _table(block, "maps").items():
        y, x = _cover_from_key(P, key)
        _list(val, top + 1, f"cover maps for {key!r} (degrees 0..{top})")
        maps[(y, x)] = [
            _mat_from_json(val[n], dims[x][n], dims[y][n], p, f"cover map {key!r} degree {n}")
            for n in range(top + 1)
        ]
    return ChainFunctor.from_arrays(P, dims, bdy, maps, p)


@dataclass
class Document:
    field: int
    posets: dict[str, FinPoset] = dc_field(default_factory=dict)
    functors: dict[str, tuple[VectFunctor, str]] = dc_field(default_factory=dict)
    chains: dict[str, tuple[ChainFunctor, str]] = dc_field(default_factory=dict)
    gluing: Optional[dict] = None

    def only_functor(self, name: Optional[str]) -> tuple[str, VectFunctor]:
        return _pick("functor", self.functors, name)

    def only_chain(self, name: Optional[str]) -> tuple[str, ChainFunctor]:
        return _pick("chain functor", self.chains, name)

    def only_poset(self, name: Optional[str]) -> tuple[str, FinPoset]:
        if name is not None:
            if name not in self.posets:
                raise ParseError(f"no poset named {name!r} in the document")
            return name, self.posets[name]
        if len(self.posets) != 1:
            raise ParseError("document holds several posets; use --poset")
        ((n, P),) = self.posets.items()
        return n, P


def _pick(kind: str, table: dict, name: Optional[str]):
    if name is not None:
        if name not in table:
            raise ParseError(f"no {kind} named {name!r} in the document")
        return name, table[name][0]
    if len(table) != 1:
        raise ParseError(f"document holds {len(table)} {kind}s; pass a name")
    ((n, (obj, _)),) = table.items()
    return n, obj


def parse_document(text: str) -> Document:
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal over Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "field" not in raw:
        raise ParseError("document must be an object with a `field` key")
    field = raw["field"]
    try:
        p = _check_modulus(_int(field, "the field modulus"))
    except (ParseError, ValueError) as exc:
        raise ParseError(f"bad field {field!r}: {exc}") from exc
    doc = Document(field=p)
    for name, block in _table(raw, "posets").items():
        try:
            doc.posets[name] = poset_from_json(block)
        except ParseError as exc:
            raise ParseError(f"poset {name!r}: {exc}") from exc
    for key, kind, table, build in (
        ("functors", "functor", doc.functors, functor_from_json),
        ("chain_functors", "chain functor", doc.chains, chain_from_json),
    ):
        for name, block in _table(raw, key).items():
            if not isinstance(block, dict):
                raise ParseError(f"{kind} {name!r} must be an object, got {block!r}")
            pname = block.get("poset")
            if not isinstance(pname, str) or pname not in doc.posets:
                raise ParseError(f"{kind} {name!r} references unknown poset {pname!r}")
            try:
                table[name] = (build(block, doc.posets[pname], p), pname)
            except ParseError as exc:
                raise ParseError(f"{kind} {name!r}: {exc}") from exc
    doc.gluing = raw.get("gluing")
    return doc


def build_document(
    p: int,
    posets: dict[str, FinPoset],
    functors: Optional[dict[str, tuple[VectFunctor, str]]] = None,
    chains: Optional[dict[str, tuple[ChainFunctor, str]]] = None,
    gluing: Optional[dict] = None,
) -> dict:
    out: dict = {"field": p, "posets": {n: poset_to_json(P) for n, P in posets.items()}}
    if functors:
        out["functors"] = {n: functor_to_json(F, pn) for n, (F, pn) in functors.items()}
    if chains:
        out["chain_functors"] = {n: chain_to_json(X, pn) for n, (X, pn) in chains.items()}
    if gluing:
        out["gluing"] = gluing
    return out


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
