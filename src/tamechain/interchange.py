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

from .errors import InputError, NameCollisionError, ParseError, TooLargeError, ValidationError
from .field import Mat, _check_modulus
from .posets import FinPoset, RealizedPoset, realize
from .functors import NatMap, VectFunctor
from .chains import ChainFunctor

__all__ = ["Document", "parse_document", "dumps_document", "build_document", "chain_from_json", "MAX_DECLARED_CELLS"]

# A functor or chain functor whose declared dims imply more matrix cells
# than this is an input error, raised before any matrix is built.  The
# implied matrices are the identity at every element and degree, every
# boundary and every cover map, and each counts at least one cell, so the
# bound also caps the number of degrees.  At the bound, on 2 CPUs, `cover`
# on one element of dim 1,000 takes 0.65 s and 64 MB, and `validate` on a
# point with top 499,999 (a million matrices, all empty) 9.9 s and 336 MB.
# `disk(100000)` implies 200,001 matrices.
MAX_DECLARED_CELLS = 1_000_000


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
        names = P.base.names
        coords = [_fraction_to_json(v) for v in P.vset]
        # The edge points, in point order, from their integer ends: a
        # vertex has the rank len(coords).
        ends = zip(*P._ends.tolist())
        out["realization"] = {
            "base_elements": list(names),
            "base_covers": [[names[y], names[x]] for y, x in P.base.covers],
            "subset": [names[q] for q in P.d_subset],
            "coordinates": coords,
            "edges": [[names[t], names[b], coords[r]] for t, b, r in ends if r < len(coords)],
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
    except (TooLargeError, NameCollisionError) as exc:
        raise ParseError(f"realization block: {exc}") from exc
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


def _cover_keys(P: FinPoset) -> dict[str, tuple[int, int]]:
    """The covers of P by their keys "lower->upper", in cover order.  Names
    may contain `->`, and two covers with one key are a ParseError."""
    keys: dict[str, tuple[int, int]] = {}
    for y, x in P.covers:
        key = f"{P.names[y]}->{P.names[x]}"
        b, a = keys.setdefault(key, (y, x))
        if (b, a) != (y, x):
            pairs = [(P.names[b], P.names[a]), (P.names[y], P.names[x])]
            raise ParseError(f"covers {pairs[0]} and {pairs[1]} have the same key {key!r}")
    return keys


def _cover_from_key(P: FinPoset, keys: dict[str, tuple[int, int]], key: str) -> tuple[int, int]:
    """The cover that `key` names in `keys`, the table `_cover_keys(P)`."""
    if key in keys:
        return keys[key]
    splits = [(key[:i], key[i + 2:]) for i in range(len(key)) if key.startswith("->", i)]
    if not splits:
        raise ParseError(f"bad cover key {key!r}")
    if not any(y in P._index and x in P._index for y, x in splits):
        raise ParseError(f"cover key {key!r} mentions unknown element")
    raise ParseError(f"{key!r} is not a cover relation")


def functor_to_json(F: VectFunctor, poset_name: str) -> dict:
    names = F.poset.names
    return {
        "poset": poset_name,
        "dims": {names[q]: F.dims[q] for q in range(F.poset.n)},
        "maps": {key: _mat_to_json(F.maps[c]) for key, c in _cover_keys(F.poset).items()},
    }


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


def _check_declared_size(P: FinPoset, dims: list[list[int]], chain: bool) -> None:
    """TooLargeError when dims[q][n], over the elements q and degrees n,
    imply more than MAX_DECLARED_CELLS cells; the message names the key
    whose matrix crosses the bound."""
    names, total = P.names, 0

    def add(key: str, n: int, what: str, rows: int, cols: int) -> None:
        nonlocal total
        total += max(1, rows * cols)
        if total > MAX_DECLARED_CELLS:
            at = f" in degree {n}" if chain else ""
            raise TooLargeError(
                f"{key}{at} implies a {rows:,} x {cols:,} {what}, which brings the cells implied by "
                f"the dims to {total:,}, above the bound {MAX_DECLARED_CELLS:,}"
            )

    for name, row in zip(names, dims):
        for n, d in enumerate(row):
            add(f"the dim at {name!r}", n, "identity", d, d)
            if n:
                add(f"the dim at {name!r}", n, "boundary", row[n - 1], d)
    for y, x in P.covers:
        for n, (dy, dx) in enumerate(zip(dims[y], dims[x])):
            add(f"the cover '{names[y]}->{names[x]}'", n, "map", dx, dy)


def functor_from_json(block: dict, P: FinPoset, p: int) -> VectFunctor:
    given = _per_element(block, "dims", P, required=True)
    dims = [_dim(given.get(name, 0), f"dim at {name!r}") for name in P.names]
    _check_declared_size(P, [[d] for d in dims], chain=False)
    maps, keys = {}, _cover_keys(P)
    for key, val in _table(block, "maps").items():
        y, x = _cover_from_key(P, keys, key)
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
        "maps": {key: [_mat_to_json(F.maps[c]) for F in X.layers] for key, c in _cover_keys(X.poset).items()},
    }


def chain_from_json(block: dict, P: FinPoset, p: int) -> ChainFunctor:
    """The chain functor on P that a `chain_functors` block describes:
    one functor per degree and one boundary per degree 1..top, built by
    the checking constructors from the checked rows.  Their errors name
    the degree, and the element or cover."""
    top = _dim(block.get("top", 0), "`top`")
    # Each implied matrix counts at least one cell: bound them before
    # forming a row of dims per element.
    matrices = P.n * (2 * top + 1) + len(P.covers) * (top + 1)
    if matrices > MAX_DECLARED_CELLS:
        raise TooLargeError(f"`top` {top:,} implies {matrices:,} matrices, above the bound {MAX_DECLARED_CELLS:,} on their cells")
    given_dims = _per_element(block, "dims", P, required=True)
    dims = []
    for name in P.names:
        row = _list(given_dims.get(name, [0] * (top + 1)), top + 1, f"dims at {name!r} (degrees 0..{top})")
        dims.append([_dim(d, f"dim at {name!r}", f" in degree {n}") for n, d in enumerate(row)])
    _check_declared_size(P, dims, chain=True)
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
    maps: list[dict[tuple[int, int], Mat]] = [{} for _ in range(top + 1)]
    keys = _cover_keys(P)
    for key, val in _table(block, "maps").items():
        y, x = _cover_from_key(P, keys, key)
        _list(val, top + 1, f"cover maps for {key!r} (degrees 0..{top})")
        for n in range(top + 1):
            maps[n][(y, x)] = _mat_from_json(val[n], dims[x][n], dims[y][n], p, f"cover map {key!r} degree {n}")
    layers, d = [], []
    try:
        for n in range(top + 1):
            layers.append(VectFunctor(P, [row[n] for row in dims], maps[n], p))
    except ValidationError as exc:
        raise ValidationError(f"degree {n}: {exc}") from None
    try:
        for n in range(1, top + 1):
            d.append(NatMap(layers[n], layers[n - 1], tuple(row[n - 1] for row in bdy)))
    except ValidationError as exc:
        raise ValidationError(f"boundary from degree {n}: {exc}") from None
    return ChainFunctor(layers, d)


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
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
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
            except InputError as exc:
                raise type(exc)(f"{kind} {name!r}: {exc}") from exc
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
