"""Output checks.  Each reads the program's output as plain JSON (or, for
library calls, the raw numpy arrays of the returned objects) and decides it
with `fp`, the benchmark's own F_p routines, against a planted answer or a
property the method must have.  A check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

from fp import as_array, rank


class ChainDoc:
    """A chain functor read from an interchange document with plain json."""

    def __init__(self, doc: dict, name: str | None = None):
        self.p = int(doc["field"])
        chains = doc["chain_functors"]
        name = name or next(iter(chains))
        block = chains[name]
        pblock = doc["posets"][block["poset"]]
        self.names = list(pblock["elements"])
        idx = {n: i for i, n in enumerate(self.names)}
        self.covers = [(idx[y], idx[x]) for y, x in pblock["covers"]]
        self.top = int(block.get("top", 0))
        self.dims = [[int(d) for d in block["dims"][n]] for n in self.names]
        p, T = self.p, self.top
        self.bdy = [
            [as_array(block["boundaries"][n][k], (self.dims[q][k], self.dims[q][k + 1]), p) for k in range(T)]
            for q, n in enumerate(self.names)
        ]
        self.maps = {}
        for (y, x) in self.covers:
            lits = block["maps"].get(f"{self.names[y]}->{self.names[x]}", [None] * (T + 1))
            self.maps[(y, x)] = [as_array(lits[n], (self.dims[x][n], self.dims[y][n]), p) for n in range(T + 1)]
        n = len(self.names)
        leq = np.eye(n, dtype=bool)
        for y, x in self.covers:
            leq[y, x] = True
        for k in range(n):
            leq |= np.outer(leq[:, k], leq[k, :])
        self.leq = leq

    def dim(self, q: int, n: int) -> int:
        return self.dims[q][n] if 0 <= n <= self.top else 0

    def d(self, q: int, n: int) -> np.ndarray:
        """Boundary from degree n to degree n-1 at q (zero outside 1..top)."""
        if 1 <= n <= self.top:
            return self.bdy[q][n - 1]
        return np.zeros((self.dim(q, n - 1), self.dim(q, n)), dtype=np.int64)

    def homology(self, q: int, n: int) -> int:
        return self.dim(q, n) - rank(self.d(q, n), self.p) - rank(self.d(q, n + 1), self.p)


def check_chain_structure(X: ChainDoc) -> list[str]:
    """Boundaries square to zero and every cover map is a chain map."""
    errs = []
    p = X.p
    for q, name in enumerate(X.names):
        for n in range(2, X.top + 1):
            if ((X.d(q, n - 1) @ X.d(q, n)) % p).any():
                errs.append(f"boundary squares to nonzero at {name}, degree {n}")
    for y, x in X.covers:
        for n in range(1, X.top + 1):
            if ((X.d(x, n) @ X.maps[(y, x)][n] - X.maps[(y, x)][n - 1] @ X.d(y, n)) % p).any():
                errs.append(f"cover {X.names[y]}->{X.names[x]} is not a chain map in degree {n}")
    return errs


def check_replacement(src: ChainDoc, rep: ChainDoc, report: dict) -> list[str]:
    """The replacement is degreewise projective (on a dimension <= 1 poset:
    the map out of the covered elements is injective at every element),
    has the input's homology, and the report claims a weak equivalence and
    a fibration."""
    errs = []
    if rep.names != src.names or sorted(rep.covers) != sorted(src.covers):
        errs.append("replacement lives on another poset")
        return errs
    if not (report.get("weak_equivalence") is True and report.get("fibration") is True):
        errs.append(f"report does not claim a weak equivalence and fibration: {report}")
    errs += check_chain_structure(rep)
    below = {x: [y for y, xx in rep.covers if xx == x] for x in range(len(rep.names))}
    for n in range(rep.top + 1):
        for x, ys in below.items():
            if not ys:
                continue
            A = np.hstack([rep.maps[(y, x)][n] for y in ys])
            if rank(A, rep.p) != A.shape[1]:
                errs.append(f"degree {n} not projective at {rep.names[x]}")
    for q in range(len(src.names)):
        for n in range(max(src.top, rep.top) + 2):
            if src.homology(q, n) != rep.homology(q, n):
                errs.append(f"H{n} differs at {src.names[q]}")
    return errs


def label_dims(doc: ChainDoc, summands: list[dict]) -> list[list[int]]:
    """Dims implied by decomposition labels: a sphere of degree m carries the
    free functor on its generators in degree m and on its relation
    generators in degree m+1; a disk of degree n carries one free functor
    in degrees n-1 and n.  A free functor on (z, d) has dim d at every q >= z."""
    idx = {n: i for i, n in enumerate(doc.names)}
    width = max([doc.top] + [s["degree"] + 1 for s in summands]) + 1
    dims = [[0] * width for _ in doc.names]

    def add(gens, n):
        for g in gens:
            z = idx[g["element"]]
            for q in range(len(doc.names)):
                if doc.leq[z, q]:
                    dims[q][n] += int(g["multiplicity"])

    for s in summands:
        if s["kind"] == "sphere":
            add(s["generators"], s["degree"])
            add(s.get("relation_generators", []), s["degree"] + 1)
        else:
            add(s["generators"], s["degree"] - 1)
            add(s["generators"], s["degree"])
    return dims


def check_decomposition(doc: ChainDoc, report: dict, planted: dict | None = None) -> list[str]:
    errs = []
    summands = report["summands"]
    if report.get("count") != len(summands):
        errs.append("summand count disagrees with the list")
    got = label_dims(doc, summands)
    for q, name in enumerate(doc.names):
        want = [doc.dim(q, n) for n in range(len(got[q]))]
        if got[q] != want:
            errs.append(f"label dims {got[q]} != object dims {want} at {name}")
    if planted is not None:
        labels = {}
        for s in summands:
            key = (s["kind"], s["degree"])
            if key in labels:
                errs.append(f"two summands labelled {key}")
            labels[key] = (
                {g["element"]: g["multiplicity"] for g in s["generators"]},
                {g["element"]: g["multiplicity"] for g in s.get("relation_generators", [])},
            )
        if labels != planted:
            errs.append(f"labels {labels} != planted {planted}")
    return errs


def check_endring(report: dict, fdoc: dict, planted_dim: int) -> list[str]:
    """The basis has the planted size, every element is natural, the basis
    is independent, and the identity lies in its span."""
    errs = []
    p = int(fdoc["field"])
    block = next(iter(fdoc["functors"].values()))
    pblock = next(iter(fdoc["posets"].values()))
    names = pblock["elements"]
    covers = [(names.index(y), names.index(x)) for y, x in pblock["covers"]]
    dims = [int(block["dims"][n]) for n in names]
    maps = {c: as_array(block["maps"][f"{names[c[0]]}->{names[c[1]]}"], (dims[c[1]], dims[c[0]]), p) for c in covers}
    basis = report.get("basis", [])
    if report.get("dim") != planted_dim or len(basis) != planted_dim:
        errs.append(f"End dim {report.get('dim')} ({len(basis)} maps) != planted {planted_dim}")
        return errs
    vecs = []
    for b in basis:
        comps = [as_array(b[n][0], (dims[q], dims[q]), p) for q, n in enumerate(names)]
        for y, x in covers:
            if ((maps[(y, x)] @ comps[y] - comps[x] @ maps[(y, x)]) % p).any():
                errs.append(f"basis map not natural on {names[y]}->{names[x]}")
                return errs
        vecs.append(np.concatenate([c.reshape(-1) for c in comps]))
    if not vecs:
        return errs
    B = np.stack(vecs)
    r = rank(B, p)
    if r != len(vecs):
        errs.append(f"basis has rank {r} < {len(vecs)}")
    ident = np.concatenate([np.eye(d, dtype=np.int64).reshape(-1) for d in dims])
    if rank(np.vstack([B, ident[None, :]]), p) != r:
        errs.append("identity is not in the span of the basis")
    return errs


def check_builtin_glue(name: str, glue: dict | None, indec: dict) -> list[str]:
    """fig2 is certified indecomposable; fig3_a fails the hom-vanishing
    criterion and is decomposable; fig3_b and fig3_c satisfy it."""
    errs = []
    if indec.get("certainty") != "certain":
        errs.append(f"{name}: verdict not certain")
    if name == "fig2" and indec.get("verdict") != "indecomposable":
        errs.append("fig2 not certified indecomposable")
    if name == "fig3_a":
        if glue["crit_hom_zero"] or indec.get("verdict") != "decomposable":
            errs.append("fig3_a should fail crit_hom_zero and be decomposable")
    if name in ("fig3_b", "fig3_c") and not glue["crit_hom_zero"]:
        errs.append(f"{name} should satisfy crit_hom_zero")
    return errs


def check_random_glue(glue: dict, indec: dict) -> list[str]:
    """With X_A indecomposable, both gluing criteria equal the exhaustive
    verdict, and hom-vanishing implies the radical criterion."""
    errs = []
    oracle = indec.get("verdict") == "indecomposable"
    if indec.get("certainty") != "certain":
        errs.append("exhaustive verdict not certain")
    if glue["crit_rad_iso"] != oracle:
        errs.append(f"crit_rad_iso {glue['crit_rad_iso']} != exhaustive {oracle}")
    if glue["crit_kernel_nilpotent"] != oracle:
        errs.append(f"crit_kernel_nilpotent {glue['crit_kernel_nilpotent']} != exhaustive {oracle}")
    if glue["crit_hom_zero"] and not glue["crit_rad_iso"]:
        errs.append("crit_hom_zero without crit_rad_iso")
    return errs


def check_realized_doc(base, coords, text: str, pairs) -> list[str]:
    """Point count |D| + (covers in D)|V| and, on the sampled pairs, the
    order generated by the emitted covers equals the realization order."""
    from gen import parse_point, point_leq

    errs = []
    doc = json.loads(text)
    block = next(iter(doc["posets"].values()))
    names = block["elements"]
    want = base.n + len(base.covers) * len(coords)
    if len(names) != want:
        errs.append(f"{len(names)} points, expected {want}")
        return errs
    idx = {n: i for i, n in enumerate(names)}
    n = len(names)
    leq = np.eye(n, dtype=bool)
    for y, x in block["covers"]:
        leq[idx[y], idx[x]] = True
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k, :])
    pts = [parse_point(base, nm) for nm in names]
    for i, j in pairs:
        i, j = i % n, j % n
        if bool(leq[i, j]) != point_leq(base, pts[i], pts[j]):
            errs.append(f"order of {names[i]} and {names[j]} differs")
            break
    return errs


def check_transfers(base, coords, pts, queries, answers) -> list[str]:
    """Adjunction: the answer w lies below z and every point d satisfies
    d <= z iff d <= w (no point below z when the answer is bottom); on
    D = Q the answer also equals the closed form."""
    from gen import point_leq, transfer_closed_form

    errs = []
    by_name = {pt[0]: pt for pt in pts}
    for z, w in zip(queries, answers):
        below = [d for d in pts if point_leq(base, d, z)]
        if w is None:
            if below:
                errs.append(f"transfer of {z[0]} is bottom but points lie below")
            continue
        wp = by_name.get(w)
        if wp is None or not point_leq(base, wp, z):
            errs.append(f"transfer of {z[0]} is {w}, not below it")
            continue
        if any(point_leq(base, d, wp) != point_leq(base, d, z) for d in pts):
            errs.append(f"transfer of {z[0]} breaks the adjunction")
        if w != transfer_closed_form(base, coords, z):
            errs.append(f"transfer of {z[0]} is {w}, closed form says otherwise")
    return errs


def check_kan(F_dims, ext_dims, ext_maps, unit, covers, expected_dims, p) -> list[str]:
    """Both routes give the dims predicted by the transfer (dim F at the
    greatest vertex below, 0 when there is none) and equal cover ranks;
    the colim-route unit is invertible."""
    errs = []
    (dt, dc), (mt, mc) = ext_dims, ext_maps
    if list(dt) != list(expected_dims) or list(dc) != list(expected_dims):
        errs.append("Kan extension dims differ from the transfer prediction")
        return errs
    for c in covers:
        if rank(mt[c], p) != rank(mc[c], p):
            errs.append(f"cover {c}: transfer and colim routes differ in rank")
            break
    for d, u in enumerate(unit):
        if u.shape != (F_dims[d], F_dims[d]) or rank(u, p) != F_dims[d]:
            errs.append(f"colim unit not invertible at vertex {d}")
            break
    return errs
