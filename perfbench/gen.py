"""Input generators.  Everything here is the benchmark's own code: a seed
fixes the inputs, and no function calls tamechain, so editing the program
or its tests cannot change what a workload feeds it.

Posets are `Poset` objects (names, Hasse covers as index pairs, order
matrix).  Functors are (dims, maps) with maps keyed by cover; chain
functors are (dims[q][n], bdy[q][k], maps[cover][n]) with bdy[q][k] the
boundary from degree k+1 to degree k.  `*_doc` functions turn them into
interchange documents.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from fp import inverse, nullspace, random_invertible, random_matrix, solve


class Poset:
    def __init__(self, names, pairs):
        self.names = list(names)
        self.n = len(self.names)
        leq = np.eye(self.n, dtype=bool)
        for y, x in pairs:
            leq[y, x] = True
        for k in range(self.n):
            leq |= np.outer(leq[:, k], leq[k, :])
        self.leq = leq
        self.covers = [
            (y, x)
            for y in range(self.n)
            for x in range(self.n)
            if y != x and leq[y, x] and not any(k not in (y, x) and leq[y, k] and leq[k, x] for k in range(self.n))
        ]

    def dim_at_most_one(self) -> bool:
        """No incomparable pair with both a common lower and a common upper bound."""
        L = self.leq
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if L[u, v] or L[v, u]:
                    continue
                if (L[:, u] & L[:, v]).any() and (L[u, :] & L[v, :]).any():
                    return False
        return True

    def doc(self) -> dict:
        return {
            "elements": list(self.names),
            "covers": [[self.names[y], self.names[x]] for y, x in self.covers],
        }


def random_poset(rng, n: int, density: float, dim1: bool, covers: int | None = None) -> Poset:
    """Random poset on n elements (dimension <= 1 when `dim1`), with exactly
    `covers` Hasse covers when given."""
    names = [f"e{i}" for i in range(n)]
    while True:
        pairs = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < density / n]
        P = Poset(names, pairs)
        if (covers is None or len(P.covers) == covers) and (not dim1 or P.dim_at_most_one()):
            return P


def mat_json(a: np.ndarray):
    if a.shape[0] == 0 or a.shape[1] == 0 or not a.any():
        return None
    return [[int(v) for v in row] for row in a]


# --- vector-space functors ---------------------------------------------------


def random_functor(rng, P: Poset, p: int, max_dim: int):
    """Balanced dims and free cover matrices; functorial on dimension <= 1
    posets, where two comparable elements are joined by one path of covers."""
    dims = balanced_dims(rng, P.n, max_dim)
    maps = {(y, x): random_matrix(rng, dims[x], dims[y], p) for y, x in P.covers}
    return dims, maps


def functor_doc(P: Poset, dims, maps, p: int, name: str = "F") -> dict:
    return {
        "field": p,
        "posets": {"P": P.doc()},
        "functors": {
            name: {
                "poset": "P",
                "dims": {P.names[q]: int(dims[q]) for q in range(P.n)},
                "maps": {f"{P.names[y]}->{P.names[x]}": mat_json(maps[(y, x)]) for y, x in P.covers},
            }
        },
    }


def hom_system(P: Poset, dimsX, mapsX, dimsY, mapsY, p: int):
    """Naturality equations for maps X -> Y, row-major vectorized, with
    the offset of every component in the unknown vector."""
    offs, at = [], 0
    for q in range(P.n):
        offs.append(at)
        at += dimsY[q] * dimsX[q]
    rows = []
    for y, x in P.covers:
        # Y(y->x) phi_y - phi_x X(y->x) = 0
        blk = np.zeros((dimsY[x] * dimsX[y], at), dtype=np.int64)
        if dimsY[y] * dimsX[y]:
            blk[:, offs[y] : offs[y] + dimsY[y] * dimsX[y]] = np.kron(mapsY[(y, x)], np.eye(dimsX[y], dtype=np.int64))
        if dimsY[x] * dimsX[x]:
            blk[:, offs[x] : offs[x] + dimsY[x] * dimsX[x]] -= np.kron(np.eye(dimsY[x], dtype=np.int64), mapsX[(y, x)].T)
        rows.append(blk % p)
    A = np.vstack(rows) if rows else np.zeros((0, at), dtype=np.int64)
    return A, offs


def _unvec(vec, P: Poset, offs, dimsX, dimsY):
    return [vec[offs[q] : offs[q] + dimsY[q] * dimsX[q]].reshape(dimsY[q], dimsX[q]) for q in range(P.n)]


def random_natural(rng, P, dimsX, mapsX, dimsY, mapsY, p, after=None):
    """Random natural map X -> Y; with `after` (a natural map Y -> Z given
    by components), only maps phi with after . phi = 0 are drawn."""
    A, offs = hom_system(P, dimsX, mapsX, dimsY, mapsY, p)
    nvars = A.shape[1]
    if after is not None:
        extra = []
        for q in range(P.n):
            if dimsY[q] * dimsX[q] == 0:
                continue
            blk = np.zeros((after[q].shape[0] * dimsX[q], nvars), dtype=np.int64)
            blk[:, offs[q] : offs[q] + dimsY[q] * dimsX[q]] = np.kron(after[q], np.eye(dimsX[q], dtype=np.int64))
            extra.append(blk % p)
        if extra:
            A = np.vstack([A] + extra)
    K = nullspace(A, p) if nvars else np.zeros((0, 0), dtype=np.int64)
    coeffs = np.array([rng.randrange(p) for _ in range(K.shape[1])], dtype=np.int64)
    vec = (K @ coeffs) % p if K.shape[1] else np.zeros(nvars, dtype=np.int64)
    return _unvec(vec, P, offs, dimsX, dimsY)


# --- chain functors --------------------------------------------------------------


def random_chain(rng, P: Poset, p: int, top: int, max_dim: int):
    """Random layers with boundaries drawn inside the hom spaces so that
    every boundary square vanishes."""
    layers = [random_functor(rng, P, p, max_dim) for _ in range(top + 1)]
    bnd = []  # bnd[k]: layer k+1 -> layer k, components per element
    for k in range(top):
        (dx, mx), (dy, my) = layers[k + 1], layers[k]
        bnd.append(random_natural(rng, P, dx, mx, dy, my, p, after=bnd[k - 1] if k else None))
    dims = [[layers[n][0][q] for n in range(top + 1)] for q in range(P.n)]
    bdy = [[bnd[k][q] for k in range(top)] for q in range(P.n)]
    maps = {c: [layers[n][1][c] for n in range(top + 1)] for c in P.covers}
    return dims, bdy, maps


def chain_doc(P: Poset, chain, p: int, name: str = "X") -> dict:
    dims, bdy, maps = chain
    top = len(dims[0]) - 1
    return {
        "field": p,
        "posets": {"P": P.doc()},
        "chain_functors": {
            name: {
                "poset": "P",
                "top": top,
                "dims": {P.names[q]: [int(d) for d in dims[q]] for q in range(P.n)},
                "boundaries": {P.names[q]: [mat_json(b) for b in bdy[q]] for q in range(P.n)},
                "maps": {f"{P.names[y]}->{P.names[x]}": [mat_json(m) for m in maps[(y, x)]] for y, x in P.covers},
            }
        },
    }


def conjugate(rng, P: Poset, chain, p: int):
    """Random change of basis at every element and degree."""
    dims, bdy, maps = chain
    top = len(dims[0]) - 1
    U = [[random_invertible(rng, dims[q][n], p) for n in range(top + 1)] for q in range(P.n)]
    Ui = [[inverse(u, p) if u.size else u for u in row] for row in U]
    bdy2 = [[(U[q][k] @ bdy[q][k] @ Ui[q][k + 1]) % p for k in range(top)] for q in range(P.n)]
    maps2 = {(y, x): [(U[x][n] @ maps[(y, x)][n] @ Ui[y][n]) % p for n in range(top + 1)] for y, x in P.covers}
    return dims, bdy2, maps2


def _free_basis(P: Poset, gens, q):
    """Indices of the generators (element, count) present at q, one per copy."""
    out = []
    for i, (z, m) in enumerate(gens):
        if P.leq[z, q]:
            out.extend((i, c) for c in range(m))
    return out


def free_layer(P: Poset, gens):
    """Free functor on generators: dims and inclusion cover maps."""
    bases = [_free_basis(P, gens, q) for q in range(P.n)]
    maps = {}
    for y, x in P.covers:
        m = np.zeros((len(bases[x]), len(bases[y])), dtype=np.int64)
        pos = {b: i for i, b in enumerate(bases[x])}
        for j, b in enumerate(bases[y]):
            m[pos[b], j] = 1
        maps[(y, x)] = m
    return [len(b) for b in bases], maps, bases


def planted_sum(rng, P: Poset, p: int, count: int):
    """Direct sum of `count` spheres on minimal resolutions and disks on free
    functors, with the labels the decomposition must return (merged per
    kind and degree, as minimal resolutions of a sum merge)."""
    pieces = []  # (degree of lower layer, gens_lower, gens_upper, relation values, kind, label degree)
    for _ in range(count):
        if rng.random() < 0.5:
            m = rng.randint(0, 2)
            z = rng.randrange(P.n)
            above = [w for w in range(P.n) if w != z and P.leq[z, w]]
            if above and rng.random() < 0.6:
                w = rng.choice(above)
                # F(w) -> F(z) by a nonzero scalar: injective, image in the radical.
                pieces.append((m, [(z, 1)], [(w, 1)], [rng.randrange(1, p)], "sphere", m))
            else:
                pieces.append((m, [(z, rng.randint(1, 2))], [], [], "sphere", m))
        else:
            n = rng.randint(1, 3)
            z = rng.randrange(P.n)
            pieces.append((n - 1, [(z, 1)], [(z, 1)], None, "disk", n))
    top = max(lo + (1 if up else 0) for lo, _, up, _, _, _ in pieces)
    dims = [[0] * (top + 1) for _ in range(P.n)]
    blocks = []  # per piece: per degree, per element, (start, size)
    for lo, g0, g1, vals, kind, _ in pieces:
        lay = {lo: free_layer(P, g0)}
        if g1:
            lay[lo + 1] = free_layer(P, g1)
        where = {}
        for n, (d, _, _) in lay.items():
            for q in range(P.n):
                where[(q, n)] = (dims[q][n], d[q])
                dims[q][n] += d[q]
        blocks.append((lay, where))
    bdy = [[np.zeros((dims[q][k], dims[q][k + 1]), dtype=np.int64) for k in range(top)] for q in range(P.n)]
    maps = {c: [np.zeros((dims[c[1]][n], dims[c[0]][n]), dtype=np.int64) for n in range(top + 1)] for c in P.covers}
    for (lo, g0, g1, vals, kind, _), (lay, where) in zip(pieces, blocks):
        for n, (_, lmaps, _) in lay.items():
            for (y, x), m in lmaps.items():
                (ax, sx), (ay, sy) = where[(x, n)], where[(y, n)]
                maps[(y, x)][n][ax : ax + sx, ay : ay + sy] = m
        if not g1:
            continue
        (_, _, b0), (_, _, b1) = lay[lo], lay[lo + 1]
        for q in range(P.n):
            (a0, s0), (a1, s1) = where[(q, lo)], where[(q, lo + 1)]
            blk = np.zeros((s0, s1), dtype=np.int64)
            if kind == "disk":
                blk = np.eye(s0, dtype=np.int64)
            else:
                pos0 = {b: i for i, b in enumerate(b0[q])}
                for j, _ in enumerate(b1[q]):
                    blk[pos0[(0, 0)], j] = vals[0]
            bdy[q][lo][a0 : a0 + s0, a1 : a1 + s1] = blk
    labels: dict = {}
    for lo, g0, g1, _, kind, deg in pieces:
        c0, c1 = labels.setdefault((kind, deg), ({}, {}))
        for z, m in g0:
            c0[P.names[z]] = c0.get(P.names[z], 0) + m
        if kind == "sphere":
            for z, m in g1:
                c1[P.names[z]] = c1.get(P.names[z], 0) + m
    return (dims, bdy, maps), labels


TRIPLE_LEFT = {
    # The three-chain example: an indecomposable whose minimal cofibrant
    # replacement has dims TRIPLE_RIGHT_DIMS and splits into two summands.
    "names": ["0", "1", "2"],
    "covers": [(0, 1), (1, 2)],
    "dims": [[1, 0], [1, 1], [0, 1]],
    "bdy": [[None], [[[1]]], [None]],
    "maps": {(0, 1): [[[1]], None], (1, 2): [None, [[1]]]},
}
TRIPLE_RIGHT_DIMS = {"0": [1, 0], "1": [1, 1], "2": [1, 2]}


def triple_left_chain(p: int):
    t = TRIPLE_LEFT
    P = Poset(t["names"], t["covers"])
    dims = t["dims"]
    bdy = [[np.array(b, dtype=np.int64) if b is not None else np.zeros((dims[q][0], dims[q][1]), dtype=np.int64) for b in row] for q, row in enumerate(t["bdy"])]
    maps = {
        c: [np.array(m, dtype=np.int64) if m is not None else np.zeros((dims[c[1]][n], dims[c[0]][n]), dtype=np.int64) for n, m in enumerate(ms)]
        for c, ms in t["maps"].items()
    }
    return P, (dims, bdy, maps)


# --- interval modules on a chain ---------------------------------------------------


def chain_poset(n: int) -> Poset:
    return Poset([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def interval_sum(intervals, n: int):
    """Direct sum of interval functors I[a, b] on the n-chain."""
    dims = [sum(1 for a, b in intervals if a <= q <= b) for q in range(n)]
    maps = {}
    for q in range(n - 1):
        m = np.zeros((dims[q + 1], dims[q]), dtype=np.int64)
        i = j = 0
        for a, b in intervals:
            here, there = a <= q <= b, a <= q + 1 <= b
            if here and there:
                m[j, i] = 1
            i += here
            j += there
        maps[(q, q + 1)] = m
    return dims, maps


def random_intervals(rng, profile):
    """Random decomposition of the dims vector `profile` of the chain into
    intervals: at each element keep a random subset of the open intervals
    (closing at most three) and open new ones up to the dim there."""
    ivs, alive = [], []
    for q, d in enumerate(profile):
        keep = min(d, len(alive))
        k = rng.randint(max(0, keep - 3), keep)
        rng.shuffle(alive)
        ivs += [(a, q - 1) for a in alive[k:]]
        alive = alive[:k] + [q] * (d - k)
    ivs += [(a, len(profile) - 1) for a in alive]
    return sorted(ivs)


def planted_end_dim(intervals) -> int:
    """dim End of a sum of intervals: Hom(I[a,b], I[c,d]) is F_p when
    c <= a <= d <= b and zero otherwise."""
    return sum(1 for a, b in intervals for c, d in intervals if c <= a <= d <= b)


def conjugate_functor(rng, P: Poset, dims, maps, p: int):
    U = [random_invertible(rng, d, p) for d in dims]
    Ui = [inverse(u, p) if u.size else u for u in U]
    return {(y, x): (U[x] @ m @ Ui[y]) % p for (y, x), m in maps.items()}


def conjugate_functor_doc(rng, doc: dict) -> dict:
    """A functor document under a random change of basis at every element."""
    (name, block), = doc["functors"].items()
    pb = doc["posets"][block["poset"]]
    P = Poset(pb["elements"], [(pb["elements"].index(y), pb["elements"].index(x)) for y, x in pb["covers"]])
    p = int(doc["field"])
    dims = [int(block["dims"][n]) for n in P.names]
    maps = {}
    for y, x in P.covers:
        lit = block["maps"].get(f"{P.names[y]}->{P.names[x]}")
        maps[(y, x)] = np.array(lit, dtype=np.int64).reshape(dims[x], dims[y]) if lit else np.zeros((dims[x], dims[y]), dtype=np.int64)
    out = functor_doc(P, dims, conjugate_functor(rng, P, dims, maps, p), p, name)
    for key, value in doc.items():
        out.setdefault(key, value)
    return out


# --- realizations ------------------------------------------------------------------


def edge_name(top: str, bottom: str, t: Fraction) -> str:
    return f"{top}~{bottom}~{t.numerator}/{t.denominator}"


def realization(P: Poset, coords):
    """Points of S(Q, Q, V) as (name, pi0, pi-1, t) and its Hasse covers
    (by name): every cover y < x is subdivided at the coordinates."""
    coords = sorted(coords)
    pts = [(P.names[q], q, q, Fraction(0)) for q in range(P.n)]
    covers = []
    for y, x in P.covers:
        chain = [P.names[y]]
        for t in coords:
            nm = edge_name(P.names[x], P.names[y], t)
            pts.append((nm, x, y, t))
            chain.append(nm)
        chain.append(P.names[x])
        covers.extend(zip(chain, chain[1:]))
    return pts, covers


def realization_order_size(P: Poset, k: int) -> int:
    """Number of pairs z <= w in S(Q, Q, V) with |V| = k, by the order rule
    of `point_leq` summed in closed form."""
    L = P.leq.astype(np.int64)
    tops = [x for _, x in P.covers]
    bots = [y for y, _ in P.covers]
    return int(
        L.sum()
        + k * sum(L[:, y].sum() for y in bots)
        + k * sum(L[x, :].sum() for x in tops)
        + k * k * sum(L[x, y] for x in tops for y in bots)
        + len(P.covers) * k * (k + 1) // 2
    )


def balanced_dims(rng, n: int, max_dim: int) -> list[int]:
    """n dims cycling through 0..max_dim from a random start, in random
    order, so that the total is nearly fixed by n."""
    start = rng.randrange(max_dim + 1)
    dims = [(start + i) % (max_dim + 1) for i in range(n)]
    rng.shuffle(dims)
    return dims


def point_leq(P: Poset, z, w) -> bool:
    """z <= w in the realization: pi0(z) <= pi-1(w) in the base, or both on
    the same edge (or the same vertex) with T(z) <= T(w)."""
    _, z0, zm, zt = z
    _, w0, wm, wt = w
    if P.leq[z0, wm]:
        return True
    return z0 == w0 and zm == wm and zt <= wt


def transfer_closed_form(P: Poset, coords, z):
    """Transfer onto S(Q, Q, V): vertices stay; an edge point drops to the
    greatest coordinate of V at or below it, else to its bottom vertex."""
    name, z0, zm, t = z
    if z0 == zm:
        return name
    below = [v for v in coords if v <= t]
    if not below:
        return P.names[zm]
    return edge_name(P.names[z0], P.names[zm], max(below))


def parse_point(P: Poset, name: str):
    if "~" not in name:
        q = P.names.index(name)
        return (name, q, q, Fraction(0))
    top, bottom, t = name.split("~")
    num, den = t.split("/")
    return (name, P.names.index(top), P.names.index(bottom), Fraction(int(num), int(den)))


# --- cokernel-presented functors (gluing instances) --------------------------------


def coker_presented(rng, P: Poset, p: int, max_dim: int):
    """Cokernel of a random map between free functors: a functor on a poset
    of any dimension (maps between cokernels are induced, so functorial)."""
    gens0 = [(z, d) for z in range(P.n) if (d := rng.randint(0, max_dim))] or [(rng.randrange(P.n), 1)]
    gens1 = [(z, 1) for z in range(P.n) if rng.randint(0, 1)]
    d0, m0, b0 = free_layer(P, gens0)
    d1, _, b1 = free_layer(P, gens1)
    keys = dict.fromkeys(k for q in range(P.n) for k in b1[q])
    vals = {key: [rng.randrange(p) for _ in b0[gens1[key[0]][0]]] for key in keys}
    C, S = [], []
    for q in range(P.n):
        pos = {key: i for i, key in enumerate(b0[q])}
        M = np.zeros((d0[q], d1[q]), dtype=np.int64)
        for col, key in enumerate(b1[q]):
            w = gens1[key[0]][0]
            for i, k0 in enumerate(b0[w]):
                M[pos[k0], col] = vals[key][i]
        c = nullspace(M.T, p).T if d0[q] else np.zeros((0, 0), dtype=np.int64)
        C.append(c)
        S.append(solve(c, np.eye(c.shape[0], dtype=np.int64), p) if c.shape[0] else np.zeros((d0[q], 0), dtype=np.int64))
    dims = [c.shape[0] for c in C]
    maps = {(y, x): (C[x] @ m0[(y, x)] @ S[y]) % p for y, x in P.covers}
    return dims, maps
