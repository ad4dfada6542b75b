"""The four workloads.  Each has `setup(tc)`, which makes one round of jobs
from the seed (tc is the imported tamechain package), `run(tc, job)`,
the timed part, and `check(job, output)`, which returns failure messages.

A round is a fixed list of jobs whose sizes are drawn from fixed strata,
so that every seed puts the same kind of load on the program; the seed
chooses the instances inside each stratum.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import gen
from fp import random_matrix

DATA = Path(__file__).resolve().parent / "data"


class JobFailed(Exception):
    """A CLI call exited non-zero or a library call raised."""


@dataclass
class Job:
    kind: str
    text: str = ""
    info: dict = field(default_factory=dict)


def cli(tc, argv: list[str], stdin_text: str, tracer=None) -> str:
    """Run one `tamechain` command in-process with captured stdin/stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tc.cli.run(argv)
    finally:
        sys.stdin = saved
    if rc != 0:
        raise JobFailed(f"`tamechain {' '.join(argv)}` exited {rc}: {err.getvalue().strip()}")
    text = out.getvalue()
    if tracer is not None:
        tracer.count("interchange.bytes_out", len(text))
    return text


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# --- replace-decompose ----------------------------------------------------------


class ReplaceDecompose:
    """`replace` then `decompose --machine` on random chain functors;
    `decompose` alone on conjugated planted sphere/disk sums; both on the
    three-chain example at p = 2, 3, 5.  Random chain functors come two
    per stratum (elements 1-8, top degree 0-2), on posets with one cover
    fewer than elements; planted sums cycle through 1-8 elements and 1-3
    summands."""

    ELEMENTS = range(1, 9)
    TOPS = range(3)
    PLANTED = 24

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tc):
        rng = random.Random(self.seed)
        jobs = []
        for p in (2, 3, 5):
            P, chain = gen.triple_left_chain(p)
            doc = gen.chain_doc(P, chain, p)
            jobs.append(Job("replace", dumps(doc), {"src": doc, "triple": True}))
        for n in self.ELEMENTS:
            for top in self.TOPS:
                for p in (2, 5):
                    P = gen.random_poset(rng, n, 1.8, dim1=True, covers=n - 1)
                    doc = gen.chain_doc(P, gen.random_chain(rng, P, p, top, 3), p)
                    jobs.append(Job("replace", dumps(doc), {"src": doc}))
        for i in range(self.PLANTED):
            p = 2 if i % 2 == 0 else 5
            n = self.ELEMENTS[i % len(self.ELEMENTS)]
            while True:
                P = gen.random_poset(rng, n, 1.8, dim1=True, covers=n - 1)
                chain, labels = gen.planted_sum(rng, P, p, 1 + i % 3)
                if max(max(row) for row in chain[0]) <= 4:
                    break
            doc = gen.chain_doc(P, gen.conjugate(rng, P, chain, p), p)
            jobs.append(Job("decompose", dumps(doc), {"src": doc, "labels": labels}))
        rest = jobs[1:]
        rng.shuffle(rest)
        return jobs[:1] + rest

    def run(self, tc, job, tracer=None):
        if job.kind == "replace":
            rep = cli(tc, ["replace"], job.text, tracer)
            return rep, cli(tc, ["decompose", "--machine"], rep, tracer)
        return None, cli(tc, ["decompose", "--machine"], job.text, tracer)

    def check(self, job, output):
        rep_text, dec_text = output
        src = checks.ChainDoc(job.info["src"])
        dec = json.loads(dec_text)
        if job.kind == "decompose":
            return checks.check_decomposition(src, dec, job.info["labels"])
        rep_doc = json.loads(rep_text)
        rep = checks.ChainDoc(rep_doc, "replacement")
        errs = checks.check_replacement(src, rep, rep_doc["report"])
        errs += checks.check_decomposition(rep, dec)
        if job.info.get("triple"):
            got = {n: rep.dims[q] for q, n in enumerate(rep.names)}
            if got != gen.TRIPLE_RIGHT_DIMS or dec["count"] != 2:
                errs.append(f"three-chain replacement has dims {got} and {dec['count']} summands")
        return errs


# --- endring-large --------------------------------------------------------------


class EndringLarge:
    """`endring --machine` on conjugated sums of 10-30 interval functors on
    the 6-chain.  A round has one instance per entry of STRATA: a dims
    vector (so sum_q dim X(q)^2 hom unknowns: 232, 455 or 611), a planted
    End dim within 3 % of the typical value for that vector (the hom
    system's rank, and so the elimination cost, follows it), and a prime.
    Three of the seven sit in the middle size and two in the largest, so
    that the median and the 90th percentile each fall inside one size
    class rather than between two."""

    CHAIN = 6
    SMALL, MIDDLE, LARGE = ((4, 6, 8, 8, 6, 4), 66), ((6, 9, 11, 10, 9, 6), 104), ((7, 10, 13, 12, 10, 7), 132)
    STRATA = (
        SMALL + (5,),
        SMALL + (32749,),
        MIDDLE + (5,),
        MIDDLE + (32749,),
        MIDDLE + (5,),
        LARGE + (32749,),
        LARGE + (5,),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tc):
        rng = random.Random(self.seed)
        P = gen.chain_poset(self.CHAIN)
        jobs = []
        for profile, end_dim, p in self.STRATA:
            while True:
                ivs = gen.random_intervals(rng, profile)
                if 10 <= len(ivs) <= 30 and abs(gen.planted_end_dim(ivs) - end_dim) <= max(2, 0.03 * end_dim):
                    break
            dims, maps = gen.interval_sum(ivs, self.CHAIN)
            doc = gen.functor_doc(P, dims, gen.conjugate_functor(rng, P, dims, maps, p), p)
            jobs.append(Job("endring", dumps(doc), {"doc": doc, "end_dim": gen.planted_end_dim(ivs)}))
        return jobs

    def run(self, tc, job, tracer=None):
        return cli(tc, ["endring", "--machine"], job.text, tracer)

    def check(self, job, output):
        return checks.check_endring(json.loads(output), job.info["doc"], job.info["end_dim"])


# --- glue-indec -------------------------------------------------------------------


class GlueIndec:
    """`glue` and `indec --strategy exhaustive` on the built-in gluing
    examples at p = 2, 3, 5 and on every pre-selected random gluing
    instance over F_2 (see select_glue.py), each under a random change of
    basis drawn from the seed.  The criteria and the verdict are invariant
    under it, so the selection holds for every seed."""

    BUILTIN = ("fig2", "fig3_a", "fig3_b", "fig3_c")
    INDEC = ["indec", "--strategy", "exhaustive", "--budget", "16384", "--machine"]

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tc):
        rng = random.Random(self.seed)
        jobs = []
        for name in self.BUILTIN:
            for p in (2, 3, 5):
                text = cli(tc, ["example", name, "--field", str(p)], "")
                jobs.append(Job("builtin", text, {"name": name}))
        with open(DATA / "glue_pool.json", encoding="utf-8") as fh:
            pool = json.load(fh)["instances"]
        for inst in pool:
            jobs.append(Job("random", dumps(gen.conjugate_functor_doc(rng, inst["doc"])), {"id": inst["id"]}))
        rest = jobs[1:]
        rng.shuffle(rest)
        return jobs[:1] + rest

    def run(self, tc, job, tracer=None):
        glue = None
        if job.kind == "random" or job.info["name"] != "fig2":
            glue = cli(tc, ["glue", "--machine"], job.text, tracer)
        return glue, cli(tc, self.INDEC, job.text, tracer)

    def check(self, job, output):
        glue, indec = output
        glue = json.loads(glue) if glue is not None else None
        indec = json.loads(indec)
        if job.kind == "builtin":
            return checks.check_builtin_glue(job.info["name"], glue, indec)
        return checks.check_random_glue(glue, indec)


# --- realize-kan -------------------------------------------------------------------


class RealizeKan:
    """On a dimension <= 1 base poset with 10-16 elements and 8-16
    coordinates: `realize`, parse the emitted realization back, Kan-extend
    a functor along the vertex inclusion by both routes, answer transfer
    queries, and build the common discretization of two functors on
    realizations with interleaved coordinate sets.  A round has one
    instance per entry of STRATA: a point count (within 3 %) and a number
    of comparable point pairs per point (within 5 %), which drives the
    cost of building functors on the realization.  Instances of one size
    still differ by up to a third in cost, so a round holds four of each
    size."""

    STRATA = ((100, 13.5),) * 4 + ((140, 15.5),) * 4 + ((180, 18.5),) * 4
    QUERIES = 24
    PAIRS = 400

    def __init__(self, seed: int):
        self.seed = seed

    def _instance(self, rng, target, pairs_per_point):
        while True:
            P = gen.random_poset(rng, rng.randint(10, 16), 2.4, dim1=True)
            if not P.covers:
                continue
            k = round((target - P.n) / len(P.covers))
            points = P.n + k * len(P.covers)
            if not (8 <= k <= 16 and abs(points - target) <= 0.03 * target):
                continue
            if abs(gen.realization_order_size(P, k) / points / pairs_per_point - 1) <= 0.05:
                return P, k

    def setup(self, tc):
        rng = random.Random(self.seed)
        jobs = []
        for i, (target, ratio) in enumerate(self.STRATA):
            p = 2 if i % 2 == 0 else 3
            P, k = self._instance(rng, target, ratio)
            coords = sorted(Fraction(-j, 97) for j in rng.sample(range(1, 97), k))
            v1, v2 = coords[0::2], coords[1::2]
            fdims = gen.balanced_dims(rng, P.n, 2)
            F = fdims, {(y, x): random_matrix(rng, fdims[x], fdims[y], p) for y, x in P.covers}
            side = []
            for vs in (v1, v2):
                pts, covers = gen.realization(P, vs)
                dims = dict(zip((pt[0] for pt in pts), gen.balanced_dims(rng, len(pts), 2)))
                maps = {(y, x): random_matrix(rng, dims[x], dims[y], p) for y, x in covers}
                side.append((vs, pts, dims, maps))
            queries = []
            for _ in range(self.QUERIES):
                if rng.random() < 0.2:
                    q = rng.randrange(P.n)
                    queries.append((P.names[q], q, q, Fraction(0)))
                else:
                    y, x = rng.choice(P.covers)
                    t = rng.choice(coords) if rng.random() < 0.3 else Fraction(-rng.randint(1, 88), 89)
                    queries.append((gen.edge_name(P.names[x], P.names[y], t), x, y, t))
            pairs = [(rng.randrange(1 << 30), rng.randrange(1 << 30)) for _ in range(self.PAIRS)]
            doc = {"field": p, "posets": {"Q": P.doc()}}
            vflag = "--V=" + ",".join(f"{t.numerator}/{t.denominator}" for t in coords)
            jobs.append(
                Job(
                    "realize",
                    dumps(doc),
                    {"P": P, "p": p, "coords": coords, "vflag": vflag, "F": F, "side": side, "queries": queries, "pairs": pairs},
                )
            )
        return jobs

    def run(self, tc, job, tracer=None):
        info = job.info
        P, p = info["P"], info["p"]
        Mat, posets, functors = tc.field.Mat, tc.posets, tc.functors
        text = cli(tc, ["realize", info["vflag"]], job.text, tracer)
        doc = tc.interchange.parse_document(text)
        (rp,) = doc.posets.values()
        base = rp.base
        dims, maps = info["F"]
        F = functors.VectFunctor(base, dims, {c: Mat(m, p) for c, m in maps.items()}, p)
        embed = [rp.index(n) for n in base.names]
        kt = functors.kan_extend(F, rp, embed, method="transfer")
        kc = functors.kan_extend(F, rp, embed, method="colim")
        answers = []
        for name, x, y, t in info["queries"]:
            z = posets.Vertex(name) if x == y else posets.Edge(P.names[x], P.names[y], t)
            w = rp.transfer(z)
            answers.append(None if w is None else posets.point_name(w))
        sides = []
        for vs, _, sdims, smaps in info["side"]:
            rs = posets.realize(base, None, vs)
            sides.append(
                functors.VectFunctor(
                    rs,
                    [sdims[n] for n in rs.names],
                    {(rs.index(y), rs.index(x)): Mat(m, p) for (y, x), m in smaps.items()},
                    p,
                )
            )
        union, exts = functors.common_realized_discretization(base, sides)
        return text, rp, F, kt, kc, answers, union, exts

    def check(self, job, output):
        text, rp, F, kt, kc, answers, union, exts = output
        info = job.info
        P, p, coords = info["P"], info["p"], info["coords"]
        errs = checks.check_realized_doc(P, coords, text, info["pairs"])
        pts, _ = gen.realization(P, coords)
        errs += checks.check_transfers(P, coords, pts, info["queries"], answers)
        # Kan extension along the vertices: the value at a point is F at the
        # greatest vertex below it, the bottom of its edge.
        expected = [F.dims[gen.parse_point(P, n)[2]] for n in rp.names]
        errs += checks.check_kan(
            F.dims,
            (kt.functor.dims, kc.functor.dims),
            ({c: m.arr for c, m in kt.functor.maps.items()}, {c: m.arr for c, m in kc.functor.maps.items()}),
            [u.arr for u in kc.unit],
            rp.covers,
            expected,
            p,
        )
        if len(union.names) != len(pts):
            errs.append(f"common discretization has {len(union.names)} points, expected {len(pts)}")
        for (vs, _, sdims, _), ext in zip(info["side"], exts):
            for q, name in enumerate(union.names):
                w = gen.transfer_closed_form(P, vs, gen.parse_point(P, name))
                if ext.dims[q] != sdims[w]:
                    errs.append(f"common discretization: dim at {name} is {ext.dims[q]}, transfer says {sdims[w]}")
                    break
        return errs

    @staticmethod
    def fingerprint(output):
        text, rp, F, kt, kc, answers, union, exts = output
        return (text, kt.functor.dims, kc.functor.dims, tuple(answers), union.names, tuple(e.dims for e in exts))


WORKLOADS = {
    "replace-decompose": ReplaceDecompose,
    "endring-large": EndringLarge,
    "glue-indec": GlueIndec,
    "realize-kan": RealizeKan,
}
