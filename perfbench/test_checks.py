"""Tests of the benchmark's own code: every output check accepts the
program's real output and rejects a corrupted copy of it, and the tracer
wraps and restores the program.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tamechain  # noqa: E402
import tamechain.cli  # noqa: E402,F401
import checks  # noqa: E402
import gen  # noqa: E402
from fp import rank  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import EndringLarge, RealizeKan, ReplaceDecompose  # noqa: E402

tc = tamechain


def _rank_changing_flip(doc: dict):
    """Copy of a replacement document with one boundary entry changed to
    (v + 1) mod p so that the boundary's rank changes, or None.  A flip that
    keeps the rank may leave an isomorphic, equally valid replacement."""
    p = doc["field"]
    X = checks.ChainDoc(doc, "replacement")
    for q, name in enumerate(X.names):
        for k, m in enumerate(X.bdy[q]):
            for (i, j), v in np.ndenumerate(m):
                flipped = m.copy()
                flipped[i, j] = (v + 1) % p
                if rank(flipped, p) != rank(m, p):
                    bad = copy.deepcopy(doc)
                    bad["chain_functors"]["replacement"]["boundaries"][name][k] = flipped.tolist()
                    return bad
    return None


@pytest.fixture(scope="module")
def replace_jobs():
    return ReplaceDecompose(0).setup(tc)


def test_replacement_check_rejects_flipped_boundary_entry(replace_jobs):
    wl = ReplaceDecompose(0)
    tried = 0
    for job in replace_jobs:
        if job.kind != "replace":
            continue
        rep_text, dec_text = wl.run(tc, job)
        assert wl.check(job, (rep_text, dec_text)) == []
        bad = _rank_changing_flip(json.loads(rep_text))
        if bad is None:
            continue
        errs = checks.check_replacement(
            checks.ChainDoc(job.info["src"]), checks.ChainDoc(bad, "replacement"), bad["report"]
        )
        assert errs, "a flipped boundary entry went unnoticed"
        tried += 1
        if tried == 5:
            break
    assert tried == 5


def test_decomposition_check_rejects_dropped_or_relabelled_summand(replace_jobs):
    wl = ReplaceDecompose(0)
    job = next(j for j in replace_jobs if j.kind == "decompose")
    out = wl.run(tc, job)
    assert wl.check(job, out) == []
    report = json.loads(out[1])
    src = checks.ChainDoc(job.info["src"])

    dropped = copy.deepcopy(report)
    dropped["summands"].pop()
    dropped["count"] -= 1
    assert checks.check_decomposition(src, dropped, job.info["labels"])

    relabelled = copy.deepcopy(report)
    gen0 = relabelled["summands"][0]["generators"][0]
    others = [n for n in src.names if n != gen0["element"]]
    if others:
        gen0["element"] = others[0]
    else:
        gen0["multiplicity"] += 1
    assert checks.check_decomposition(src, relabelled, job.info["labels"])


def test_endring_check_rejects_missing_or_repeated_vector():
    wl = EndringLarge(0)
    job = wl.setup(tc)[0]
    report = json.loads(wl.run(tc, job))
    assert wl.check(job, json.dumps(report)) == []

    missing = copy.deepcopy(report)
    missing["basis"].pop()
    missing["dim"] -= 1
    assert checks.check_endring(missing, job.info["doc"], job.info["end_dim"])

    repeated = copy.deepcopy(report)
    repeated["basis"][-1] = repeated["basis"][0]
    assert checks.check_endring(repeated, job.info["doc"], job.info["end_dim"])


def test_transfer_check_rejects_wrong_transfer():
    wl = RealizeKan(0)
    job = wl.setup(tc)[0]
    out = wl.run(tc, job)
    assert wl.check(job, out) == []
    info = job.info
    P, coords, queries = info["P"], info["coords"], info["queries"]
    answers = list(out[5])
    pts, _ = gen.realization(P, coords)
    i = next(k for k, (name, x, y, _) in enumerate(queries) if x != y)
    name, x, y, t = queries[i]
    answers[i] = P.names[x]  # the top vertex of the edge lies above the query
    assert checks.check_transfers(P, coords, pts, queries, answers)
    answers[i] = None
    assert checks.check_transfers(P, coords, pts, queries, answers)


def test_realization_order_size_matches_program():
    rng = random.Random(3)
    for _ in range(5):
        P = gen.random_poset(rng, rng.randint(4, 9), 2.4, dim1=True)
        k = rng.randint(1, 4)
        base = tc.posets.FinPoset.from_covers(P.names, [(P.names[y], P.names[x]) for y, x in P.covers])
        rp = tc.posets.realize(base, None, [Fraction(-j, 7) for j in range(1, k + 1)])
        assert gen.realization_order_size(P, k) == int(rp.leq_matrix.sum())


def test_interval_hom_rule_matches_program():
    """Hom(I[a,b], I[c,d]) is nonzero iff c <= a <= d <= b, on the 6-chain."""
    P = gen.chain_poset(6)
    base = tc.posets.FinPoset.from_covers(P.names, [(P.names[y], P.names[x]) for y, x in P.covers])
    ivs = [(a, b) for a in range(6) for b in range(a, 6)]

    def functor(iv):
        dims, maps = gen.interval_sum([iv], 6)
        return tc.functors.VectFunctor(base, dims, {c: tc.field.Mat(m, 5) for c, m in maps.items()}, 5)

    for a, b in ivs:
        for c, d in ivs:
            assert len(tc.morphisms.hom_space(functor((a, b)), functor((c, d)))) == int(c <= a <= d <= b)


def test_tracer_wraps_every_lookup_and_restores():
    original = tc.field.rref
    tracer = Tracer()
    tracer.install()
    try:
        # functors binds `rref` by name at import; it must see the wrapper too.
        assert tc.functors.rref is tc.field.rref is not original
        assert hasattr(tc.field.Mat.__matmul__, "_perfbench_original")
        wl = ReplaceDecompose(0)
        job = wl.setup(tc)[0]
        tracer.current_job = 0
        tracer.span("bench.job", wl.run, tc, job, tracer)
    finally:
        tracer.uninstall()
    assert tc.field.rref is original and tc.functors.rref is original
    assert not hasattr(tc.field.Mat.__matmul__, "_perfbench_original")
    metrics, gap = tracer.layer_metrics()
    assert gap < 1e-6
    for key in ("field.rref.calls", "field.matmul.calls", "chains.factorization.calls", "chains.decompose.calls",
                "interchange.bytes_in", "interchange.bytes_out", "cli.self_s"):
        assert metrics[key] > 0, key
    self_t = tracer.arrays()[4]
    assert np.all(self_t > -1e-9)
