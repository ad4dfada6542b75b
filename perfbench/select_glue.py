"""Select the random gluing instances of the glue-indec workload.

    python3 perfbench/select_glue.py        # from the root of a checkout

Candidates are generated with the benchmark's own code (gen.py) as in the
gluing acceptance criterion: random posets with up to 6 elements, A and B
covering them, a cokernel-presented functor X over F_2.  Keeping one
needs the program: X_A must be nonzero and indecomposable, End(X_A) and
End(X) must be small enough for the exhaustive oracle at budget 16384,
and the two subposets must be a legal gluing.  The survivors, with the
size of End(X) and of X (used only to stratify them by cost), are written
to data/glue_pool.json, which the workload loads; so set-up never runs
this selection and does not track the program's speed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_SEED = 20260
POOL_SIZE = 192
BUDGET = 1 << 14


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    import gen
    from tamechain.errors import BadCoverError
    from tamechain.interchange import parse_document
    from tamechain.morphisms import as_chain, end_ring, gluing_check, indecomposable

    rng = random.Random(POOL_SEED)
    pool = []
    tried = 0
    while len(pool) < POOL_SIZE:
        tried += 1
        n = rng.randint(2, 6)
        P = gen.random_poset(rng, n, 2.2, dim1=False)
        a_idx = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        extra = [e for e in a_idx if rng.random() < 0.4]
        b_idx = sorted(set(range(n)) - set(a_idx) | set(extra))
        dims, maps = gen.coker_presented(rng, P, 2, 2)
        doc = gen.functor_doc(P, dims, maps, 2, "X")
        doc["gluing"] = {"A": [P.names[e] for e in a_idx], "B": [P.names[e] for e in b_idx]}
        X = parse_document(json.dumps(doc)).functors["X"][0]
        XA = X.restrict(a_idx)
        if as_chain(X).is_zero() or as_chain(XA).is_zero():
            continue
        if BUDGET < 2 ** end_ring(XA).dim or not indecomposable(XA, "exhaustive", budget=BUDGET).indecomposable:
            continue
        if BUDGET < 2 ** end_ring(X).dim:
            continue
        try:
            gluing_check(X, doc["gluing"]["A"], doc["gluing"]["B"])
        except BadCoverError:
            continue
        res = indecomposable(X, "exhaustive", budget=BUDGET)
        pool.append(
            {
                "id": len(pool),
                "end_dim": res.end_dim,
                "total_dim": sum(dims),
                "indecomposable": res.indecomposable,
                "doc": doc,
            }
        )
    out = {
        "pool_seed": POOL_SEED,
        "candidates_tried": tried,
        "budget": BUDGET,
        "instances": pool,
    }
    path = HERE / "data" / "glue_pool.json"
    path.write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {len(pool)} instances ({tried} candidates) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
