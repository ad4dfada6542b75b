"""Lock the outputs of the benchmark workloads.

For each workload of `perfbench/workloads.py` and each seed in DIGESTS,
the round of jobs that `setup` makes is run in order with the workload's
`run`.  Each job's output is written as `repr(wl.fingerprint(output))`,
or `repr(output)` where the workload defines no `fingerprint`; sha256 is
taken over these reprs, UTF-8 encoded and concatenated in round order,
and its first 16 hex digits must equal the committed digest.  A change
that alters any output the benchmark produces fails here.  perfbench/ is
read, never written.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

import tamechain
import tamechain.cli  # noqa: F401  (the workloads call tamechain.cli.run)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DIGESTS = {
    1: {
        "replace-decompose": "8d46adf69dc3e2dc",
        "endring-large": "bd0c1af9fc635923",
        "glue-indec": "1bad8dc30a51e13d",
        "realize-kan": "232d17ac5daded8b",
    },
    9001: {
        "replace-decompose": "f6512ed860304b04",
        "endring-large": "9a301d9fdb903769",
        "glue-indec": "03f74664a8365c71",
        "realize-kan": "a17cffc6fdd91578",
    },
}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        from workloads import WORKLOADS

        yield WORKLOADS


@pytest.mark.parametrize("seed, name", [(seed, name) for seed, table in DIGESTS.items() for name in table])
def test_workload_round_output_digest(workloads, seed, name):
    wl = workloads[name](seed)
    fingerprint = getattr(wl, "fingerprint", None)
    h = hashlib.sha256()
    for job in wl.setup(tamechain):
        out = wl.run(tamechain, job)
        h.update(repr(fingerprint(out) if fingerprint else out).encode())
    assert h.hexdigest()[:16] == DIGESTS[seed][name]
