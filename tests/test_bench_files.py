"""Every committed bench record (`BENCH_*.json` at the repository root)
agrees with its own per-pair lists: the medians and win counts it states
are the ones its runs give, every list holds one value per pair, and no
run it cites failed or was incorrect."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[f.name for f in FILES])
def test_bench_file_matches_its_pairs(path):
    record = json.loads(path.read_text())
    assert record["workloads"]
    for entry in record["workloads"]:
        where = f"{entry['workload']} seed {entry['seed']}"
        n = entry["pairs"]
        assert n > 0, where
        assert entry["correct"] is True, where
        assert entry["failed"] == {"parent": 0, "change": 0}, where
        for name, metric in entry["metrics"].items():
            parent, change = metric["parent"], metric["change"]
            assert len(parent) == len(change) == n, (where, name)
            # The files round to four decimals.
            assert metric["parent_median"] == pytest.approx(statistics.median(parent), abs=1e-4), (where, name)
            assert metric["change_median"] == pytest.approx(statistics.median(change), abs=1e-4), (where, name)
            lower = metric["better"] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            assert metric["change_wins"] == wins, (where, name)
    for control in record.get("controls", []):
        assert control["correct"] is True and control["failed"] == 0, control["workload"]
