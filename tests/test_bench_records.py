"""Every BENCH_*.json at the root of the repository is a performance record:
for each benchmark workload it holds every pair of runs (the parent's and
the change's end-to-end metrics), their medians, the traced per-layer
metrics of both sides, and the host the runs took."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_record_names_its_workloads_pairs_and_host(path):
    doc = json.loads(path.read_text())
    host = doc["host"]
    assert host["cpu"] and host["python"] and host["cpus"] > 0
    assert doc["seconds_per_run"] > 0
    assert doc["bytecode_cache"] is False
    assert set(doc["workloads"]) == WORKLOADS
    for name, entry in doc["workloads"].items():
        pairs = entry["pairs"]
        assert pairs, name
        for pair in pairs:
            for side in SIDES:
                assert pair[side]["correct"] is True, (name, side)
                assert set(END_TO_END) <= set(pair[side]["metrics"])
        # the medians are those of the pairs
        for side in SIDES:
            for metric in END_TO_END:
                values = [p[side]["metrics"][metric] for p in pairs]
                assert entry["median"][side][metric] == \
                    pytest.approx(statistics.median(values)), (name, metric)
        for side in SIDES:
            assert "present.simplify_s" in entry["traced"][side]
    claim = doc.get("claim")
    if claim is not None:
        assert claim["workload"] in WORKLOADS
        assert claim["metric"] in END_TO_END
