"""`tools/bench_pairs.py` summarizes alternating benchmark pairs.  Only
`summarize` is checked here; a real run takes minutes per pair."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(seconds, rate, ref):
    return {"metrics": {"pipeline_s": seconds, "tok_s": rate},
            "host.ref_s": ref, "environment": {}}


def test_summary_counts_wins_in_each_metrics_direction():
    pairs = [{"base": side(b, r, 0.1), "change": side(c, q, 0.2)}
             for b, c, r, q in ((10.0, 8.0, 100.0, 90.0),
                                (12.0, 9.0, 100.0, 110.0),
                                (11.0, 12.0, 100.0, 120.0))]
    summary = bench_pairs.summarize(pairs, [
        {"name": "pipeline_s", "better": "lower"},
        {"name": "tok_s", "better": "higher"}])
    s = summary["pipeline_s"]
    assert s["base"] == {"median": 11.0, "quartiles": [10.5, 11.5]}
    assert s["change"] == {"median": 9.0, "quartiles": [8.5, 10.5]}
    assert (s["change_won"], s["pairs"]) == (2, 3)
    assert s["median_ratio"] == pytest.approx(0.8)
    assert summary["tok_s"]["change_won"] == 2
    assert (summary["host.ref_s.base"], summary["host.ref_s.change"]) == \
        (0.1, 0.2)
