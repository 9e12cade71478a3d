"""tools/pairs.py's summary, on canned run.py result lines (no subprocess)."""

import importlib.util
import json
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)


def line(rss, wall, failed=0):
    metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"}, "wall_s": {"value": wall, "unit": "s"}}
    return json.dumps({"correct": failed == 0, "attempted": 20, "failed": failed, "metrics": metrics})


def test_summary_medians_quartiles_wins_and_failures():
    parent = [(30.0, 1.0), (30.2, 1.2), (30.4, 1.1), (30.6, 0.9), (30.8, 1.3)]
    change = [(29.9, 1.1), (30.3, 1.0), (30.3, 1.1), (30.5, 1.0), (30.7, 1.4)]
    results = []
    for i, ((pr, pw), (cr, cw)) in enumerate(zip(parent, change)):
        results.append(("census", i, "parent", line(pr, pw)))
        results.append(("census", i, "change", line(cr, cw, failed=int(i == 3))))
    got = pairs.summarize(results, {"peak_rss_mb": "lower", "wall_s": "lower"})
    assert got == [
        "census: 5 pairs, failed operations parent 0/100, change 1/100",
        # exclusive quartiles of 30.0 .. 30.8: 30.1 and 30.7
        "  peak_rss_mb: parent 30.4 [30.1-30.7] -> change 30.3 [30.1-30.6], change better in 4/5",
        # only the second pair wins: 1.1 = 1.1 in the third is no win
        "  wall_s: parent 1.1 [0.95-1.25] -> change 1.1 [1-1.25], change better in 1/5",
    ]


def test_higher_is_better_and_unpaired_runs():
    results = [("units", 0, "parent", line(30.0, 1.0)), ("units", 0, "change", line(30.0, 2.0)), ("units", 1, "parent", line(30.0, 1.0))]
    got = pairs.summarize(results, {"wall_s": "higher"})
    assert got[0] == "units: 2 pairs, failed operations parent 0/40, change 0/20"
    assert got[1] == "  wall_s: parent 1 [1-1] -> change 2 [2-2], change better in 1/1"


def test_run_without_result_counts_as_failed_for_its_side():
    # run.py printed no result line for the change side of pair 1: that pair
    # has no win or loss, the other pairs still count
    results = [
        ("recover", 0, "parent", line(30.0, 1.0)),
        ("recover", 0, "change", line(29.0, 1.0)),
        ("recover", 1, "change", None),
        ("recover", 1, "parent", line(30.2, 1.0)),
    ]
    got = pairs.summarize(results, {"peak_rss_mb": "lower"})
    assert got == [
        "recover: 2 pairs, failed operations parent 0/40, change 0/20, runs with no result parent 0, change 1",
        "  peak_rss_mb: parent 30.1 [29.95-30.25] -> change 29 [29-29], change better in 1/1",
    ]
