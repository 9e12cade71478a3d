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
        "  peak_rss_mb: parent 30.4 [30.1-30.7] -> change 30.3 [30.1-30.6], change better in 4/5, unresolved",
        # only the second pair wins: 1.1 = 1.1 in the third is no win
        "  wall_s: parent 1.1 [0.95-1.25] -> change 1.1 [1-1.25], change better in 1/5, unresolved",
    ]


def test_higher_is_better_and_unpaired_runs():
    results = [("units", 0, "parent", line(30.0, 1.0)), ("units", 0, "change", line(30.0, 2.0)), ("units", 1, "parent", line(30.0, 1.0))]
    got = pairs.summarize(results, {"wall_s": "higher"})
    assert got[0] == "units: 2 pairs, failed operations parent 0/40, change 0/20"
    assert got[1] == "  wall_s: parent 1 [1-1] -> change 2 [2-2], change better in 1/1, resolved"


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
        "  peak_rss_mb: parent 30.1 [29.95-30.25] -> change 29 [29-29], change better in 1/1, resolved",
    ]


def test_resolved_needs_nine_tenths_and_a_gap_wider_than_the_parent_iqr():
    def summary(parent, change):
        results = []
        for i, (p, c) in enumerate(zip(parent, change)):
            results += [("census", i, "parent", line(p, 1.0)), ("census", i, "change", line(c, 1.0))]
        return pairs.summarize(results, {"peak_rss_mb": "lower"})[1]

    parent = [32.3, 32.4, 32.35, 32.45, 32.4, 32.38, 32.42, 32.36, 32.44, 32.4]  # quartiles 32.3575 and 32.425
    # 9/10 wins, medians 0.6 MB apart: resolved
    got = summary(parent, [31.8] * 9 + [32.5])
    assert got == "  peak_rss_mb: parent 32.4 [32.36-32.42] -> change 31.8 [31.8-31.8], change better in 9/10, resolved"
    # 8/10 wins, the same gap: unresolved
    assert summary(parent, [31.8] * 8 + [32.5] * 2).endswith("change better in 8/10, unresolved")
    # 10/10 wins, but the medians 0.05 MB apart, inside the parent's 0.0675 MB interquartile range
    assert summary(parent, [p - 0.05 for p in parent]).endswith("change better in 10/10, unresolved")
    # 10/10 losses cannot resolve a gain, however wide the gap
    assert summary(parent, [33.0] * 10).endswith("change better in 0/10, unresolved")
