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


def test_bench_out_records_what_the_summary_prints(tmp_path, monkeypatch, capsys):
    # run.py's stdout is canned per (checkout, workload, seed): subprocess.run is
    # replaced, so no child starts; the change's units run at seed 2 prints no result
    roots = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for root in roots.values():
        (root / "src").mkdir(parents=True)
    spec = {"workloads": [{"name": "census"}, {"name": "units"}], "end_to_end": [{"name": "peak_rss_mb", "better": "lower"}, {"name": "wall_s", "better": "lower"}]}
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(spec))
    canned = {}
    for side, shift in (("parent", 0.0), ("change", -0.5)):
        for workload in ("census", "units"):
            for seed in (1, 2, 3):
                canned[side, workload, seed] = line(30 + seed + shift, 1 + seed / 10, failed=int(side == "change" and seed == 3))
    canned["change", "units", 2] = None

    def fake_run(argv, cwd, **kwargs):
        side = next(side for side, root in roots.items() if root.resolve() == cwd)
        result = canned[side, argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])]
        env = {"commit": side, "python": "3.11.7", "numpy": "1.26.4", "nproc": 2}
        stdout = "perfbench census-seed1-full-trace0: steps\nenv " + json.dumps(env) + "\nwall_s 1.1 s\n" + (result or "")
        return pairs.subprocess.CompletedProcess(argv, 0 if result else 1, stdout=stdout, stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH_0.json"
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--pairs", "3", "--seconds", "1", "--bench-out", str(out)]
    assert pairs.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(out.read_text())

    results = [(workload, seed - 1, side, canned[side, workload, seed]) for (side, workload, seed) in canned]
    assert record["workloads"] == pairs.compare(results, {"peak_rss_mb": "lower", "wall_s": "lower"})
    assert record["command"] == "python3 tools/pairs.py " + " ".join(argv)
    assert {side: env["commit"] for side, env in record["env"].items()} == {"parent": "parent", "change": "change"}
    assert record["workloads"]["units"]["lost_runs"] == {"parent": 0, "change": 1}
    assert record["workloads"]["census"]["failed"]["change"] == {"failed": 1, "attempted": 60}
    # every metric the summary prints is in the file, with its medians and verdict
    rows = {}
    for text in printed:
        if text.startswith("  "):
            rows[workload, text.split(":")[0].strip()] = text
        else:
            workload = text.split(":")[0]
    assert set(rows) == {(w, m) for w, entry in record["workloads"].items() for m in entry["metrics"]}
    for (workload, metric), text in rows.items():
        entry = record["workloads"][workload]["metrics"][metric]
        assert f"parent {entry['parent']['median']:.4g} " in text and f"change {entry['change']['median']:.4g} " in text
        assert text.endswith(f"change better in {entry['wins']}/{entry['paired']}, {entry['verdict']}")
    assert record["workloads"]["census"]["metrics"]["peak_rss_mb"]["verdict"] == "unresolved"  # 3/3 wins, but 0.5 MB inside the parent's interquartile range of 2 MB
