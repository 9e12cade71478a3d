"""tools/pairs.py's summary, on canned run.py result lines and scale runs (no subprocess)."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

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


def test_src_digest_names_the_package_source(tmp_path):
    # two trees with the same src/quatsurf/*.py read the same digest, whatever
    # else they hold; a changed byte or a renamed module changes it
    trees = [tmp_path / "a", tmp_path / "b"]
    for root in trees:
        (root / "src" / "quatsurf").mkdir(parents=True)
        (root / "src" / "quatsurf" / "__init__.py").write_text("from .arith import kronecker\n")
        (root / "src" / "quatsurf" / "arith.py").write_text("def kronecker(a, n):\n    return 1\n")
    (trees[1] / "README.md").write_text("not source\n")
    (trees[1] / "src" / "quatsurf" / "__pycache__").mkdir()
    (trees[1] / "src" / "quatsurf" / "__pycache__" / "arith.cpython-311.pyc").write_bytes(b"\0")
    a, b = (pairs.src_digest(root) for root in trees)
    assert a == b and len(a) == 64
    (trees[1] / "src" / "quatsurf" / "arith.py").write_text("def kronecker(a, n):\n    return -1\n")
    assert pairs.src_digest(trees[1]) != a
    (trees[1] / "src" / "quatsurf" / "arith.py").write_text("def kronecker(a, n):\n    return 1\n")
    assert pairs.src_digest(trees[1]) == a
    (trees[1] / "src" / "quatsurf" / "arith.py").rename(trees[1] / "src" / "quatsurf" / "arith2.py")
    assert pairs.src_digest(trees[1]) != a


def scale_trees(tmp_path):
    roots = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for side, root in roots.items():
        (root / "src" / "quatsurf").mkdir(parents=True)
        (root / "src" / "quatsurf" / "cli.py").write_text(f"# {side}\n")
    spec = {"workloads": [{"name": "census"}], "end_to_end": [{"name": "wall_s", "better": "lower"}]}
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(spec))
    return roots


def test_scale_medians_alternate_and_go_to_bench_out(tmp_path, monkeypatch, capsys):
    # run_case is replaced by canned results, and subprocess.run refuses, so no
    # child starts and no workload runs: --scale without --workloads runs the cases only
    roots = scale_trees(tmp_path)
    order = []

    def fake_case(root, case):
        side = next(side for side, r in roots.items() if r.resolve() == root)
        order.append((case, side))
        n = sum(1 for c, s in order if (c, s) == (case, side))
        rss = {"parent": 33.1, "change": 33.0}[side] + n / 100
        return {"wall_s": n / 10, "max_rss_mb": rss, "exit": 0, "stdout_sha256": hashlib.sha256(case.encode()).hexdigest()}

    monkeypatch.setattr(pairs, "run_case", fake_case)
    monkeypatch.setattr(pairs.subprocess, "run", lambda *a, **k: pytest.fail("a workload ran"))
    out = tmp_path / "BENCH_0.json"
    cases = ["recover --delta -7 --pairs 11 --d-bound 1e7 --p-bound 1e5", "units --n 1"]
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--pairs", "3", "--scale", *cases, "--bench-out", str(out)]
    assert pairs.main(argv) == 0
    assert order == [(case, side) for case in cases for i in range(3) for side in pairs.alternate(i)]
    assert order[:4] == [(cases[0], "parent"), (cases[0], "change"), (cases[0], "change"), (cases[0], "parent")]
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        f"{cases[0]}: 3 parent and 3 change runs, exit 0, stdout sha256 {hashlib.sha256(cases[0].encode()).hexdigest()[:16]} on every run",
        "  wall_s: parent 0.2 -> change 0.2 (medians)",
        "  max_rss_mb: parent 33.12 -> change 33.02 (medians)",
        f"{cases[1]}: 3 parent and 3 change runs, exit 0, stdout sha256 {hashlib.sha256(cases[1].encode()).hexdigest()[:16]} on every run",
        "  wall_s: parent 0.2 -> change 0.2 (medians)",
        "  max_rss_mb: parent 33.12 -> change 33.02 (medians)",
    ]
    record = json.loads(out.read_text())
    assert record["workloads"] == {} and record["env"] == {}
    assert record["src_sha256"] == {side: pairs.src_digest(root) for side, root in roots.items()}
    assert record["src_sha256"]["parent"] != record["src_sha256"]["change"]
    for case in cases:
        entry = record["scale"][case]
        assert (entry["exit"], entry["stdout_sha256"]) == ([0], [hashlib.sha256(case.encode()).hexdigest()])
        for side, rss in (("parent", 33.12), ("change", 33.02)):
            assert entry[side] == {"runs": 3, "wall_s": pytest.approx(0.2), "max_rss_mb": pytest.approx(rss)}


def test_scale_refuses_when_outputs_differ(tmp_path, monkeypatch, capsys):
    # one change run prints other bytes: the run exits 1, says so and writes no file
    roots = scale_trees(tmp_path)
    runs = iter(range(100))

    def fake_case(root, case):
        odd = next(runs) == 3
        return {"wall_s": 1.0, "max_rss_mb": 33.0, "exit": 0, "stdout_sha256": ("b" if odd else "a") * 64}

    monkeypatch.setattr(pairs, "run_case", fake_case)
    out = tmp_path / "BENCH_0.json"
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--pairs", "2", "--scale", "units --n 1", "--bench-out", str(out)]
    assert pairs.main(argv) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "units --n 1: 2 parent and 2 change runs, OUTPUTS DIFFER: exit codes [0], 2 stdout digests"
    assert "no --bench-out file written" in captured.err
    # an exit code that differs refuses as well
    scale = pairs.compare_scale([("c", "parent", {"wall_s": 1, "max_rss_mb": 1, "exit": 0, "stdout_sha256": "a"}), ("c", "change", {"wall_s": 1, "max_rss_mb": 1, "exit": 3, "stdout_sha256": "a"})])
    assert scale["c"]["exit"] == [0, 3]
