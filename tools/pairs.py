"""Compare two quatsurf checkouts on the benchmark, in alternating pairs.

    python3 tools/pairs.py --parent ../parent --change . --pairs 10 --seconds 18 [--workloads census,units] [--first-seed 1] [--bench-out BENCH_<n>.json]
    python3 tools/pairs.py --parent ../parent --change . --pairs 5 --scale "recover --delta -4 --pairs 5 13 17 --d-bound 1e6 --p-bound 1e6"

Runs perfbench/run.py --trace 0 of each checkout, in that checkout, once per
side for each pair: pair i uses seed first_seed + i on both sides, and the
side that runs first alternates from pair to pair, so slow drift of the
machine falls on both sides alike.  One child runs at a time, each with
PYTHONDONTWRITEBYTECODE=1; a __pycache__ already under either checkout's src/
is warned about, since a child that loads bytecode reads less peak RSS than
one that compiles.  Nothing is written except what run.py itself writes
(.perfbench_out/ in each checkout) and the --bench-out file.

For each workload and end-to-end metric of BENCHMARK.json it prints the
median and quartiles (statistics.quantiles, n=4) of both sides, the pairs in
which the change reads better, whether that gain is resolved, and the failed
operations of each side.  A gain is resolved when the change reads better in
at least 9/10 of the pairs and its median is better than the parent's by more
than the parent's interquartile range; anything else prints unresolved.  A run
that prints no result line (or times out) counts as a failed run of its side:
the comparison goes on, and the summary states how many runs each side lost.

--scale CASE... runs each CASE, one argument string of quatsurf.cli, as
fresh `python -m quatsurf.cli` processes of each checkout, alternating the
sides --pairs times as above, with PYTHONDONTWRITEBYTECODE=1.  It records
each run's wall time, max RSS from wait4 and the sha256 of its stdout, and
prints each side's medians.  With --scale the workloads run only when
--workloads names them.  When a case's stdout digests or exit codes differ
between any two runs, the run exits 1 and writes no --bench-out file.

--bench-out writes the same comparison as JSON: per workload the failed
operations and lost runs of each side, and per metric both sides' quartiles,
the wins and the verdict; with it each side's env line from run.py (the
first run's), each side's src_sha256 (a digest over the sorted paths and
bytes of src/quatsurf/*.py, so the file names the code it measured, whatever
commit run.py reads), the scale medians under "scale", and the command that
ran the pairs.
"""

import argparse
import hashlib
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN_TIMEOUT_S = 600
SCALE_METRICS = ("wall_s", "max_rss_mb")


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile (one value is all three)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def compare(results: list[tuple[str, int, str, str | None]], better: dict[str, str]) -> dict:
    """The comparison per workload, from (workload, pair, side, line) tuples, side
    "parent" or "change" and line the last stdout line of run.py (one JSON
    object), or None for a run that gave no result; better maps each metric to
    "lower" or "higher".  A pair counts as a win when both sides ran and the
    change reads strictly better; ties count for neither side."""
    runs: dict[str, dict[int, dict[str, dict]]] = {}
    lost: dict[tuple[str, str], int] = {}
    for workload, pair, side, line in results:
        sides = runs.setdefault(workload, {}).setdefault(pair, {})
        if line is None:
            lost[workload, side] = lost.get((workload, side), 0) + 1
        else:
            sides[side] = json.loads(line)
    out = {}
    for workload, pairs in runs.items():
        sides = {side: [r[side] for r in pairs.values() if side in r] for side in ("parent", "change")}
        failed = {side: {"failed": sum(r["failed"] for r in rs), "attempted": sum(r["attempted"] for r in rs)} for side, rs in sides.items()}
        lost_runs = {side: lost.get((workload, side), 0) for side in sides}
        metrics = {}
        for metric, direction in better.items():
            values = {side: [r["metrics"][metric]["value"] for r in rs] for side, rs in sides.items()}
            if not values["parent"] or not values["change"]:
                continue
            sign = 1 if direction == "lower" else -1
            both = [r for r in pairs.values() if len(r) == 2]
            wins = sum(sign * (r["change"]["metrics"][metric]["value"] - r["parent"]["metrics"][metric]["value"]) < 0 for r in both)
            q = {side: dict(zip(("q1", "median", "q3"), quartiles(vs))) for side, vs in values.items()}
            resolved = both and 10 * wins >= 9 * len(both) and sign * (q["parent"]["median"] - q["change"]["median"]) > q["parent"]["q3"] - q["parent"]["q1"]
            metrics[metric] = {**q, "wins": wins, "paired": len(both), "verdict": "resolved" if resolved else "unresolved"}
        out[workload] = {"pairs": len(pairs), "failed": failed, "lost_runs": lost_runs, "metrics": metrics}
    return out


def summarize(results: list[tuple[str, int, str, str | None]], better: dict[str, str]) -> list[str]:
    """compare(results, better) as the summary lines the run prints."""
    out = []
    for workload, w in compare(results, better).items():
        f = w["failed"]
        head = f"{workload}: {w['pairs']} pairs, failed operations parent {f['parent']['failed']}/{f['parent']['attempted']}, change {f['change']['failed']}/{f['change']['attempted']}"
        if any(w["lost_runs"].values()):
            head += f", runs with no result parent {w['lost_runs']['parent']}, change {w['lost_runs']['change']}"
        out.append(head)
        for metric, m in w["metrics"].items():
            p, c = m["parent"], m["change"]
            out.append(
                f"  {metric}: parent {p['median']:.4g} [{p['q1']:.4g}-{p['q3']:.4g}] -> change {c['median']:.4g} [{c['q1']:.4g}-{c['q3']:.4g}],"
                f" change better in {m['wins']}/{m['paired']}, {m['verdict']}"
            )
    return out


def run_once(root: Path, workload: str, seed: int, seconds: int) -> tuple[dict | None, str | None]:
    """The env of one run.py, from its "env" line, and its result line; each is
    None when the run prints none, and a missing result line's reason goes to stderr."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    where = f"{root}: run.py --workload {workload} --seed {seed}"
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{where} timed out after {RUN_TIMEOUT_S} s\n")
        return None, None
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(f"{where} exited {proc.returncode} with no result line: {proc.stderr.strip()[-500:]}\n")
        return env, None
    return env, lines[-1]


def src_digest(root: Path) -> str:
    """sha256 over the sorted paths (relative to root) and bytes of src/quatsurf/*.py."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "quatsurf").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def run_case(root: Path, case: str) -> dict:
    """One fresh `python -m quatsurf.cli CASE` in root, without bytecode caches:
    its wall time, max RSS from wait4 (MB of 2^20 bytes), exit code and the
    sha256 of its stdout."""
    argv = [sys.executable, "-m", "quatsurf.cli", *shlex.split(case)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # ^C: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here; keep Popen from waiting again
        out.seek(0)
        stdout_sha256 = hashlib.sha256(out.read()).hexdigest()
    return {"wall_s": wall, "max_rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode, "stdout_sha256": stdout_sha256}


def compare_scale(results: list[tuple[str, str, dict]]) -> dict:
    """The scale runs per case, from (case, side, run) tuples with run as
    run_case returns it: each side's runs and median wall_s and max_rss_mb, and
    the exit codes and stdout digests seen over both sides, one of each when
    every run printed the same."""
    cases: dict[str, dict[str, list[dict]]] = {}
    for case, side, run in results:
        cases.setdefault(case, {}).setdefault(side, []).append(run)
    out = {}
    for case, sides in cases.items():
        runs = [r for rs in sides.values() for r in rs]
        out[case] = {"exit": sorted({r["exit"] for r in runs}), "stdout_sha256": sorted({r["stdout_sha256"] for r in runs})}
        for side, rs in sides.items():
            out[case][side] = {"runs": len(rs), **{m: statistics.median(r[m] for r in rs) for m in SCALE_METRICS}}
    return out


def summarize_scale(scale: dict) -> list[str]:
    """compare_scale's result as the lines the run prints."""
    out = []
    for case, c in scale.items():
        same = len(c["exit"]) == 1 and len(c["stdout_sha256"]) == 1
        agree = f"exit {c['exit'][0]}, stdout sha256 {c['stdout_sha256'][0][:16]} on every run" if same else f"OUTPUTS DIFFER: exit codes {c['exit']}, {len(c['stdout_sha256'])} stdout digests"
        out.append(f"{case}: {c['parent']['runs']} parent and {c['change']['runs']} change runs, {agree}")
        out += [f"  {m}: parent {c['parent'][m]:.4g} -> change {c['change'][m]:.4g} (medians)" for m in SCALE_METRICS]
    return out


def alternate(i: int) -> tuple[str, str]:
    """The order of the sides in pair i: the parent first in even pairs."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated (default: every workload of BENCHMARK.json)")
    parser.add_argument("--bench-out", type=Path, help="also write the comparison, the env and source digest of each side and the command to this JSON file")
    parser.add_argument("--scale", nargs="+", metavar="CASE", help="run each quatsurf.cli argument string as fresh processes of both sides (then workloads only with --workloads)")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [] if args.scale else [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in trees.items():
        if any((root / "src").rglob("__pycache__")):
            sys.stderr.write(f"warning: {side} checkout {root} holds a __pycache__ under src/; delete it for a fair peak RSS\n")

    results, envs = [], {}
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in alternate(i):
                env, line = run_once(trees[side], workload, seed, args.seconds)
                results.append((workload, i, side, line))
                if env is not None:
                    envs.setdefault(side, env)
                sys.stderr.write(f"{workload} pair {i + 1}/{args.pairs} {side} done\n")
    scale_results = []
    for case in args.scale or []:
        for i in range(args.pairs):
            for side in alternate(i):
                scale_results.append((case, side, run_case(trees[side], case)))
                sys.stderr.write(f"{case} pair {i + 1}/{args.pairs} {side} done\n")
    scale = compare_scale(scale_results)
    print("\n".join(summarize(results, better) + summarize_scale(scale)))
    differ = [case for case, c in scale.items() if len(c["exit"]) > 1 or len(c["stdout_sha256"]) > 1]
    if differ:
        sys.stderr.write(f"outputs differ between runs of {differ}; no --bench-out file written\n")
        return 1
    if args.bench_out:
        record = {
            "command": shlex.join(["python3", "tools/pairs.py", *argv]),
            "env": envs,
            "src_sha256": {side: src_digest(root) for side, root in trees.items()},
            "workloads": compare(results, better),
        }
        if args.scale:
            record["scale"] = scale
        args.bench_out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
