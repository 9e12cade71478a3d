"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads census,units] [--out FILE]

Run from the root of a quatsurf checkout.  Runs run.py --trace 0 once per
(workload, seed) with BENCHMARK.json's run_seconds, one run at a time, and
prints for every end-to-end metric the median of the runs and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  baseline.json
was written this way, at the commit it records.

On the 2-core machine baseline.json comes from, the speed of the same
operation drifted by 10-30% over minutes, with CPU time tracking wall time.
Compare a parent and a change by alternating their runs, not by running one
side's seeds after the other's.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}, {result}\n")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {name: round(m["value"], 4) for name, m in result["metrics"].items()}, flush=True)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[workload][metric["name"]] = {
                "median": median,
                "spread": (q3 - q1) / median,
                "bound": metric["bound"],
                "unit": metric["unit"],
                "values": vals,
            }
            print(f"{workload} {metric['name']}: median {median:.4g} {metric['unit']}, spread {(q3 - q1) / median:.3f} (bound {metric['bound']})")
    if args.out:
        doc = {"env": run.environment(Path.cwd()), "seeds": args.seeds, "workloads": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
