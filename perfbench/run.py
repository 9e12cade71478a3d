"""quatsurf benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload census --seed 1 --seconds 18 --trace 0

Run it from the root of a quatsurf checkout; it imports quatsurf from ./src
and reads and writes nothing outside the checkout (outputs go to
.perfbench_out/).  Workloads and the menus a seed picks from are in
workloads.py.

--trace 0 times whole operations from outside.  Each CLI operation is a
fresh `quatsurf` child process; a units operation is one child calling the
public library API.  Operations run one after another (a closed loop with
one client) for --seconds; wall time, CPU time and peak RSS of each come
from wait4 on that child.  setup_s is the median time a fresh interpreter
takes to import quatsurf.cli and exit.

--trace 1 is the separate traced run of traced.py; it prints the per-layer
metrics instead.

Every output is checked against reference.json.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_SAMPLES = 7
STEP_TIMEOUT_S = 120.0


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit_code: int
    stdout: bytes


def run_child(argv: list[str], root: Path, stdout_path: Path, timeout: float = STEP_TIMEOUT_S) -> ChildRun:
    """Run one child to completion and read its resources from wait4.

    RUSAGE_CHILDREN is a running maximum over all children, so only wait4 on
    this pid gives this child's own peak RSS.  Linux starts a child's
    ru_maxrss at its parent's high-water mark, so the parent must stay small.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=subprocess.DEVNULL)
        deadline = t0 + timeout
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    os.kill(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.001)
        except BaseException:  # SIGTERM or ^C: leave no child behind
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here; keep Popen from waiting again
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stdout_path.read_bytes())


def step_argv(step: workloads.Step) -> list[str]:
    if step.kind == "cli":
        return [sys.executable, "-c", workloads.CLI_MAIN, *step.args]
    return [sys.executable, str(HERE / "child.py"), "units", *step.args]


def measure_setup(root: Path) -> tuple[list[float], int]:
    """Wall times of fresh interpreters importing quatsurf.cli, after one warm-up."""
    argv = [sys.executable, "-c", "import quatsurf.cli"]
    failures = 0
    times = []
    for i in range(SETUP_SAMPLES + 1):
        r = run_child(argv, root, OUT_DIR / "setup.out")
        failures += r.exit_code != 0
        if i:
            times.append(r.wall_s)
    return times, failures


def _operation(plan: workloads.Plan, root: Path, reference: dict) -> dict:
    runs = [run_child(step_argv(step), root, OUT_DIR / f"step{i}.out") for i, step in enumerate(plan.steps)]
    ok = all(
        r.exit_code == 0 and workloads.outputs_match(step, r.stdout, reference[step.key])
        for step, r in zip(plan.steps, runs)
    )
    return {
        "wall_s": sum(r.wall_s for r in runs),
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_kb for r in runs) / 1024,
        "ok": ok,
    }


def run_end_to_end(plan: workloads.Plan, seconds: int, root: Path, reference: dict) -> dict:
    setup_times, setup_failures = measure_setup(root)
    # the first operation of a run is reliably slower (cold caches, fresh pages): check it, time the rest
    warmup = _operation(plan, root, reference)
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(_operation(plan, root, reference))
    good = [op for op in ops if op["ok"]] or ops
    metrics = {
        "wall_s": (statistics.median(op["wall_s"] for op in good), "s"),
        "cpu_s": (statistics.median(op["cpu_s"] for op in good), "s"),
        "peak_rss_mb": (statistics.median(op["peak_rss_mb"] for op in good), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return {
        "metrics": metrics,
        "attempted": SETUP_SAMPLES + 1 + 1 + len(ops),
        "failed": setup_failures + (not warmup["ok"]) + sum(not op["ok"] for op in ops),
        "samples": {"ops": len(ops), "setup": len(setup_times)},
        "warmup": warmup,
        "ops": ops,
        "setup_times": setup_times,
    }


def _cache_sizes() -> dict:
    """L2/L3 sizes of cpu0, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _commit(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree (read from .git, no git process)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "machine": platform.machine(),
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full", help="small: reduced inputs for selfcheck.py")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "quatsurf" / "cli.py").is_file():
        sys.stderr.write("perfbench: run from the root of a quatsurf checkout (no src/quatsurf/cli.py here)\n")
        return 2
    reference = json.loads(args.reference.read_text())["outputs"]
    plan = workloads.plan(args.workload, args.seed, args.size)
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        import traced

        result = traced.run(plan, args.size, root, reference, run_child)
    else:
        result = run_end_to_end(plan, args.seconds, root, reference)

    env = environment(root)
    tag = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace, "env": env}
    record["steps"] = [step.key for step in plan.steps]
    record.update({k: v for k, v in result.items() if k != "metrics"})
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {tag}: " + " | ".join(record["steps"]))
    print("env " + json.dumps(env, sort_keys=True))
    for key, count in result["samples"].items():
        print(f"samples.{key} {count}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
