"""Self-check of the benchmark at reduced input size (about half a minute).

    python3 perfbench/selfcheck.py

Run from the root of a quatsurf checkout.  For every workload it runs
run.py --size small once untraced and once traced, and checks that each
metric BENCHMARK.json names for that mode is printed, in the final JSON line
and in the text lines, with its unit, and that no operation failed.  It then
runs every workload against a deliberately corrupted copy of reference.json
and checks that operations fail (fail_ratio above 0), which shows that the
correctness gate can fail.  Exits nonzero if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads


def bench(workload: str, trace: int, reference: Path | None = None) -> tuple[int, list[str], dict]:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "1"]
    argv += ["--trace", str(trace), "--size", "small"]
    if reference is not None:
        argv += ["--reference", str(reference)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else {}


def corrupt(text: str, kind: str) -> str:
    """One wrong digit in a CLI stream; a units length off by one part in 10^9."""
    if kind == "cli":
        return text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]
    doc = json.loads(text)
    d = next(iter(doc["lengths"]))
    doc["lengths"][d] *= 1 + 1e-9
    return json.dumps(doc, sort_keys=True) + "\n"


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = bench(workload, trace)
            if code != 0 or result.get("failed") != 0 or not result.get("correct"):
                problems.append(f"{workload} trace={trace}: exit {code}, result {result}")
                continue
            before = len(problems)
            for metric in spec[group]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {name} missing or without unit {unit!r}: {got}")
                if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines):
                    problems.append(f"{workload} trace={trace}: no text line for {name} [{unit}]")
            if len(problems) == before:
                print(f"ok {workload} trace={trace}: {len(spec[group])} metrics with units, 0/{result['attempted']} failed")

    reference = json.loads((run.HERE / "reference.json").read_text())
    kinds = {step.key: step.kind for size in workloads.SIZES for step in workloads.all_steps(size)}
    reference["outputs"] = {key: corrupt(text, kinds[key]) for key, text in reference["outputs"].items()}
    run.OUT_DIR.mkdir(exist_ok=True)
    bad = run.OUT_DIR / "reference-corrupt.json"
    bad.write_text(json.dumps(reference))
    for workload in workloads.WORKLOADS:
        code, _, result = bench(workload, 0, bad)
        if code == 0 or not result.get("failed") or result.get("correct") is not False:
            problems.append(f"{workload}: corrupted reference went unnoticed (exit {code}, result {result})")
        else:
            ratio = result["failed"] / result["attempted"]
            print(f"ok {workload}: corrupted reference gives fail_ratio {ratio:.3g}")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
