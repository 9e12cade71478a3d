"""Write reference.json: the output of every menu entry at the current code.

    python3 perfbench/make_reference.py

Run from the root of a quatsurf checkout at the commit whose outputs are the
reference.  reference.json records that commit; the stored outputs are what
run.py compares against, so regenerate them only when an output is meant to
change.
"""

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    run.OUT_DIR.mkdir(exist_ok=True)
    outputs = {}
    for size in workloads.SIZES:
        for step in workloads.all_steps(size):
            r = run.run_child(run.step_argv(step), root, run.OUT_DIR / "reference.out")
            if r.exit_code != 0:
                sys.stderr.write(f"{step.key}: exit {r.exit_code}\n")
                return 1
            outputs[step.key] = r.stdout.decode()
            print(f"{r.wall_s:7.3f} s  {step.key}", flush=True)
    doc = {"commit": run.environment(root)["commit"], "outputs": outputs}
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
