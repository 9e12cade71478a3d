"""Traced run: per-layer spans and counters for the quatsurf benchmark.

The run imports quatsurf from the checkout and wraps public functions at run
time, under the names their callers look up (quatsurf.cli.prime_density_report,
quatsurf.census.fundamental_masks, quatsurf.quatalg.splitting, ...).  Nothing
in the program changes.  It then makes one pass over every workload, the
named one first, with the inputs the seed picks for each, because every
per-layer metric belongs to one workload.  Outputs are still checked.

A span records name, start, end, parent span, workload and the time its
children cover; self time is duration minus that.  quadfields.splitting runs
about 380,000 times per recover operation, so it is a leaf: its calls and time
are summed per workload instead of kept one by one.  Spans stay in memory and
are written to .perfbench_out/ when the run ends.

Beyond the spans:
- trace.overhead_s is the named workload's traced wall time minus that of
  the same operation run untraced in this process after the traced pass.
- census.scan.* time PrimePredicate(...).members_up_to(scan bound, shards=s)
  untraced for s = 1 and s = min(2, cpu count); the benchmark never asks for
  more shards than cores.
- *.peak_bytes is the peak RSS of a child making that one call, minus the
  peak RSS of a child that only imports (wait4).  tracemalloc would give
  bytes directly but made dirichlet_L2 five times slower.
"""

import contextlib
import functools
import io
import json
import os
import sys
import time
import traceback
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads

OUT_DIR = Path(".perfbench_out")

class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, workload, child seconds]
        self.stack = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (workload, name) -> [calls, seconds]
        self.counts = defaultdict(int)  # (workload, name) -> value
        self.workload = None

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.workload, 0.0])
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def leaf(self, name: str, seconds: float) -> None:
        entry = self.leaves[(self.workload, name)]
        entry[0] += 1
        entry[1] += seconds
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    def count(self, name: str, value: int) -> None:
        self.counts[(self.workload, name)] += value

    def self_s(self, workload: str, name: str) -> float:
        if (workload, name) in self.leaves:
            return self.leaves[(workload, name)][1]
        return sum(s[2] - s[1] - s[5] for s in self.spans if s[0] == name and s[4] == workload)

    def calls(self, workload: str, name: str) -> int:
        if (workload, name) in self.leaves:
            return self.leaves[(workload, name)][0]
        return sum(1 for s in self.spans if s[0] == name and s[4] == workload)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, workload, child_s in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "workload": workload, "child_s": child_s}
                f.write(json.dumps(rec) + "\n")
            for (workload, name), (calls, seconds) in self.leaves.items():
                f.write(json.dumps({"name": name, "workload": workload, "leaf_calls": calls, "leaf_s": seconds}) + "\n")


def _spanned(tracer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before() if before else None
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after:
            after(state, args, kwargs, result)
        return result

    return wrapper


def _leaf(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, time.perf_counter() - t0)

    return wrapper


def _counted_items(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.count(name, 1)
            yield item

    return wrapper


def _patches(tracer, q):
    """(owner, attribute, make_wrapper) for every wrapped name."""
    primes_up_to = q.arith.primes_up_to
    scanned = weakref.WeakKeyDictionary()  # predicate -> bound scanned so far

    def after_members(_, args, kwargs, members):
        # the predicate caches its scan; count only primes newly tested
        pred, bound = args[0], kwargs.get("bound", args[1] if len(args) > 1 else None)
        prev = scanned.get(pred, 1)
        if bound > prev:
            ps = primes_up_to(bound)
            ps = ps[ps > prev]
            excluded = np.fromiter(pred.boundary | {2}, dtype=np.int64)
            tracer.count("census.members_up_to.primes_tested", int(np.count_nonzero(~np.isin(ps, excluded))))
            tracer.count("census.members_up_to.members", int(np.count_nonzero(members > prev)))
            scanned[pred] = bound

    def counter(name, measure):
        return lambda _, args, kwargs, result: tracer.count(name, measure(result))

    def after_unit(_, args, kwargs, unit):
        tracer.count("geodesics.unit_bits.total", unit.b.bit_length())

    fields = "quadfields.fundamental_discriminants.items"

    def after_recover(fields_before, args, kwargs, result):
        tracer.count("quatalg.recover_ramification.fields_scanned", tracer.counts[(tracer.workload, fields)] - fields_before)
        tracer.count("quatalg.recover_ramification.admissible", result.admissible_field_count)

    def span(name, **hooks):
        return lambda fn: _spanned(tracer, name, fn, **hooks)

    masks = span("quadfields.fundamental_masks", after=counter("quadfields.fundamental_masks.items", lambda r: len(r[0])))
    return [
        (q.cli, "prime_density_report", span("census.prime_density_report")),
        (q.census.PrimePredicate, "members_up_to", span("census.members_up_to", after=after_members)),
        (q.arith, "primes_up_to", span("arith.primes_up_to", after=counter("arith.primes_up_to.items", len))),
        (q.cli, "count_squarefree_over_P", span("census.count_squarefree_over_P", after=counter("census.count_squarefree_over_P.items", int))),
        (q.cli, "algebra_census", span("census.algebra_census", after=counter("census.algebra_census.items", lambda r: r.count))),
        (q.cli, "wood_stats", span("census.wood_stats")),
        (q.census, "fundamental_masks", masks),
        (q.quadfields, "fundamental_masks", masks),
        (q.quatalg, "splitting", lambda fn: _leaf(tracer, "quadfields.splitting", fn)),
        (q.quatalg, "fundamental_discriminants", lambda fn: _counted_items(tracer, fields, fn)),
        (
            q.cli,
            "recover_ramification",
            span("quatalg.recover_ramification", before=lambda: tracer.counts[(tracer.workload, fields)], after=after_recover),
        ),
        (q.cli, "select_q_primes", span("primeforge.select_q_primes")),
        (q.cli, "embeds", span("quatalg.embeds")),
        (q.cli, "fuchsian_coarea", span("volumes.fuchsian_coarea")),
        (q.cli, "construct_fields", span("fieldforge.construct_fields")),
        (q.geodesics, "fundamental_unit", span("geodesics.fundamental_unit", after=after_unit)),
        (q.volumes, "dirichlet_L2", span("volumes.dirichlet_L2")),
    ]


@contextlib.contextmanager
def installed(patches, missing: list):
    """Swap the wrappers in, and always restore the originals."""
    saved = []
    try:
        for owner, attr, make in patches:
            if not hasattr(owner, attr):
                missing.append(f"{owner.__name__}.{attr}")
                continue
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _execute(step, q, child, tracer):
    """One step in this process; returns (exit code, stdout bytes)."""
    if step.kind == "units":
        ds, delta = step.args
        result = child.units_batch([int(d) for d in ds.split(",")], int(delta))
        return 0, (json.dumps(result, sort_keys=True) + "\n").encode()
    out = io.StringIO()
    if tracer:
        tracer.open("cli.main")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = q.cli.main(list(step.args))
    finally:
        if tracer:
            tracer.close()
    return code, out.getvalue().encode()


def _execute_checked(step, q, child, tracer, reference) -> bool:
    try:
        code, stdout = _execute(step, q, child, tracer)
    except Exception:  # a crashing step is a failed operation, as a crashing child would be
        traceback.print_exc()
        return False
    return code == 0 and workloads.outputs_match(step, stdout, reference[step.key])


def _run_op(plan, reference, q, child, tracer=None) -> tuple[float, bool]:
    ok = True
    t0 = time.perf_counter()
    if tracer:
        tracer.workload = plan.workload
        tracer.open(f"op.{plan.workload}")
    try:
        for step in plan.steps:
            ok = _execute_checked(step, q, child, tracer, reference) and ok
    finally:
        if tracer:
            tracer.close()
    return time.perf_counter() - t0, ok


def _scan(q, delta: int, bound: int, shards: int):
    pred = q.census.PrimePredicate(delta, q.fieldforge.construct_fields(delta, 1).extensions)
    t0 = time.perf_counter()
    members = pred.members_up_to(bound, shards=shards)
    return time.perf_counter() - t0, members


def _import_quatsurf(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import quatsurf.arith
    import quatsurf.census
    import quatsurf.cli
    import quatsurf.fieldforge
    import quatsurf.geodesics
    import quatsurf.quadfields
    import quatsurf.quatalg
    import quatsurf.volumes

    if not Path(quatsurf.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"quatsurf imported from {quatsurf.__file__}, not from {src}")
    return quatsurf


# (name, unit, value); each is read from the operation of the workload it belongs to
def _per_layer(t: Tracer, extra: dict) -> list:
    def ratio(a, b):
        return a / b if b else 0.0

    c = t.counts
    members, tested = c[("census", "census.members_up_to.members")], c[("census", "census.members_up_to.primes_tested")]
    fields = c[("recover", "quatalg.recover_ramification.fields_scanned")]
    admissible = c[("recover", "quatalg.recover_ramification.admissible")]
    mask_items = c[("surfaces", "quadfields.fundamental_masks.items")]
    # fundamental_masks holds four int64 arrays (a, a & 3, a >> 2, quarter & 3)
    # and five bool arrays (squarefree table, div4, sf_quarter, neg, pos) per integer
    mask_bytes_per_item = 4 * np.dtype(np.int64).itemsize + 5 * np.dtype(np.bool_).itemsize
    return [
        ("arith.primes_up_to.self_s", "s", t.self_s("census", "arith.primes_up_to")),
        ("arith.primes_up_to.items", "count", c[("census", "arith.primes_up_to.items")]),
        ("census.members_up_to.self_s", "s", t.self_s("census", "census.members_up_to")),
        ("census.members_up_to.primes_tested", "count", tested),
        ("census.members_up_to.members", "count", members),
        ("census.membership.hit_ratio", "1", ratio(members, tested)),
        ("census.count_squarefree_over_P.self_s", "s", t.self_s("census", "census.count_squarefree_over_P")),
        ("census.count_squarefree_over_P.items", "count", c[("census", "census.count_squarefree_over_P.items")]),
        ("census.algebra_census.self_s", "s", t.self_s("census", "census.algebra_census")),
        ("census.algebra_census.items", "count", c[("census", "census.algebra_census.items")]),
        ("census.wood_stats.self_s", "s", t.self_s("surfaces", "census.wood_stats")),
        ("census.scan.shards1_s", "s", extra["shards1_s"]),
        ("census.scan.shards2_s", "s", extra["shards2_s"]),
        ("census.scan.scaling_eff", "1", extra["shards1_s"] / (extra["shards"] * extra["shards2_s"])),
        ("quadfields.fundamental_masks.self_s", "s", t.self_s("surfaces", "quadfields.fundamental_masks")),
        ("quadfields.fundamental_masks.items", "count", mask_items),
        ("quadfields.fundamental_masks.peak_bytes", "B", extra["masks_peak_bytes"]),
        ("quadfields.fundamental_masks.bytes_moved_computed", "B", mask_bytes_per_item * mask_items),
        ("quadfields.splitting.calls", "count", t.calls("recover", "quadfields.splitting")),
        ("quadfields.splitting.self_s", "s", t.self_s("recover", "quadfields.splitting")),
        ("quadfields.fundamental_discriminants.items", "count", c[("recover", "quadfields.fundamental_discriminants.items")]),
        ("quatalg.recover_ramification.self_s", "s", t.self_s("recover", "quatalg.recover_ramification")),
        ("quatalg.recover_ramification.fields_scanned", "count", fields),
        ("quatalg.recover_ramification.admissible", "count", admissible),
        ("quatalg.recover.admissible_ratio", "1", ratio(admissible, fields)),
        ("primeforge.select_q_primes.self_s", "s", t.self_s("surfaces", "primeforge.select_q_primes")),
        ("quatalg.embeds.calls", "count", t.calls("surfaces", "quatalg.embeds")),
        ("volumes.fuchsian_coarea.calls", "count", t.calls("surfaces", "volumes.fuchsian_coarea")),
        ("fieldforge.construct_fields.self_s", "s", t.self_s("census", "fieldforge.construct_fields")),
        ("geodesics.fundamental_unit.self_s", "s", t.self_s("units", "geodesics.fundamental_unit")),
        ("geodesics.fundamental_unit.calls", "count", t.calls("units", "geodesics.fundamental_unit")),
        ("geodesics.unit_bits.total", "count", c[("units", "geodesics.unit_bits.total")]),
        ("volumes.dirichlet_L2.self_s", "s", t.self_s("units", "volumes.dirichlet_L2")),
        ("volumes.dirichlet_L2.peak_bytes", "B", extra["l2_peak_bytes"]),
        ("cli.self_s", "s", sum(t.self_s(w, "cli.main") for w in ("census", "recover", "surfaces"))),
        ("trace.overhead_s", "s", extra["overhead_s"]),
    ]


def _peak_bytes(plans, root: Path, run_child) -> tuple[dict, list]:
    """Peak RSS of one fundamental_masks and one dirichlet_L2 call, each in a
    child, over a child that only imports.  Linux starts a child's ru_maxrss
    at its parent's high-water mark, so this runs before this process grows."""
    child_py = str(Path(__file__).resolve().parent / "child.py")
    out = OUT_DIR / "peak.out"
    calls = (("none", "0"), ("masks", str(plans["surfaces"].disc_bound)), ("l2", plans["units"].steps[0].args[1]))
    runs = {what: run_child([sys.executable, child_py, "peak", what, arg], root, out) for what, arg in calls}
    peaks = {what: (r.rss_kb - runs["none"].rss_kb) * 1024 for what, r in runs.items()}
    return peaks, [r.exit_code == 0 for r in runs.values()]


def run(plan, size: str, root: Path, reference: dict, run_child) -> dict:
    plans = {w: workloads.plan(w, plan.seed, size) for w in workloads.WORKLOADS}
    peaks, oks = _peak_bytes(plans, root, run_child)

    q = _import_quatsurf(root)
    import child

    # the first run of an operation in a process is slower, so the untraced
    # baseline for trace.overhead_s is the second
    _, ok = _run_op(plan, reference, q, child)
    oks.append(ok)

    tracer = Tracer()
    missing = []
    walls = {}
    order = [plan.workload] + [w for w in workloads.WORKLOADS if w != plan.workload]
    with installed(_patches(tracer, q), missing):
        for w in order:
            walls[w], ok = _run_op(plans[w], reference, q, child, tracer)
            oks.append(ok)

    untraced_s, ok = _run_op(plan, reference, q, child)
    oks.append(ok)

    shards = min(2, os.cpu_count() or 1)
    shards1_s, serial = _scan(q, plan.scan_delta, plan.scan_bound, 1)
    shards2_s, sharded = _scan(q, plan.scan_delta, plan.scan_bound, shards)
    oks.append(np.array_equal(serial, sharded))

    extra = {
        "overhead_s": walls[plan.workload] - untraced_s,
        "shards": shards,
        "shards1_s": shards1_s,
        "shards2_s": shards2_s,
        "masks_peak_bytes": peaks["masks"],
        "l2_peak_bytes": peaks["l2"],
    }
    tracer.write(OUT_DIR / f"spans-{plan.workload}-seed{plan.seed}-{size}.jsonl")
    return {
        "metrics": {name: (value, unit) for name, unit, value in _per_layer(tracer, extra)},
        "attempted": len(oks),
        "failed": oks.count(False),
        "samples": {"traced_ops": len(order), "untraced_ops": 2},
        "walls_traced_s": walls,
        "wall_untraced_s": untraced_s,
        "unwrapped": missing,
        "spans": len(tracer.spans),
    }
