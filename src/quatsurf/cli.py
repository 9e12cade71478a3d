"""Command-line surface: batch pipelines with CSV data and JSON manifests.

Four subcommands wire the library into end-to-end runs: construct-fields
(build and certify a family of extensions), census (prime density, squarefree
census, and algebra count for one family), surfaces-demo (select primes,
build the rational algebras with the diagonal embedding pattern, evaluate
coareas, lengths, and the splitting statistics), and recover (reconstruct an
algebra's split-prime pairing from quadratic subfield data).

Every run is deterministic: identical flags give byte-identical data output.
CSV goes to stdout (or --out DIR/<command>.csv) with a mandatory header row;
a flat JSON manifest describing flags and schema goes to stderr (or
--out DIR/manifest.json).  --json swaps the CSV for a single JSON document
containing both manifest and rows.  Floats print with 12 significant digits.
Exit codes: 0 success, 2 usage or validation, 3 internal verification
failure, 4 starved search bounds (BoundsTooSmall, SearchCapExceeded).
"""

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, census
from .census import (
    PrimePredicate,
    algebra_census,
    count_squarefree_over_P,
    default_checkpoints,
    mean_value_fit,
    prime_density_report,
)
from .errors import BoundsTooSmall, SearchCapExceeded, VerificationError
from .fieldforge import construct_fields
from .geodesics import geodesic_length_real_quadratic, height_and_length_bounds, surface_obstruction
from .primeforge import select_q_primes, verify_splitting_matrix
from .quadfields import QuadraticField, SplitType, primes_above, splitting, wood_stats
from .quatalg import QuatAlgK, QuatAlgQ, embeds, fuchsian_admissible, recover_ramification
from .volumes import fuchsian_coarea

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3
EXIT_STARVED = 4


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, SplitType):
        return value.value
    return str(value)


def _emit(args, command: str, columns: list[str], rows: list[dict], extra_manifest: dict) -> None:
    manifest = {"command": command, "version": __version__, "schema": ",".join(columns)}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "out", "json") or value is None:
            continue
        # manifests are flat objects: collapse multi-valued flags to one string
        manifest[f"flag_{key}"] = ",".join(map(str, value)) if isinstance(value, (list, tuple)) else value
    manifest.update(extra_manifest)

    if args.json:
        doc = json.dumps(
            {"manifest": manifest, "rows": [{c: _fmt(r.get(c)) for c in columns} for r in rows]},
            sort_keys=True,
            indent=2,
        )
        docs = [(f"{command}.json", doc + "\n", sys.stdout)]
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
        docs = [(f"{command}.csv", buf.getvalue(), sys.stdout), ("manifest.json", json.dumps(manifest, sort_keys=True) + "\n", sys.stderr)]
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        for name, text, _ in docs:
            (Path(args.out) / name).write_text(text)
    else:
        for _, text, stream in docs:
            stream.write(text)


# --- construct-fields ---------------------------------------------------------

def _cmd_construct_fields(args) -> int:
    if args.search_cap < 0:
        raise ValueError(f"--search-cap must be >= 0, got {args.search_cap}")
    result = construct_fields(args.delta, args.n, search_cap=args.search_cap)
    rows = []
    for row, ext, galois in zip(result.rows, result.extensions, result.galois_flags):
        height_bound, length_bound = height_and_length_bounds(row.disc_bound)
        witness = result.compositum.witnesses[row.index - 1]
        rows.append(
            {
                "i": row.index,
                "p": row.prime,
                "root": row.root,
                "t": row.t,
                "x": row.x,
                "min_poly": str(row.min_poly),
                "poly_disc": row.poly_disc,
                "disc_bound": row.disc_bound,
                "bound_over_n8": row.bound_over_n8,
                "galois": galois,
                "witness_prime": witness.p,
                "surface_obstruction": surface_obstruction(ext),
                "height_bound": height_bound,
                "length_bound": length_bound,
                "length_bound_over_n16": length_bound / args.n**16,
            }
        )
    extra = {
        "certified": result.certified,
        "linnik_ratio": _fmt(result.linnik_ratio),
        "max_disc_bound": result.max_disc_bound,
    }
    _emit(args, "construct-fields", list(rows[0]), rows, extra)
    return EXIT_OK


# --- census -------------------------------------------------------------------

_CENSUS_COLUMNS = ["table", "checkpoint", "count", "ratio"]


def _cmd_census(args) -> int:
    if args.shards < 1:
        raise ValueError(f"--shards must be at least 1, got {args.shards}")
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    x_bound = args.x
    if x_bound < 100:
        raise ValueError("--x too small")
    # diagnostic tables run at the natural inner scale sqrt(x); the algebra
    # census itself keeps the strict |disc_f| < x cutoff
    scan_bound = math.isqrt(x_bound)
    if scan_bound >= census.SCAN_LIMIT:
        raise ValueError(f"--x must be below {census.SCAN_LIMIT}^2, the prime scan's int64 range, got {x_bound}")
    if args.checkpoints and min(args.checkpoints) < 2:
        # the ratio columns divide by log(checkpoint)
        raise ValueError(f"--checkpoints must be at least 2, got {min(args.checkpoints)}")
    if args.checkpoints and max(args.checkpoints) > scan_bound:
        raise ValueError(f"--checkpoints must be at most isqrt(--x) = {scan_bound}, got {max(args.checkpoints)}")
    exts = construct_fields(args.delta, args.n).extensions if args.n else []
    pred = PrimePredicate(args.delta, exts)
    tau = 0.5 ** (2 * args.n + 1)

    progress = None
    if args.progress:

        def progress(upto):
            sys.stderr.write(f"scanned primes to {upto}\n")

    # every table below reads this one scan of P from the predicate's cache
    pred.members_up_to(scan_bound, shards=args.shards, progress=progress)
    checkpoints = sorted(set(args.checkpoints)) if args.checkpoints else default_checkpoints(scan_bound)

    rows = []
    if scan_bound >= 100:
        density = prime_density_report(pred, scan_bound, checkpoints)
        for r in density.rows:
            rows.append({"table": "prime_density", "checkpoint": r.checkpoint, "count": r.count, "ratio": r.ratio})

    counts = []
    for c in checkpoints:
        n_c = count_squarefree_over_P(pred, c)
        counts.append((c, n_c))
        rows.append(
            {
                "table": "squarefree",
                "checkpoint": c,
                "count": n_c,
                "ratio": n_c / (c * math.log(c) ** (tau - 1)),
            }
        )
    if len(counts) >= 3 and counts[-1][0] >= 100 * counts[0][0]:
        fit = mean_value_fit(counts, tau)
        rows.append({"table": "mean_value_fit", "checkpoint": scan_bound, "count": None, "ratio": fit.constant})

    cutoff = min(x_bound, 10**8)  # keep the explicit algebra list small
    cens = algebra_census(pred, cutoff)
    rows.append(
        {
            "table": "algebra_census",
            "checkpoint": cutoff,
            "count": cens.count,
            "ratio": None if cens.count == 0 else cens.count / (math.sqrt(cutoff) * math.log(math.sqrt(cutoff)) ** (tau - 1)),
        }
    )
    _emit(args, "census", _CENSUS_COLUMNS, rows, {"tau": _fmt(tau), "scan_bound": scan_bound})
    return EXIT_OK


# --- surfaces-demo ------------------------------------------------------------

_DEMO_COLUMNS = ["table", "key", "i", "j", "value"]


def _cmd_surfaces_demo(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    # wood_stats refuses bounds below 10^4, and its memory grows with sqrt(--disc-bound)
    if not 10**4 <= args.disc_bound <= 2**53:
        raise ValueError(f"--disc-bound must lie between 10^4 and 2^53, got {args.disc_bound}")
    n = args.n
    selection = select_q_primes(n)
    ps, qs = selection.p_primes, selection.q_primes
    q_final = selection.q_final

    rows = []
    for i, p in enumerate(ps, start=1):
        rows.append({"table": "selection", "key": "p", "i": i, "value": p})
    for i, q in enumerate(qs, start=1):
        rows.append({"table": "selection", "key": "q", "i": i, "value": q})

    matrix = verify_splitting_matrix(ps, qs)
    for i, row in enumerate(matrix, start=1):
        for j, s in enumerate(row, start=1):
            rows.append({"table": "splitting_matrix", "key": "q_in_Q_sqrt_p", "i": i, "j": j, "value": s})

    algebras = [QuatAlgQ(frozenset({q_final, qs[i]})) for i in range(n)]
    fields = [QuadraticField(p) for p in ps]
    for i, b in enumerate(algebras, start=1):
        for j, ell in enumerate(fields, start=1):
            flag = embeds(b, ell)
            if flag != (i == j):
                raise VerificationError(f"embedding matrix wrong at ({i}, {j})")
            rows.append({"table": "embedding", "key": "embeds", "i": i, "j": j, "value": flag})

    nlog = (n * math.log(2 * n)) ** 2
    for i, (b, p) in enumerate(zip(algebras, ps), start=1):
        coarea = fuchsian_coarea(b)
        length = geodesic_length_real_quadratic(p).length
        rows.append({"table": "surface", "key": "ram", "i": i, "value": "{" + f"{q_final},{qs[i - 1]}" + "}"})
        rows.append({"table": "surface", "key": "coarea_pi_multiple", "i": i, "value": coarea.pi_multiple})
        rows.append({"table": "surface", "key": "coarea", "i": i, "value": coarea.value})
        rows.append({"table": "surface", "key": "length", "i": i, "value": length})
        rows.append({"table": "surface", "key": "length_over_nlog2n_sq", "i": i, "value": length / nlog})
        rows.append(
            {
                "table": "surface",
                "key": "log_coarea_over_n_log_n",
                "i": i,
                "value": math.log(coarea.value) / (n * math.log(n)) if n > 1 else None,
            }
        )

    stats = wood_stats(q_final, qs[:n], args.disc_bound)
    rows.append({"table": "wood", "key": "count", "value": stats.count})
    rows.append({"table": "wood", "key": "predicted", "value": stats.predicted})
    rows.append({"table": "wood", "key": "ratio", "value": stats.ratio})

    rows.append({"table": "bounds", "key": "max_q", "value": selection.max_q})
    rows.append({"table": "bounds", "key": "log_max_q_over_n_log_n", "value": math.log(selection.max_q) / (n * math.log(n)) if n > 1 else None})

    if args.linnik_report:
        for i, p in enumerate(ps, start=1):
            rows.append({"table": "linnik", "key": "p_over_i_log_2i", "i": i, "value": p / (i * math.log(2 * i))})

    _emit(args, "surfaces-demo", _DEMO_COLUMNS, rows, {"q_final": q_final})
    return EXIT_OK


# --- recover ------------------------------------------------------------------

_RECOVER_COLUMNS = ["table", "key", "value"]


def _cmd_recover(args) -> int:
    # the discriminant walk sieves with the primes up to sqrt(--d-bound), as in surfaces-demo
    if not 1 <= args.d_bound <= 2**53:
        raise ValueError(f"--d-bound must lie between 1 and 2^53, got {args.d_bound}")
    if args.p_bound < 1:
        raise ValueError(f"--p-bound must be at least 1, got {args.p_bound}")
    k = QuadraticField(args.delta)
    ram = set()
    for p in args.pairs:
        if splitting(k, p) is not SplitType.SPLIT:
            raise ValueError(f"{p} does not split in the field of discriminant {args.delta}")
        ram.update(primes_above(k, p))
    b = QuatAlgK(args.delta, frozenset(ram))
    pairing = fuchsian_admissible(b)
    result = recover_ramification(b, args.d_bound, args.p_bound)

    recovered = set(result.primes)
    target = set(pairing.primes)
    rows = [{"table": "recovered", "key": "prime", "value": p} for p in result.primes]
    rows.append({"table": "report", "key": "admissible_fields", "value": result.admissible_field_count})
    rows.append({"table": "report", "key": "containment", "value": target <= recovered})
    rows.append({"table": "report", "key": "equality", "value": target == recovered})
    _emit(args, "recover", _RECOVER_COLUMNS, rows, {})
    return EXIT_OK


def _integer(text: str) -> int:
    """An exact integer written as an integer or in decimal or scientific
    notation ("100000", "1e14", "2.5e3"); anything that is not an integer
    value, such as "1000.5", is a usage error (exit 2)."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if value.denominator != 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return value.numerator


def _integers(text: str) -> list[int]:
    """A comma-separated list of _integer values."""
    return [_integer(item) for item in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quatsurf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit one JSON document instead of CSV")
        p.add_argument("--out", help="directory for data + manifest files (default: stdout/stderr)")

    p = sub.add_parser("construct-fields", help="build and certify a family of quadratic extensions")
    p.add_argument("--delta", type=int, required=True, help="negative fundamental discriminant of the base field")
    p.add_argument("--n", type=int, required=True, help="number of extensions")
    p.add_argument("--search-cap", type=int, default=100_000)
    common(p)
    p.set_defaults(func=_cmd_construct_fields)

    p = sub.add_parser("census", help="prime density, squarefree census, and algebra count")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, default=1, help="family size (0 = bare split primes)")
    p.add_argument("--x", type=_integer, required=True, help="discriminant-norm bound, an integer such as 1e8")
    p.add_argument("--checkpoints", type=_integers, help="comma-separated integer checkpoints (default: powers of 10)")
    p.add_argument("--shards", type=int, default=1, help="worker processes for the prime scan (clamped to the CPUs this process may use)")
    p.add_argument("--progress", action="store_true", help="progress lines on the diagnostic stream")
    common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("surfaces-demo", help="n geodesics on pairwise distinct surfaces, with bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--disc-bound", type=_integer, default=10**5, help="discriminant bound for the splitting statistics, an integer from 10^4 to 2^53")
    p.add_argument("--linnik-report", action="store_true", help="tabulate p_i against i*log(2i)")
    common(p)
    p.set_defaults(func=_cmd_surfaces_demo)

    p = sub.add_parser("recover", help="recover an algebra's split-prime pairing from subfield data")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--pairs", type=int, nargs="+", required=True, help="rational split primes carrying the ramification")
    p.add_argument("--d-bound", type=_integer, default=200, help="bound on |D| of the quadratic fields scanned, an integer such as 2e3")
    p.add_argument("--p-bound", type=_integer, default=100, help="bound on the candidate primes, an integer such as 1e6")
    common(p)
    p.set_defaults(func=_cmd_recover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION
    except (BoundsTooSmall, SearchCapExceeded) as exc:
        sys.stderr.write(f"bounds too small: {exc}\n")
        return EXIT_STARVED


if __name__ == "__main__":
    sys.exit(main())
