"""Child programs the benchmark times in their own process.

    python3 perfbench/child.py units D1,D2,... DELTA   # units batch, JSON on stdout
    python3 perfbench/child.py peak masks X            # one fundamental_masks(X) call
    python3 perfbench/child.py peak l2 DELTA           # one dirichlet_L2(DELTA) call
    python3 perfbench/child.py peak none 0             # the imports alone

quatsurf must be importable (the benchmark sets PYTHONPATH to the checkout's
src).  The peak modes let the parent read one call's peak RSS from wait4,
against the `none` baseline.
"""

import json
import sys

from quatsurf import geodesics, quadfields, quatalg, volumes


def units_batch(ds: list[int], delta: int) -> dict:
    """Geodesic lengths for the real quadratic discriminants ds, and the
    covolume of the algebra ramified at the conjugate pair above the smallest
    odd split prime of Q(sqrt(delta))."""
    lengths = {str(d): geodesics.geodesic_length_real_quadratic(d).length for d in ds}
    k = quadfields.QuadraticField(delta)
    p = quadfields.split_primes_prefix(k, 1).primes[0]
    alg = quatalg.QuatAlgK(delta, frozenset(quadfields.primes_above(k, p)))
    cov = volumes.kleinian_covolume(alg)
    covolume = {
        "delta": delta,
        "ram": p,
        "rational_factor": f"{cov.rational_factor.numerator}/{cov.rational_factor.denominator}",
        "l_value": cov.l_value,
    }
    return {"lengths": lengths, "covolume": covolume}


def main(argv: list[str]) -> int:
    mode, what, arg = argv
    if mode == "units":
        result = units_batch([int(d) for d in what.split(",")], int(arg))
        sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
        return 0
    if mode == "peak":
        if what == "masks":
            quadfields.fundamental_masks(int(arg))
        elif what == "l2":
            volumes.dirichlet_L2(int(arg))
        elif what != "none":
            raise SystemExit(f"unknown peak target {what!r}")
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
