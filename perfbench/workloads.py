"""Workload menus, seed selection and output checks for the quatsurf benchmark.

A seed only picks inputs from the fixed menus below; every entry has a stored
reference output in reference.json (see make_reference.py).  Menus are kept
to entries of similar cost, so that which entry a seed picks does not show up
as run-to-run spread:

- census: delta -7 and -11 scan 8-13% faster than -3, -4 and -8.
- recover: a two-prime pairing costs about 1.8 times a three-prime one, so
  one operation recovers one even pairing and one odd pairing (the odd one
  takes the auxiliary-prime branch), each in its own process.  The pairings
  make 368-380 thousand (even) and 210-217 thousand (odd) splitting calls.
- surfaces: each further --n adds a pass over the ~9 million negative
  discriminants in wood_stats (about 5% of the operation), so n is fixed at 4
  and the seed picks the discriminant bound within 1% of 3e7.
- units: the cost of a 16-prime batch follows the sum of squared bit lengths
  of the units' b coefficients; the starts give 20.9-21.6 (x 10^9) against
  6-55 over the first 48 million-steps above 10^9.  dirichlet_L2's time and
  memory follow its number of terms at the default tol; the covolume
  discriminants need 4.70-4.79 million, against 3.5-5.3 million over the
  first ten fundamental discriminants below -10^6.
"""

import json
import math
import random
from dataclasses import dataclass

# Python source the CLI child runs: the same call the `quatsurf` console script makes.
CLI_MAIN = "import sys; from quatsurf.cli import main; sys.exit(main())"

UNITS_COUNT = 16
L_TOL = 1e-10  # kleinian_covolume's default tol

SIZES = {
    "full": {
        "census_x": "1e14",
        "recover_bounds": ("20000", "500"),
        "disc_bounds": ("2.98e7", "2.99e7", "3e7", "3.01e7", "3.02e7"),
        "unit_starts": (1_003_000_000, 1_004_000_000, 1_010_000_000, 1_032_000_000, 1_036_000_000),
        "covolume_discs": (-1000007, -1000011, -1000019),
        "scan_bound": 10**7,
    },
    # reduced inputs for selfcheck.py
    "small": {
        "census_x": "1e10",
        "recover_bounds": ("2000", "100"),
        "disc_bounds": ("9.8e4", "9.9e4", "1e5", "1.01e5", "1.02e5"),
        "unit_starts": (1_003_000, 1_004_000, 1_010_000, 1_032_000, 1_036_000),
        "covolume_discs": (-10007, -10011, -10019),
        "scan_bound": 10**5,
    },
}

CENSUS_DELTAS = (-3, -4, -8)
RECOVER_EVEN = ("5 13", "5 17", "5 29")
RECOVER_ODD = ("5 13 17", "5 13 29", "5 17 29", "5 13 37")
SURFACES_N = 4

WORKLOADS = ("census", "recover", "surfaces", "units")


@dataclass(frozen=True)
class Step:
    """One child-process invocation: a CLI command or a units batch."""

    kind: str  # "cli" or "units"
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join((self.kind,) + self.args)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    steps: tuple[Step, ...]  # one operation runs these in order
    scan_delta: int  # base field of the sharded-scan timing
    scan_bound: int
    disc_bound: int  # fundamental_masks size of the surfaces entry


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_1mod4_above(start: int, count: int) -> list[int]:
    """The count smallest primes p > start with p = 1 (mod 4): positive fundamental discriminants."""
    out = []
    n = start + 1
    n += (1 - n) % 4
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += 4
    return out


def _census(cfg, delta):
    return Step("cli", ("census", "--delta", str(delta), "--n", "1", "--x", cfg["census_x"]))


def _recover(cfg, pairs):
    d_bound, p_bound = cfg["recover_bounds"]
    return Step("cli", ("recover", "--delta", "-4", "--pairs", *pairs.split(), "--d-bound", d_bound, "--p-bound", p_bound))


def _surfaces(disc_bound):
    return Step("cli", ("surfaces-demo", "--n", str(SURFACES_N), "--disc-bound", disc_bound))


def _units(cfg, start, disc):
    ds = primes_1mod4_above(start, UNITS_COUNT)
    return Step("units", (",".join(map(str, ds)), str(disc)))


def plan(workload: str, seed: int, size: str = "full") -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = SIZES[size]
    rng = random.Random(f"{workload}/{seed}")
    delta = rng.choice(CENSUS_DELTAS)
    disc_bound = rng.choice(cfg["disc_bounds"])
    if workload == "census":
        steps = (_census(cfg, delta),)
    elif workload == "recover":
        steps = (_recover(cfg, rng.choice(RECOVER_EVEN)), _recover(cfg, rng.choice(RECOVER_ODD)))
    elif workload == "surfaces":
        steps = (_surfaces(disc_bound),)
    else:
        steps = (_units(cfg, rng.choice(cfg["unit_starts"]), rng.choice(cfg["covolume_discs"])),)
    return Plan(workload, seed, steps, delta, cfg["scan_bound"], int(float(disc_bound)))


def all_steps(size: str) -> list[Step]:
    """Every menu entry of one size, for writing references."""
    cfg = SIZES[size]
    return (
        [_census(cfg, delta) for delta in CENSUS_DELTAS]
        + [_recover(cfg, pairs) for pairs in RECOVER_EVEN + RECOVER_ODD]
        + [_surfaces(disc_bound) for disc_bound in cfg["disc_bounds"]]
        + [_units(cfg, start, disc) for start in cfg["unit_starts"] for disc in cfg["covolume_discs"]]
    )


def outputs_match(step: Step, stdout: bytes, expected: str) -> bool:
    """Compare one step's standard output with its reference.

    CLI data streams must be byte-identical.  Units batches carry floats:
    lengths must agree to 12 significant digits, the covolume's rational
    factor exactly, and its L-value within 2*tol, since the reference and
    the run each carry a proven tail bound of at most tol.
    """
    if step.kind == "cli":
        return stdout == expected.encode()
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    want = json.loads(expected)
    if got.keys() != want.keys() or got["lengths"].keys() != want["lengths"].keys():
        return False
    for d, length in want["lengths"].items():
        if not math.isclose(got["lengths"][d], length, rel_tol=5e-12):
            return False
    g, w = got["covolume"], want["covolume"]
    return (
        (g["delta"], g["ram"], g["rational_factor"]) == (w["delta"], w["ram"], w["rational_factor"])
        and abs(g["l_value"] - w["l_value"]) <= 2 * L_TOL
    )
