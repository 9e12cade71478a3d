"""Counting engines: restricted prime sets and squarefree censuses.

The prime set P attached to a family of relative quadratic extensions
consists of the rational primes p that split in the base field k and whose
primes of k see every generator beta_i and conjugate reduce to a nonsquare.
Bulk scans run one engine over segments of the sieve arith.prime_strip, in
int64 numpy (exact below SCAN_LIMIT, where p^2 + p < 2^63), and take one of
two paths, chosen from the input alone.  When k has class number one, every
split prime is a value of the principal form, and membership for the
generators with lcm(4*N(beta)) <= TABLE_MODULUS is a function of the
argument classes mod that lcm (_class_table); each segment walks the lattice
points of the admitted classes only and marks them in the window's odd-only
strip in place, so no segment collects or sorts its primes (_walk_segment).
Otherwise the primes come from the strip, and each fixed symbol (delta|p) or
(x^2 - delta|p) is one quadfields.symbol_column of the discriminant of
Q(sqrt(delta)) or Q(sqrt(x^2 - delta)).  Either way each generator left costs one power of
x + sqrt(delta) in F_p[t]/(t^2 - delta), Euler's criterion in the split
algebra, so no square root mod p is taken.  Single queries (in_P) take the
Kronecker symbols (delta|p) and (x +- r|p) at r = arith.mod_sqrt(delta, p),
exact for any p.  The members are held once, as one uint32 array that each
segment extends in place (PrimePredicate.members_up_to).  Squarefree integers
supported on P are products of distinct members, expanded level by level in
numpy; counts expand only the products that have children of their own and
count the rest by searchsorted.
"""

import bisect
import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import arith
from .errors import BoundaryPrimeError, VerificationError
from .quadfields import QuadraticField, primes_above, symbol_column
from .quatalg import QuatAlgK, embeds, fuchsian_admissible
from .relquad import RelQuadExt


SEGMENT = arith.SEGMENT
"""Integers per scan segment: one sieve window, and well under 1 MB per int64 lane array."""

SCAN_LIMIT = arith.POWMOD_LIMIT  # scans multiply residues in int64 (arith.powmod)


def _power_in_k(x: np.ndarray, d: np.ndarray, e: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) with (x + t)^e = u + v*t in F_p[t]/(t^2 - d), elementwise, by
    left-to-right square-and-multiply; x and d are residues mod p.

    Every int64 product is of two residues below p, plus at most one more
    residue, so each intermediate stays below p^2 + p < 2^63 for p < SCAN_LIMIT.
    """
    u, v = np.ones_like(p), np.zeros_like(p)
    for bit in reversed(range(int(e.max(initial=0)).bit_length())):
        u, v = (u * u + d * v % p * v % p) % p, u * v % p * 2 % p
        odd = (e >> bit) & 1 == 1
        u, v = np.where(odd, (u * x + d * v % p) % p, u), np.where(odd, (v * x + u) % p, v)
    return u, v


CLASS_NUMBER_ONE = (-3, -4, -7, -8, -11, -19, -43, -67, -163)
"""The imaginary quadratic discriminants of class number one (Baker-Heegner-Stark)."""

TABLE_MODULUS = 64
"""Largest modulus M of an admitted-class table: its M^2 classes take one pair
of Jacobi symbols each (0.6-3 ms for M = 20 to 48, 0.1 s at M = 260)."""

WALK_CHUNK = 1 << 13
"""Lattice points per repeat/cumsum expansion of the principal-form walk, and
runs per block of b: each int64 array of a block or a chunk is 64 KB, under
glibc's 128 KiB mmap threshold, so chunks reuse freed heap pages instead of
mapping fresh ones.  A chunk marks its points in the prime strip and is
freed, so no per-chunk result outlives it."""


def _table_plan(delta: int, xs: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(M, the generators an admitted-class table decides): each x in turn joins
    while M = lcm of the 4*N(beta) stays <= TABLE_MODULUS.  Only class number
    one puts every split prime on the principal form, so other delta get (1, ())."""
    M, chosen = 1, ()
    if delta in CLASS_NUMBER_ONE:
        for x in xs:
            m = math.lcm(M, 4 * (x * x - delta))
            if m <= TABLE_MODULUS:
                M, chosen = m, chosen + (x,)
    return M, chosen


def _class_table(delta: int, xs: tuple[int, ...], M: int) -> np.ndarray:
    """Admitted classes of the principal form f(a, b) = a^2 + Bab + Cb^2 of
    discriminant delta (B = delta mod 2), as a bool (M, M) array indexed by
    (a mod M, b mod M): True where every prime p = f(a, b) outside the boundary
    set meets, for every x of xs, (x + r|p) = (x - r|p) = -1.

    With L = 2a + Bb, L^2 - delta*b^2 = 4f(a, b), so r = L/b is a square root
    of delta mod p and (x +- r|p) = (b(xb +- L)|p), with no root or inverse.
    alpha = (L + b*sqrt(delta))/2 has norm f(a, b), and for primitive (a, b)
    with f(a, b) prime to 2*N(beta) the Jacobi symbol (b(xb + L)|f(a, b)) is
    the quadratic residue symbol of beta-bar (beta = x + sqrt(delta)) at the
    ideal (alpha), multiplied over its prime factors, all of degree one.  By
    quadratic reciprocity in k (no real places) that is a Hecke character of
    alpha modulo 4*beta-bar, so it depends on (a, b) mod 4*N(beta) only
    (Cox, Primes of the form x^2 + ny^2, sections 2-3 and 9; Lemmermeyer,
    Reciprocity Laws).  Each class is therefore read exactly at one
    representative, composite or not: (a0 + kM, b0 + M) with the least k >= 0
    making it primitive, so n = f(a, b) is odd and prime to b.  A class with
    f(a0, b0) sharing a factor with M holds no prime outside the boundary set
    (every prime of M divides 2*N(beta)), so it is False.
    """
    B = delta & 1
    C = (B - delta) // 4
    table = np.zeros((M, M), dtype=bool)
    for a0 in range(M):
        for b0 in range(M):
            if math.gcd(a0 * a0 + B * a0 * b0 + C * b0 * b0, M) > 1:
                continue
            b = b0 + M
            a = next(a for a in itertools.count(a0, M) if math.gcd(a, b) == 1)
            n, L = a * a + B * a * b + C * b * b, 2 * a + B * b
            table[a0, b0] = all(arith.kronecker(b * (x * b + L), n) == -1 == arith.kronecker(b * (x * b - L), n) for x in xs)
    return table


def _walk_segment(delta: int, table: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The primes f(a, b) in [lo, hi], ascending, over the lattice points
    (a, b) of the admitted classes of table (see _class_table).

    alpha = (L + b*sqrt(delta))/2, L = 2a + Bb, has norm f(a, b).  A split
    prime p = alpha*alpha-bar has 2w elements of norm p, the w units times
    alpha and alpha-bar, one in each sector of angle 180/w degrees; the walk
    takes the first sector, b >= 1 and L >= s*b with s = cot(180/w)*sqrt|delta|,
    that is 2a + Bb >= 0 (w = 2), and a >= b for delta = -4 (w = 4) and
    delta = -3 (w = 6), so every prime is found once.  Per b, the a-interval
    comes from float square roots of 4*lo - |delta|b^2 and 4*hi - |delta|b^2,
    widened to whole numbers; exactness comes from the integer test
    lo <= f(a, b) <= hi.  Each admitted residue a0 of the column b mod M gives
    one run a0 + M*j.  The b are taken in blocks of at most WALK_CHUNK runs,
    and the runs expanded with repeat and cumsum at most WALK_CHUNK points at
    a time, so memory is the window's odd-only arith.prime_strip (512 KB),
    which decides primality, plus a few int64 arrays of WALK_CHUNK entries at
    any lo, each small enough to come from the heap rather than fresh mapped
    pages.

    Every point is odd: _class_table admits no class whose f(a0, b0) shares a
    factor with M, and 4 divides M.  So the point v sits at entry (v - lo) >> 1
    of the strip, for either parity of lo.  Viewed as uint8, the strip has
    that entry doubled for each chunk's points in range; one fancy-index
    assignment doubles a repeated point once, and the sectors above find each
    prime once, so a prime's entry reaches 2 at most.  One right shift in
    place leaves 1 exactly at the primes walked, read in ascending order by
    one flatnonzero: no chunk's points are kept, concatenated or sorted.
    """
    M = len(table)
    B, q = delta & 1, -delta
    C = (B + q) // 4
    strip = arith.prime_strip(lo, hi).view(np.uint8)
    counts = np.count_nonzero(table, axis=0)
    width = int(counts.max())
    residues = np.argsort(~table, axis=0, kind="stable")[:width].T  # row b0: its admitted a0 first
    b_top = math.isqrt(4 * hi // q)
    step = WALK_CHUNK // max(width, 1)  # b per block, so a block has at most WALK_CHUNK runs
    for b_lo in range(1, b_top + 1, step):
        b = np.arange(b_lo, min(b_lo + step, b_top + 1))
        qb2, Bb = q * b * b, B * b
        first = np.floor((np.sqrt(np.maximum(4 * lo - qb2, 0)) - Bb) / 2).astype(np.int64)
        first = np.maximum(first, b if q in (3, 4) else -(Bb // 2))
        last = np.ceil((np.sqrt(4 * hi - qb2) - Bb) / 2).astype(np.int64)
        col = b % M
        starts = first[:, None] + (residues[col] - first[:, None]) % M
        runs = (last[:, None] - starts) // M + 1
        runs[np.arange(width) >= counts[col][:, None]] = 0
        live = runs > 0
        starts, runs, bs = starts[live], runs[live], np.broadcast_to(b[:, None], live.shape)[live]
        ends = np.cumsum(runs)
        i = 0
        while i < len(runs):
            j = int(np.searchsorted(ends, ends[i] - runs[i] + WALK_CHUNK, side="right"))
            n, offset = runs[i:j], ends[i] - runs[i]
            a = np.repeat(starts[i:j] - M * (ends[i:j] - n - offset), n)
            a += M * np.arange(ends[j - 1] - offset)
            bb = np.repeat(bs[i:j], n)
            v = a + B * bb
            v *= a
            bb *= bb
            bb *= C
            v += bb
            strip[(v[(v >= lo) & (v <= hi)] - lo) >> 1] <<= 1  # duplicates double once
            i = j
    strip >>= 1
    return np.flatnonzero(strip) * 2 + (lo | 1)


def _scan_segment(
    delta: int, xs: tuple[int, ...], boundary: tuple[int, ...], discs: tuple[int, ...], table: np.ndarray | None, lo: int, hi: int
) -> np.ndarray:
    """Members of P in [lo, hi]; standalone so segments can run in worker processes.

    With an admitted-class table (class number one, see _class_table) the
    primes come from _walk_segment: split by construction, and already
    decided for the table's generators.  Without one (table None) they come
    from the sieve.  Then the cheap conditions go first: each fixed symbol
    (n|p) = 1 of discs is one symbol_column of the discriminant of Q(sqrt(n)).
    Prime-side these are n = delta and every x^2 - delta; after the walk only
    the x^2 - delta of the generators left in xs, since a table's pair of
    symbols -1 implies its own.  Each generator of xs then costs one ring
    power: on split p, t -> +-r, r^2 = delta, splits F_p[t]/(t^2 - delta)
    into F_p x F_p, so (x + t)^((p-1)/2) has first coordinate
    u = ((x + r|p) + (x - r|p)) / 2, and u = -1 exactly when both symbols
    are -1, with no square root.
    """
    ps = arith.primes_between(lo, hi) if table is None else _walk_segment(delta, table, lo, hi)
    ps = ps[~np.isin(ps, boundary)]
    for disc in discs:
        ps = ps[symbol_column(disc, ps) == 1]
    for x in xs:
        u, _ = _power_in_k(arith.residues(x, ps), arith.residues(delta, ps), (ps - 1) >> 1, ps)
        ps = ps[u == ps - 1]
    return ps


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class PrimePredicate:
    """Deterministic membership test for the prime set P of a family of extensions.

    The finitely many primes dividing 2, delta_k, or any norm x_i^2 - delta_k
    are excluded from P by convention (they change nothing asymptotically);
    in_P raises BoundaryPrimeError on them.  An empty family gives the split
    primes of k.  Scans are cached as an ascending member array.
    """

    def __init__(self, delta_k: int, exts: Sequence[RelQuadExt] = ()):
        k = QuadraticField(delta_k)
        if not k.is_imaginary:
            raise ValueError("base field must be imaginary quadratic")
        for e in exts:
            if e.delta_k != delta_k:
                raise ValueError("extension base field mismatch")
        self.delta_k = delta_k
        self.exts = tuple(RelQuadExt(delta_k, e.x) for e in exts)
        self.xs = tuple(e.x for e in self.exts)
        values = (delta_k,) + tuple(e.norm_beta for e in self.exts)
        factors = [arith.factorize(n) for n in values]
        self.boundary = frozenset({2}.union(*factors))
        # each fixed symbol (n|p) is chi_D(p) for D the discriminant of Q(sqrt(n)):
        # the squarefree kernel a of n, or 4a when a != 1 (mod 4)
        kernels = [math.prod(q for q, e in f.items() if e % 2) * (1 if n > 0 else -1) for n, f in zip(values, factors)]
        self._discs = tuple(a if a % 4 == 1 else 4 * a for a in kernels)
        self._members = np.empty(0, dtype=np.uint32)
        self._scanned_to = 1

    def in_P(self, p: int) -> bool:
        """Membership of the prime p: p must split in k, and at a fixed prime
        of k above p every beta and conjugate must reduce to a nonsquare;
        conjugate symmetry makes the choice of the prime above p irrelevant."""
        if not arith.is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in self.boundary:
            raise BoundaryPrimeError(f"boundary prime {p} - excluded by convention")
        if arith.kronecker(self.delta_k, p) != 1:
            return False
        r = arith.mod_sqrt(self.delta_k, p)
        return all(arith.kronecker(x + r, p) == arith.kronecker(x - r, p) == -1 for x in self.xs)

    def _segment_scan(self) -> Callable[[int, int], np.ndarray]:
        """_scan_segment(lo, hi) for this family, with the admitted-class table,
        when there is one, built here once for the whole scan, and the
        generators and fixed symbols it leaves open."""
        M, tabled = _table_plan(self.delta_k, self.xs)
        table = _class_table(self.delta_k, tabled, M) if tabled else None
        rest = [(x, disc) for x, disc in zip(self.xs, self._discs[1:]) if x not in tabled]
        discs = tuple(disc for _, disc in rest) if tabled else self._discs
        return functools.partial(_scan_segment, self.delta_k, tuple(x for x, _ in rest), tuple(sorted(self.boundary)), discs, table)

    def members_up_to(self, bound: int, shards: int = 1, progress: Callable[[int], None] | None = None) -> np.ndarray:
        """Ascending uint32 array of the members of P up to bound (cached).

        The scan runs in segments of SEGMENT integers; shards > 1 spreads them
        over at most _usable_cpus() worker processes.  progress(hi) is called
        once per segment, in ascending order.  Bounds from SCAN_LIMIT on are
        refused, since the int64 arithmetic would no longer be exact; below
        it every member fits in 32 bits.

        The result is a view of the cache, one numpy array to which each
        segment's members are appended in place: ndarray.resize reallocs it
        (mremap once it is large, so its pages are not copied), by exactly the
        segment's members, so it holds no zero-filled slack and the members
        are never held twice.  A scan past the cache starts from one copy of
        it, so a view handed out earlier keeps the old array and stays valid.
        Callers that search the result keep their keys uint32, or numpy would
        search an int64 copy.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if bound >= SCAN_LIMIT:
            raise ValueError(f"scan bound {bound} is beyond the exact int64 range (< {SCAN_LIMIT})")
        if bound > self._scanned_to:
            scan = self._segment_scan()
            los = range(self._scanned_to + 1, bound + 1, SEGMENT)
            his = [min(bound, lo + SEGMENT - 1) for lo in los]
            workers = min(shards, _usable_cpus(), len(los))
            members = self._members.copy()  # views handed out keep the old array
            with contextlib.ExitStack() as stack:
                if workers > 1:
                    from concurrent.futures import ProcessPoolExecutor  # only sharded scans pay its import

                    results = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map(scan, los, his)
                else:
                    results = map(scan, los, his)
                for hi, found in zip(his, results):
                    n = len(members)
                    # no refcheck, which a tracer's extra references would trip: members is this scan's own copy,
                    # and its one view, members[n:], dies before the next resize
                    members.resize(n + len(found), refcheck=False)  # realloc: no second copy of the members
                    members[n:] = found
                    if progress:
                        progress(hi)
            self._members = members
            self._scanned_to = bound
        return self._members[: bisect.bisect_right(self._members, bound)]


class DensityRow(NamedTuple):
    checkpoint: int
    count: int
    ratio: float  # count * log(checkpoint) / checkpoint


@dataclass(frozen=True)
class DensityReport:
    rows: list[DensityRow]

    @property
    def final_ratio(self) -> float:
        return self.rows[-1].ratio


def default_checkpoints(bound: int) -> list[int]:
    """Powers of 10 from 100 up to bound, always including bound itself."""
    cps = []
    c = 100
    while c < bound:
        cps.append(c)
        c *= 10
    cps.append(bound)
    return cps


def prime_density_report(pred: PrimePredicate, bound: int, checkpoints: Sequence[int] | None = None) -> DensityReport:
    """Counts of P up to geometric checkpoints, normalized by x/log(x).

    For a family of n extensions the normalized count approaches 1/2^(2n+1):
    split primes have density 1/2 and each of the 2n nonsquare conditions
    halves it again.  The counts read pred.members_up_to(c) at each
    checkpoint c, which scans only past what the predicate has cached: a
    caller that wants shards or progress scans first with
    members_up_to(bound, shards=..., progress=...).
    """
    if bound < 100:
        raise ValueError("bound too small to say anything")
    cps = sorted(set(checkpoints)) if checkpoints else default_checkpoints(bound)
    if cps[-1] > bound:
        raise ValueError("checkpoint beyond the scan bound")
    return DensityReport([DensityRow(c, n, n * math.log(c) / c) for c, n in zip(cps, map(len, map(pred.members_up_to, cps)))])


def _squarefree_levels(members: np.ndarray, keys: np.ndarray, bound: int):
    """Levels k = 0, 1, ... of products v of k distinct members of the
    ascending uint32 array members, as arrays (v, i) with members[i] the
    largest factor of v; level 0 is the empty product v = 1, i = -1.

    The children of v are v * members[j] for the j > i with
    keys[j] <= bound // v, a run found by searchsorted in the ascending keys
    and expanded with repeat and cumsum; keys = members gives every product
    <= bound (bound >= 0).  Every product is at most bound < SCAN_LIMIT < 2^32,
    so the products and the searchsorted keys bound // v stay exact in uint32,
    the dtype of members, which numpy therefore searches without a copy.
    """
    vals, last = np.ones(1, dtype=np.uint32), np.full(1, -1)
    while len(vals):
        yield vals, last
        counts = np.maximum(np.searchsorted(keys, bound // vals, side="right") - last - 1, 0)
        parent = np.repeat(np.arange(len(vals)), counts)
        last = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts - last - 1, counts)
        vals = vals[parent] * members[last]


def count_squarefree_over_P(pred: PrimePredicate, bound: int) -> int:
    """Squarefree d with 2 <= d <= bound, all prime factors in P.

    d = 1 is excluded: the empty product corresponds to a matrix algebra.
    Counted over the products of distinct members of P without building the
    leaves: a product v whose largest factor is m_i has
    searchsorted(members, bound // v) - i - 1 children, added up per level.
    Only the internal nodes, the v with v * m_(i+1) <= bound, are expanded:
    the child v * m_j is internal exactly when m_j * m_(j+1) <= bound // v,
    so the pair products m_j * m_(j+1) are the keys of _squarefree_levels,
    built only for m_j <= isqrt(bound), since no later pair fits under bound,
    and in int64, since a pair past isqrt(bound) can pass 2^32.
    Level 0, the empty product, counts every member.  Memory is the member
    array plus the internal nodes of one level: 150, 102 and 2 at 10^8 for
    (-4, n = 1), whose levels hold 850,463 products.
    """
    if bound < 2:
        return 0
    members = pred.members_up_to(bound)
    head = members[: len(pred.members_up_to(math.isqrt(bound))) + 1].astype(np.int64)
    levels = _squarefree_levels(members, head[:-1] * head[1:], bound)
    return sum(int(np.sum(np.searchsorted(members, bound // v, side="right") - i - 1)) for v, i in levels)


def squarefree_values(pred: PrimePredicate, bound: int) -> list[int]:
    """The squarefree P-supported values up to bound, ascending."""
    members = pred.members_up_to(bound)
    return np.sort(np.concatenate([v for v, _ in _squarefree_levels(members, members, max(bound, 0))]))[1:].tolist()


class FitRow(NamedTuple):
    checkpoint: int
    count: int
    local_constant: float  # count / (X * (log X)^(tau-1))


@dataclass(frozen=True)
class MeanValueFit:
    constant: float
    rows: list[FitRow]

    @property
    def last_decade_drift(self) -> float:
        """Relative change of the local constant across the final two rows."""
        a, b = self.rows[-2].local_constant, self.rows[-1].local_constant
        return abs(b - a) / a


def mean_value_fit(counts: Sequence[tuple[int, int]], tau: float) -> MeanValueFit:
    """Least-squares constant C in N(X) ~ C*X*(log X)^(tau-1).

    Needs at least three checkpoints spanning at least two decades and a
    density exponent tau in (0, 1] (tau = 1 is the degenerate full-density case).
    """
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    if len(counts) < 3:
        raise ValueError("need at least three checkpoints")
    xs = [x for x, _ in counts]
    if max(xs) < 100 * min(xs):
        raise ValueError("checkpoints must span at least two decades")
    gs = [x * math.log(x) ** (tau - 1) for x, _ in counts]
    ns = [n for _, n in counts]
    constant = sum(n * g for n, g in zip(ns, gs)) / sum(g * g for g in gs)
    rows = [FitRow(x, n, n / g) for (x, n), g in zip(counts, gs)]
    return MeanValueFit(constant, rows)


@dataclass(frozen=True)
class AlgebraCensus:
    delta_k: int
    d_values: list[int]
    algebras: list[QuatAlgK]

    @property
    def count(self) -> int:
        return len(self.algebras)


def algebra_census(pred: PrimePredicate, x_bound: int) -> AlgebraCensus:
    """All admissible algebras over k with |disc_f| < x_bound, for the family
    of pred (its base field k and extensions).

    One algebra per squarefree d supported on P: its ramification is the full
    conjugate pair above each p | d, so |disc_f| = d^2 and the census range is
    d <= sqrt(x_bound - 1), read from pred's scan cache (scanning past it
    first, without shards).  Every algebra is checked against the embedding
    criterion for each member extension and against the pairing test; both
    are automatic, so a failure raises VerificationError.
    """
    delta_k = pred.delta_k
    k = QuadraticField(delta_k)
    d_max = math.isqrt(max(0, x_bound - 1))
    ds = squarefree_values(pred, d_max)
    algebras = []
    for d in ds:
        ram: set = set()
        for p in arith.factorize(d):
            ram.update(primes_above(k, p))
        alg = QuatAlgK(delta_k, frozenset(ram))
        if not fuchsian_admissible(alg):
            raise VerificationError(f"census algebra for d={d} is not admissible")
        for e in pred.exts:
            if not embeds(alg, e):
                raise VerificationError(f"census algebra for d={d} rejects an extension")
        algebras.append(alg)
    return AlgebraCensus(delta_k, ds, algebras)
