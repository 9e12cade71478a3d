"""Quadratic fields, fundamental discriminants, prime splitting and its statistics.

A quadratic field is presented by its fundamental discriminant only; prime
ideals are presented symbolically as (rational prime, square-root residue)
pairs.  That encoding answers every splitting and norm question the rest of
the package asks without any general ideal arithmetic.  The engines that
build arrays import numpy in their own bodies; the scalar functions never load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Sequence

from . import arith


class SplitType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"

    def __repr__(self):
        return f"SplitType.{self.name}"


_SIGN_CLASSES = {-1: ((4, 3), (16, 4), (16, 8)), 1: ((4, 1), (16, 8), (16, 12))}
"""The (modulus, residue) classes of a = |D| for which D = -a (D = +a) is fundamental
when a has no odd square factor: D = +-a = 1 (mod 4), or D = 4m with m = 2, 3 (mod 4)
(Cohen, GTM 138, section 5.1).  The one rule of fundamentality, read by the scalar
is_fundamental_discriminant and, as period-16 patterns, by the block engine."""


def is_fundamental_discriminant(d: int) -> bool:
    """True iff d is the discriminant of a quadratic field: |d| lies in a class of
    _SIGN_CLASSES for the sign of d and has no odd square factor.  d = 1 is excluded."""
    a = abs(d)
    if d == 1 or not any(a % m == r for m, r in _SIGN_CLASSES[1 if d > 0 else -1]):
        return False
    return arith.is_squarefree(a >> 2 if a % 4 == 0 else a)


@dataclass(frozen=True)
class QuadraticField:
    """The quadratic field of fundamental discriminant delta."""

    delta: int

    def __post_init__(self):
        if not is_fundamental_discriminant(self.delta):
            raise ValueError(f"{self.delta} is not a fundamental discriminant")

    @property
    def is_imaginary(self) -> bool:
        return self.delta < 0


@dataclass(frozen=True)
class PrimeOfK:
    """A prime ideal of a quadratic field, encoded symbolically.

    For a split prime the root r satisfies r^2 = delta (mod p) and pins down
    which of the two conjugate ideals is meant (sqrt(delta) maps to r in the
    residue field).  A ramified prime carries the forced double root 0; an
    inert prime carries no root.  The conjugate pair above a split p = 2 is
    not separable in this encoding (both conjugates reduce to root 1); no
    operation downstream consumes split primes above 2.
    """

    p: int
    kind: SplitType
    root: int | None = None

    def __post_init__(self):
        if not arith.is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.kind is SplitType.INERT:
            if self.root is not None:
                raise ValueError("inert primes carry no root")
        elif self.kind is SplitType.RAMIFIED:
            if self.root != 0:
                raise ValueError("ramified primes carry the double root 0")
        else:
            if self.root is None or not 0 <= self.root < self.p:
                raise ValueError("split primes need a canonical root in [0, p)")

    @property
    def norm(self) -> int:
        return self.p * self.p if self.kind is SplitType.INERT else self.p

    @property
    def conjugate(self) -> "PrimeOfK":
        if self.kind is SplitType.SPLIT:
            return PrimeOfK(self.p, self.kind, (self.p - self.root) % self.p)
        return self


def splitting(k: QuadraticField, p: int) -> SplitType:
    """Factorization type of the rational prime p in k.

    Ramified iff p | delta, else split iff the Kronecker symbol (delta|p) is
    1; at p = 2 that is delta = 1 (mod 8), as odd fundamental delta = 1 (mod 4).
    """
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k.delta % p == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if arith.kronecker(k.delta, p) == 1 else SplitType.INERT


def primes_above(k: QuadraticField, p: int) -> list[PrimeOfK]:
    """The primes of k above p, with split roots canonicalized to 0 <= r < p."""
    kind = splitting(k, p)
    if kind is SplitType.RAMIFIED:
        return [PrimeOfK(p, kind, 0)]
    if kind is SplitType.INERT:
        return [PrimeOfK(p, kind, None)]
    r = arith.mod_sqrt(k.delta % p, p)
    roots = sorted({r, (p - r) % p}) if p > 2 else [1, 1]
    return [PrimeOfK(p, kind, root) for root in roots]


class SplitPrimePrefix(NamedTuple):
    primes: list[int]
    # p_n over n*log(2n); the classical progression bound says this stays bounded
    linnik_ratio: float


def split_primes_prefix(k: QuadraticField, n: int) -> SplitPrimePrefix:
    """The n smallest odd rational primes that split in k, ascending, by a
    Miller-Rabin test per integer: the walk stops at the n-th split prime,
    too soon for a sieve window to pay for numpy."""
    if n < 1:
        raise ValueError("n must be >= 1")
    found: list[int] = []
    for p in filter(arith.is_prime, itertools.count(3)):
        if splitting(k, p) is SplitType.SPLIT:
            found.append(p)
            if len(found) == n:
                break
    return SplitPrimePrefix(found, found[-1] / (n * math.log(2 * n)))


BLOCK = 1 << 16
"""Values of |D| per block of the discriminant engine: a 64 KB bool strip, under glibc's mmap threshold, so blocks reuse freed heap."""

_SIGNS = {"imaginary": (-1,), "real": (1,), "both": (-1, 1)}
"""The signs of the rows of _fundamental_blocks for each sign selection."""


def _fundamental_blocks(x: int, sign: str = "both") -> Iterator[tuple[int, np.ndarray]]:
    """(lo, masks) per block of BLOCK values a = lo, lo + 1, ... of 3 <= a <= x, one
    row per sign of _SIGNS[sign]: masks[j, i] true iff _SIGNS[sign][j] * (lo + i) is
    fundamental.  One arith.strike_strip per block marks the a free of odd prime
    squares, and each row is that strip ANDed with its sign's period-16 class pattern
    (_SIGN_CLASSES), built once per call as a run one block longer than its period
    (np.resize), so the window at lo mod 16 is one slice with no per-block copy.
    One sign ANDs into the strip itself and yields it as a (1, n) view.  Memory is
    one block of the strip and the rows plus the odd primes p <= sqrt(x) and p^2.
    A bad sign or x above 2^53 raises ValueError at the call, before any block."""
    import numpy as np
    if sign not in _SIGNS:
        raise ValueError(f"bad sign {sign!r}")
    if x > 2**53:
        raise ValueError(f"the |D| bound must be at most 2^53, got {x}")
    odd = arith.primes_up_to(math.isqrt(max(x, 0)))[1:]
    n, a = min(max(x, 0), BLOCK), np.arange(16)
    rows = [np.resize(np.any([a % m == r for m, r in _SIGN_CLASSES[s]], axis=0), 16 + n) for s in _SIGNS[sign]]
    return _sign_blocks(x, BLOCK, rows, odd, odd * odd)


def _sign_blocks(x: int, block: int, rows: list[np.ndarray], odd: np.ndarray, squares: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    import numpy as np
    for lo in range(3, x + 1, block):
        sf = arith.strike_strip(lo, min(x, lo + block - 1), odd, squares)
        masks = sf[None] if len(rows) == 1 else np.empty((len(rows), len(sf)), dtype=bool)
        for mask, row in zip(masks, rows):
            np.logical_and(sf, row[lo % 16 :][: len(sf)], out=mask)
        yield lo, masks


def discriminant_blocks(x: int, sign: str = "both") -> Iterator[np.ndarray]:
    """The fundamental discriminants with |D| <= x as int64 arrays, one per
    block of BLOCK values of |D|; concatenated they run in ascending |D|, the
    negative one first.  Memory is bounded by BLOCK and sqrt(x)."""
    import numpy as np
    for lo, masks in _fundamental_blocks(x, sign):
        i, row = np.nonzero(masks.T)  # ascending i, the rows of each i in sign order
        yield (lo + i) * np.array(_SIGNS[sign])[row]


def _kronecker_table(p: int) -> np.ndarray:
    """(D|p) over the residues of D mod p (mod 8 for p = 2), as int8, for a
    prime p: 1 where p splits in Q(sqrt(D)), -1 where it is inert, 0 where it
    ramifies (for p = 2 only the discriminant classes 0, 1, 4, 5 mod 8 occur).
    Built only for an array at least p long: the squares x^2 mod p, x <= p/2,
    are struck in one pass, so memory is the table plus 12p bytes of int64."""
    import numpy as np
    if p == 2:
        return np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)
    table = np.full(p, -1, dtype=np.int8)
    x = np.arange((p + 1) // 2, dtype=np.int64)
    table[x * x % p] = 1
    table[0] = 0
    return table


def _character_parts(delta: int) -> list[np.ndarray]:
    """The periodic int8 tables whose product is chi_delta: chi_-4, chi_8 or
    chi_-8 (period 4 or 8) for the 2-part, then _kronecker_table(p) for each
    odd p | delta, so each period divides |delta|."""
    import numpy as np
    if not is_fundamental_discriminant(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    q = abs(delta)
    twos = (q & -q).bit_length() - 1
    parts = []
    if twos == 2:
        parts.append(np.array([0, 1, 0, -1], dtype=np.int8))  # chi_-4
    elif twos == 3:  # chi_8 when delta/8 = 1 (mod 4), else chi_-8
        parts.append(np.array([0, 1, 0, -1, 0, -1, 0, 1] if (delta >> 3) % 4 == 1 else [0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8))
    return parts + [_kronecker_table(p) for p in arith.factorize(q >> twos)]


def kronecker_row(discs: np.ndarray, p: int) -> np.ndarray:
    """(D|p) for each D of the int64 array discs, as int8: a _kronecker_table(p)
    lookup when p is at most the length of the row, else Euler's criterion
    (scalar symbols from POWMOD_LIMIT on), so the cost is bounded by the row."""
    import numpy as np
    if p == 2 or p <= len(discs):
        return _kronecker_table(p)[discs % (8 if p == 2 else p)]
    if p < arith.POWMOD_LIMIT:
        return ((arith.powmod(discs % p, (p - 1) // 2, p) + 1) % p - 1).astype(np.int8)
    return np.array([arith.kronecker(d, p) for d in discs.tolist()], dtype=np.int8)


def symbol_column(disc: int, ps: np.ndarray) -> np.ndarray:
    """(disc|p) for each prime p of the ascending int64 array ps, as int8, for disc = 1
    or a fundamental discriminant; kronecker_row's transpose: one period of chi_disc
    from _character_parts(disc) at ps mod |disc| when |disc| <= len(ps), else
    Euler's criterion (scalar symbols from POWMOD_LIMIT on, p = 2 by table: only
    ps[0] can be 2)."""
    import numpy as np
    if disc == 1:
        return np.ones(len(ps), dtype=np.int8)
    q = abs(disc)
    if q <= len(ps):
        chi = np.ones(q, dtype=np.int8)
        for t in _character_parts(disc):
            chi *= np.tile(t, q // len(t))
        return chi[ps % q]
    euler = ps < arith.POWMOD_LIMIT
    qs = ps[euler]
    col = np.empty(len(ps), dtype=np.int8)
    col[euler] = (arith.powmod(arith.residues(disc, qs), (qs - 1) >> 1, qs) + 1) % qs - 1
    col[~euler] = [arith.kronecker(disc, p) for p in ps[~euler].tolist()]
    if len(ps) and ps[0] == 2:
        col[0] = _kronecker_table(2)[disc % 8]
    return col


def fundamental_masks(x: int):
    """(neg, pos) bool arrays over 0 <= a <= x, filled block by block: neg[a]
    (pos[a]) true iff -a (+a) is a fundamental discriminant."""
    import numpy as np
    blocks = _fundamental_blocks(x)  # refuses a bad x before the masks exist
    masks = np.zeros((2, x + 1), dtype=bool)
    for lo, block in blocks:
        masks[:, lo : lo + block.shape[1]] = block
    return masks[0], masks[1]


def fundamental_discriminants(x: int, sign: str = "both") -> Iterator[int]:
    """Fundamental discriminants with |delta| <= x, ascending in |delta|, the negative
    one first at equal |delta|; sign is one of "imaginary", "real", "both"."""
    for discs in discriminant_blocks(x, sign):
        yield from discs.tolist()


def count_fundamental_discriminants(x: int, sign: str = "both") -> int:
    """Count of fundamental discriminants with |delta| <= x (density 6/pi^2 for both signs):
    count_nonzero over the rows of _fundamental_blocks(x, sign), with no
    discriminant values built."""
    import numpy as np
    return sum(int(np.count_nonzero(masks)) for _, masks in _fundamental_blocks(x, sign))


class WoodStats(NamedTuple):
    count: int
    predicted: float
    ratio: float | None


def wood_stats(q_split: int | None, q_inert: Sequence[int], x: int) -> WoodStats:
    """Count imaginary fundamental discriminants with prescribed splitting.

    Counts |delta| <= x with q_split split and every listed prime inert, and
    compares with the independence heuristic (6/pi^2)*x * (1/2) * prod over the
    primes of ell/(2*ell+2), the probability of either prescribed behavior after
    ramification eats 1/(ell+1).  Contradictory constraints (one prime on both
    sides) give count 0 and predicted 0.

    Reads the imaginary row of _fundamental_blocks.  (-a|q) depends on a mod m,
    m = q (8 for q = 2), so a condition with q <= BLOCK is a period-m bool
    pattern, one kronecker_row over a period, run and sliced at lo mod m as
    _fundamental_blocks does its class patterns, and ANDed into the row in place,
    so no block allocates a window.  A q > BLOCK falls back to kronecker_row on
    the survivors of the short conditions, the only discriminant values built.
    """
    import numpy as np
    if x < 10**4:
        raise ValueError("x too small for meaningful statistics")
    q_inert = list(q_inert)
    if len(set(q_inert)) != len(q_inert):
        raise ValueError("duplicate primes in the inert list")
    conditions = [(q, -1) for q in q_inert] + ([(q_split, 1)] if q_split is not None else [])
    for q, _ in conditions:
        if not arith.is_prime(q):
            raise ValueError(f"{q} is not prime")
    if q_split is not None and q_split in q_inert:
        return WoodStats(0, 0.0, None)

    patterns = [kronecker_row(-np.arange(8 if q == 2 else q), q) == symbol for q, symbol in conditions if q <= BLOCK]
    short = [(len(pattern), np.resize(pattern, len(pattern) + min(x, BLOCK))) for pattern in patterns]
    long = [(q, symbol) for q, symbol in conditions if q > BLOCK]
    count = 0
    for lo, (neg,) in _fundamental_blocks(x, "imaginary"):
        for m, run in short:
            neg &= run[lo % m :][: len(neg)]
        if long:
            discs = -(lo + np.flatnonzero(neg))
            for q, symbol in long:
                discs = discs[kronecker_row(discs, q) == symbol]
            count += len(discs)
        else:
            count += int(np.count_nonzero(neg))

    predicted = (6 / math.pi**2) * x * 0.5
    for q, _ in conditions:
        predicted *= q / (2 * q + 2)
    return WoodStats(count, predicted, count / predicted if predicted > 0 else None)


class RamificationCheck(NamedTuple):
    count: int
    total: int
    ratio: float
    target: float


def ramification_probability_check(ell: int, x: int) -> RamificationCheck:
    """Fraction of fundamental discriminants |delta| <= x divisible by ell.

    Divisibility by ell is exactly ramification of ell; across the family of
    quadratic fields (both signatures) the fraction converges to 1/(ell+1).
    Reads both rows of _fundamental_blocks: ell | delta = +-a is the column
    slice masks[:, (-lo) % ell :: ell] of a block starting at a = lo, for any
    ell, so no discriminant values and no kronecker_row are needed.
    """
    import numpy as np
    if not arith.is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if x < 10**4:
        raise ValueError("x too small for meaningful statistics")
    count = total = 0
    for lo, masks in _fundamental_blocks(x):
        total += int(np.count_nonzero(masks))
        count += int(np.count_nonzero(masks[:, (-lo) % ell :: ell]))
    return RamificationCheck(count, total, count / total, 1 / (ell + 1))
