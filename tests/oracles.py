"""Brute-force oracles, independent of the package's own arithmetic paths.

Splitting oracles factor minimal polynomials mod p by exhaustive root
enumeration; the Pell oracle iterates b directly, the convergent Pell
oracle walks the continued fraction of sqrt(d) rather than the cycle of
(s + sqrt(d))/2, and the full-cycle unit oracle walks that whole cycle, one
matrix at a time, where the package stops at its mirror point; the recovery
oracle redoes the subfield intersection with enumeration-based splitting
throughout.  The P-membership oracle finds square
roots by enumeration; the squarefree sieve counts P-supported integers by
striking a boolean strip and the subset walk lists them by a depth-first
walk over products of members; the L-value oracles sum mpmath's Hurwitz zeta,
the same functional-equation series as the package in mpmath's incomplete
gamma functions, or, in float64, trigamma values over one period of chi
from character_table, which multiplies out its symbols at the primes.  Those
symbols are written out here (Euler's criterion, the mod-8 rule at 2: scalar
in _prime_symbol, over an array in symbol_oracle), so the period sum shares
no code with the package's series, which takes chi from scalar
arith.kronecker, nor with quadfields.symbol_column.  The wood count oracle
sieves the imaginary fundamental discriminants by their definition
(imaginary_discs_oracle) and filters them with symbol_oracle, one condition
at a time: it shares neither the block engine nor kronecker_row with
wood_stats.
"""

import functools
import itertools
import math

import numpy as np

from quatsurf import arith
from quatsurf.errors import VerificationError
from quatsurf.quadfields import SplitType


ENUMERATION_LIMIT = 10**6


def quadratic_split_oracle(delta: int, p: int) -> SplitType:
    """Factorization type of p from root counts of the integral generator's
    minimal polynomial mod p: 2 roots split, 0 inert, 1 (double) ramified.

    Past ENUMERATION_LIMIT the roots are counted as 1 + (delta|p), the
    polynomial's discriminant being delta, with Euler's criterion in Python
    integers (p odd there).
    """
    if p > ENUMERATION_LIMIT:
        roots = 1 if delta % p == 0 else (2 if pow(delta, (p - 1) // 2, p) == 1 else 0)
        return {2: SplitType.SPLIT, 0: SplitType.INERT, 1: SplitType.RAMIFIED}[roots]
    if delta % 4 == 1:
        c1, c0 = -1, (1 - delta) // 4  # generator (1 + sqrt(delta))/2
    else:
        c1, c0 = 0, -delta // 4  # generator sqrt(delta/4)
    t = np.arange(p, dtype=np.int64)
    roots = int((((t * t + c1 * t + c0) % p) == 0).sum())
    return {2: SplitType.SPLIT, 0: SplitType.INERT, 1: SplitType.RAMIFIED}[roots]


@functools.lru_cache(maxsize=1)
def _squares_mod(p: int) -> np.ndarray:
    """t^2 mod p for t = 0..p-1; the most recent p stays cached, so loops
    that ask many questions about one prime enumerate it once."""
    t = np.arange(p, dtype=np.int64)
    return t * t % p


def is_square_mod_oracle(b: int, p: int) -> bool:
    return bool((_squares_mod(p) == b % p).any())


def prime_in_P_oracle(delta: int, xs, p: int) -> bool:
    """Membership of an odd prime p in the prime set P, by enumeration.

    p must split in k: delta has two distinct square roots mod p.  At one of
    them, r, every x + r and x - r must be a nonzero nonsquare mod p.
    """
    roots = np.flatnonzero(_squares_mod(p) == delta % p)
    if len(roots) != 2:
        return False
    r = int(roots[0])
    return all(not is_square_mod_oracle(x + s * r, p) for x in xs for s in (1, -1))


def prime_in_L_oracle(ext, prime) -> SplitType | None:
    """Per-prime splitting in L by residue enumeration; None when the
    symbolic criterion legitimately refuses (even positive valuation)."""
    p = prime.p
    b = (ext.x - prime.root) % p if ext.conjugate else (ext.x + prime.root) % p
    if b == 0:
        n, v = ext.norm_beta, 0
        while n % p == 0:
            n //= p
            v += 1
        return SplitType.RAMIFIED if v % 2 == 1 else None
    return SplitType.SPLIT if is_square_mod_oracle(b, p) else SplitType.INERT


def squarefree_count_sieve_oracle(pred, bound: int, segment: int = 1 << 20) -> int:
    """Squarefree P-supported d in [2, bound]: strike multiples of non-members
    and of every p^2, count survivors.

    Processes [2, bound] in disjoint segments; each segment is an independent
    boolean strip, so the merge is plain addition.  The primes come from a
    sieve of Eratosthenes of its own, not from arith's; the members still come
    from the caller's scan, pred.members_up_to, which TestMembersScan checks
    against prime_in_P_oracle.
    """
    members = pred.members_up_to(bound)
    member_set = {int(m) for m in members}
    prime = np.ones(bound + 1, dtype=bool)
    prime[:2] = False
    for q in range(2, math.isqrt(bound) + 1):
        if prime[q]:
            prime[q * q :: q] = False
    all_primes = np.flatnonzero(prime).tolist()
    non_members = [p for p in all_primes if p not in member_set]
    squares = [p * p for p in all_primes if p * p <= bound]
    total = 0
    lo = 2
    while lo <= bound:
        hi = min(bound, lo + segment - 1)
        good = np.ones(hi - lo + 1, dtype=bool)
        for p in non_members:
            if p > hi:
                break
            start = ((lo + p - 1) // p) * p
            if start <= hi:
                good[start - lo :: p] = False
        for q in squares:
            if q > hi:
                break
            start = ((lo + q - 1) // q) * q
            if start <= hi:
                good[start - lo :: q] = False
        total += int(good.sum())
        lo = hi + 1
    return total


def squarefree_subset_oracle(members, bound: int) -> list[int]:
    """Products <= bound of nonempty sets of distinct members (ascending
    ints), ascending, by a depth-first walk that extends each product by the
    members after its largest factor."""
    members = [int(m) for m in members]
    out = []
    stack = [(1, 0)]
    while stack:
        prod, idx = stack.pop()
        for j in range(idx, len(members)):
            nxt = prod * members[j]
            if nxt > bound:
                break
            out.append(nxt)
            stack.append((nxt, j + 1))
    return sorted(out)


def quartic_root_count(ext, p: int) -> int:
    """Distinct roots of the quartic minimal polynomial mod p, by enumeration."""
    t = np.arange(p, dtype=np.int64)
    vals = (t**4 - 2 * ext.x * t**2 + ext.norm_beta) % p
    return int((vals == 0).sum())


def pell_unit_oracle(d: int, b_limit: int = 10**6):
    """Smallest (a, b, norm) with a^2 - d*b^2 = +-4, b >= 1, by direct iteration."""
    for b in range(1, b_limit + 1):
        for n in (-1, 1):
            a2 = d * b * b + 4 * n
            if a2 > 0:
                a = math.isqrt(a2)
                if a * a == a2:
                    return a, b, n
    raise RuntimeError(f"no unit below b = {b_limit} for d = {d}")


def pell_convergent_oracle(d: int):
    """Smallest (a, b, norm) with a^2 - d*b^2 = +-4, b >= 1, from the convergents
    h/k of sqrt(d).  For d > 16, Lagrange's criterion (|h^2 - d*k^2| < sqrt(d)
    makes h/k a convergent) says a solution with gcd(a, b) = 1 is a convergent
    with h^2 - d*k^2 = +-4, and one with gcd 2 is twice a convergent with +-1;
    the walk stops once k passes the smallest b found."""
    if d <= 16:
        return pell_unit_oracle(d)
    r = math.isqrt(d)
    m, den, a = 0, 1, r
    h_prev, h, k_prev, k = 1, r, 0, 1
    best = None
    while best is None or k <= best[1]:
        n = h * h - d * k * k
        if n in (4, -4) and (best is None or k < best[1]):
            best = (h, k, n // 4)
        if n in (1, -1) and (best is None or 2 * k < best[1]):
            best = (2 * h, 2 * k, n)
        m = den * a - m
        den = (d - m * m) // den
        a = (r + m) // den
        h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev
    return best


def cycle_product_oracle(quotients):
    """(A, B, C, E) with [[A, B], [C, E]] the product of [[a, 1], [1, 0]] over
    quotients, one matrix at a time from the left."""
    A, B, C, E = 1, 0, 0, 1
    for a in quotients:
        A, B, C, E = A * a + B, A, C * a + E, C
    return A, B, C, E


def unit_full_cycle_oracle(d: int):
    """(a, b, norm) of the fundamental unit of discriminant d from the whole
    continued-fraction cycle of (d mod 2 + sqrt(d))/2: the walk records the
    reduced state (P_1, Q_1), stops when it comes back, and takes the product
    over every partial quotient of the cycle."""
    isq = math.isqrt(d)
    P, Q = d % 2, 2
    P1 = Q1 = None
    quotients: list[int] = []
    while True:
        a = (P + isq) // Q
        quotients.append(a)
        P = a * Q - P
        if (d - P * P) % Q:
            raise VerificationError(f"Q = {Q} does not divide d - P^2 at P = {P}")
        Q = (d - P * P) // Q
        if P1 is None:
            P1, Q1 = P, Q
        elif P == P1 and Q == Q1:
            break
    # (P, Q) is back at (P_1, Q_1), where the cycle starts
    _, _, C, E = cycle_product_oracle(quotients[1:])
    u, v = C * P + E * Q, C
    if (2 * u) % Q or (2 * v) % Q:
        raise VerificationError("continued-fraction automorphism is not integral")
    a_coef, b_coef = 2 * u // Q, 2 * v // Q
    norm = (a_coef * a_coef - d * b_coef * b_coef) // 4
    return a_coef, b_coef, norm


def _squarefree_oracle(m: int) -> bool:
    m = abs(m)
    return m != 0 and all(m % (q * q) != 0 for q in range(2, math.isqrt(m) + 1))


def _fundamental_oracle(d: int) -> bool:
    """d = 1 (mod 4) squarefree, or d = 4m with m = 2, 3 (mod 4) squarefree; d = 0, 1 excluded."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return _squarefree_oracle(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree_oracle(d // 4)


def fundamental_discs_oracle(x: int, sign: str) -> list[int]:
    """Fundamental discriminants by per-integer definition checking."""
    out = []
    for a in range(3, x + 1):
        if sign in ("imaginary", "both") and _fundamental_oracle(-a):
            out.append(-a)
        if sign in ("real", "both") and _fundamental_oracle(a):
            out.append(a)
    return out


@functools.lru_cache(maxsize=1)
def imaginary_discs_oracle(x: int) -> np.ndarray:
    """The imaginary fundamental discriminants -x <= D <= -3, ascending in |D|, as a
    read-only int64 array: _fundamental_oracle's definition over the whole range at
    once.  Its squarefree parts, D or D/4, are never divisible by 4, so only the
    squares of odd primes q <= sqrt(x), found by trial division, are struck."""
    free = np.ones(x + 1, dtype=bool)
    for q in range(3, math.isqrt(x) + 1, 2):
        if all(q % r for r in range(3, math.isqrt(q) + 1, 2)):
            free[:: q * q] = False
    a = np.arange(x + 1)
    odd = ((-a) % 4 == 1) & free
    even = (a % 4 == 0) & np.isin((-a // 4) % 4, (2, 3)) & free[a // 4]
    discs = -np.flatnonzero((odd | even) & (a >= 3))
    discs.flags.writeable = False
    return discs


def symbol_oracle(a: np.ndarray, p: int) -> np.ndarray:
    """(a|p) as int8 for each integer of the int64 array a, for a prime p: for odd p
    Euler's criterion a^((p-1)/2) mod p by left-to-right square-and-multiply in
    int64 (exact while p^2 < 2^63), for p = 2 the rule 0 at even a, 1 at
    a = +-1 (mod 8), -1 at a = +-3 (mod 8)."""
    if p == 2:
        return np.where(a % 2 == 0, 0, np.where(np.isin(a % 8, (1, 7)), 1, -1)).astype(np.int8)
    base = a % p
    power = np.ones_like(base)
    for bit in bin((p - 1) // 2)[2:]:
        power *= power
        power %= p
        if bit == "1":
            power *= base
            power %= p
    return np.where(power == p - 1, -1, power).astype(np.int8)


def _prime_symbol(a: int, p: int) -> int:
    """(a|p) for one prime p by symbol_oracle's rules, in Python integers."""
    if p == 2:
        return 0 if a % 2 == 0 else 1 if a % 8 in (1, 7) else -1
    euler = pow(a, (p - 1) // 2, p)
    return -1 if euler == p - 1 else euler


def character_table(delta: int) -> np.ndarray:
    """chi_delta(n) = (delta|n) for 0 <= n < |delta|, as int8, for a fundamental
    discriminant delta: _prime_symbol at each prime p < |delta|, extended to every
    n by complete multiplicativity, chi(n) = chi(p) * chi(n/p) for the least prime
    p | n from a sieve of least prime factors; chi(0) = 0, as |delta| > 1."""
    if not _fundamental_oracle(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    q = abs(delta)
    n = np.arange(q)
    least = np.zeros(q, dtype=np.int64)
    for p in range(2, math.isqrt(q - 1) + 1):
        if least[p] == 0:
            run = least[p * p :: p]
            run[run == 0] = p
    least = np.where(least == 0, n, least)  # a prime is its own least factor
    chi = np.zeros(q, dtype=np.int8)
    chi[1] = 1
    for p in np.flatnonzero((least == n) & (n >= 2)).tolist():
        chi[p] = _prime_symbol(delta, p)
    # composite n: multiply in one least prime factor per round; the cofactors
    # still above 1 stay live, so each n takes as many rounds as it has factors
    live = np.flatnonzero((least != n) & (n >= 2))
    rest = live // least[live]
    chi[live] = chi[least[live]]
    while len(live):
        done = rest == 1
        live, rest = live[~done], rest[~done]
        chi[live] *= chi[least[rest]]
        rest //= least[rest]
    return chi


def wood_count_oracle(q_split, q_inert, x: int) -> int:
    """Imaginary fundamental discriminants |D| <= x with q_split split and every
    q in q_inert inert: imaginary_discs_oracle(x) filtered by one symbol_oracle per
    condition."""
    conditions = [(q, -1) for q in q_inert] + ([(q_split, 1)] if q_split is not None else [])
    discs = imaginary_discs_oracle(x)
    for q, symbol in conditions:
        discs = discs[symbol_oracle(discs, q) == symbol]
    return len(discs)


def recover_oracle(delta_k: int, pairing: list[int], d_bound: int, prime_bound: int) -> tuple[set[int], int]:
    """The subfield intersection redone with enumeration-based splitting:
    (surviving primes, number of admissible fields)."""

    def nonsplit(disc, p) -> bool:
        return quadratic_split_oracle(disc, p) is not SplitType.SPLIT

    primes = [p for p in range(2, prime_bound + 1) if all(p % q for q in range(2, p))]
    aux_pool = [q for q in primes if nonsplit(delta_k, q)]
    need_aux = len(pairing) % 2 == 1
    surviving = set(primes)
    admissible = 0
    for disc in fundamental_discs_oracle(d_bound, "both"):
        if not all(nonsplit(disc, p) for p in pairing):
            continue
        if need_aux and not any(nonsplit(disc, q) for q in aux_pool):
            continue
        admissible += 1
        surviving &= {p for p in primes if nonsplit(disc, p)}
    if admissible == 0:
        raise RuntimeError("oracle: no admissible field")
    return surviving, admissible


def catalan_oracle(terms: int = 200_000) -> float:
    """Catalan's constant by its alternating series; error below 1/(2*terms+1)^2."""
    return math.fsum((-1) ** k / (2 * k + 1) ** 2 for k in range(terms))


@functools.lru_cache(maxsize=None)
def dirichlet_L2_oracle(delta: int) -> float:
    """L(2, chi_delta) = q^-2 * sum_a chi(a) * zeta(2, a/q), q = |delta|, with
    mpmath's Hurwitz zeta at 30 digits and chi from arith.kronecker; cached
    per delta, as each call costs about a millisecond per residue."""
    import mpmath

    q = abs(delta)
    with mpmath.workdps(30):
        total = mpmath.fsum(
            chi * mpmath.zeta(2, mpmath.mpf(a) / q) for a in range(1, q) if (chi := arith.kronecker(delta, a))
        )
        return float(total / q**2)


def theta_term(q: int, odd: bool, n: int):
    """The n-th term of volumes.dirichlet_L2's series for |delta| = q, without
    chi(n) and with its prefactor, at 30 digits from mpmath's gammainc and e1."""
    import mpmath

    with mpmath.workdps(30):
        x = mpmath.pi * n * n / q
        if odd:
            return 2 / mpmath.sqrt(mpmath.pi) * (mpmath.pi / q) ** 1.5 * n * (x**-1.5 * mpmath.gammainc(1.5, x) + mpmath.e1(x))
        return mpmath.pi / q * (mpmath.exp(-x) / x + mpmath.sqrt(x) * mpmath.gammainc(-0.5, x))


@functools.lru_cache(maxsize=None)
def dirichlet_L2_theta_oracle(delta: int) -> float:
    """L(2, chi_delta) by the series of volumes.dirichlet_L2 in mpmath (theta_term),
    summed to x_n = pi n^2 / |delta| > 80, where the tail is below 10^-30: a check
    on the float64 evaluation (incomplete gammas, tail bound, summation) where
    the Hurwitz period sum would take minutes; cached per delta."""
    import mpmath

    q = abs(delta)
    with mpmath.workdps(30):
        terms = (chi * theta_term(q, delta < 0, n) for n in range(1, math.isqrt(26 * q) + 2) if (chi := arith.kronecker(delta, n)))
        return float(mpmath.fsum(terms))


# B_2, B_4, ..., B_26: the trigamma series takes B_2 .. B_2J, and B_(2J+2) bounds its remainder
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330,
    854513 / 138, -236364091 / 2730, 8553103 / 6,
)


def dirichlet_L2_period_oracle(delta: int, tol: float = 1e-13) -> float:
    """L(2, chi_delta) = q^-2 * sum_{0<a<q} chi(a) * psi_1(a/q), q = |delta|, in
    float64 over one period of character_table(delta).

    Each psi_1(a/q) is K shifted terms sum_{k<K} (a/q + k)^-2 plus the
    asymptotic series of psi_1(z) through B_2J at z = a/q + K >= K (DLMF 5.15.8),
    which for real z > 0 is enveloping: its error is at most the first
    omitted term, so over the < q residues the truncation error is at most
    |B_(2J+2)| / (q * K^(2J+3)); K and J are the smallest that bring it to tol.
    O(|delta| * (K + J)) time and O(|delta|) memory.
    """
    q = abs(delta)
    K, J = next((K, J) for K in itertools.count(1) for J, b in enumerate(_BERNOULLI) if abs(b) / (q * K ** (2 * J + 3)) <= tol)
    chi = character_table(delta)
    a = np.flatnonzero(chi)
    z = a / q + K
    w = 1 / (z * z)
    series = np.zeros_like(z)
    for b in reversed(_BERNOULLI[:J]):  # Horner in w = z^-2
        series = (series + b) * w
    terms = (series + 1 + 0.5 / z) / (z * q * q)  # psi_1(z) / q^2
    for k in range(K):
        terms += 1 / np.square(a + k * q, dtype=np.float64)
    return math.fsum((terms * chi[a]).tolist())
