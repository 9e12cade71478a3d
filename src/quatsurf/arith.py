"""Elementary integer arithmetic: primality, Kronecker symbols, modular square roots.

Everything here is exact integer arithmetic.  Only the sieves (strike_strip
strikes both the odd-only prime strips and the squarefree strips), powmod and
residues build numpy arrays, and each imports numpy in its own body, so the
scalar functions run in a process that never loads it.
"""

from __future__ import annotations

import bisect
import itertools
import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24, far above our inputs)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SEGMENT = 1 << 20
"""Integers per sieve window: a 512 KB bool prime_strip of its odd values."""


def strike_strip(lo: int, hi: int, primes: np.ndarray, moduli: np.ndarray, step: int = 1) -> np.ndarray:
    """The bool strip of lo, lo + step, ... up to hi (empty for hi < lo), struck
    at the multiples of moduli[j], a power of primes[j], at or above primes[j]^2
    (moduli ascend): one slice per modulus no longer than the strip, and one
    scatter for the longer ones, which strike at most once.  Step 2 takes an odd
    lo and odd moduli, whose odd multiples lie m entries apart, the first at
    index (m - lo)/2 mod m.  Memory is the strip plus O(len(moduli))."""
    import numpy as np
    strip = np.ones(max(0, (hi - lo) // step + 1), dtype=bool)
    k = bisect.bisect_right(moduli, len(strip))  # moduli[:k] are short
    short = primes[:k].tolist()
    for p, m in zip(short, short if moduli is primes else moduli[:k].tolist()):  # from the first multiple at or above max(lo, p^2)
        strip[(m - lo) // step % m if p * p <= lo else (-(-p * p // m) * m - lo) // step :: m] = False
    if k < len(moduli):  # skipped when all are short, so such strips make no further numpy call
        first = (-lo) % moduli[k:] if step == 1 else (moduli[k:] - lo) // 2 % moduli[k:]  # lo + step * first: each long modulus' first multiple in the strip
        strip[first[(first < len(strip)) & (lo + step * first >= primes[k:] ** 2)]] = False
    return strip


def prime_strip(lo: int, hi: int) -> np.ndarray:
    """The bool strip of the odd values of [lo, hi]: entry i is True when
    (lo | 1) + 2i is prime, so a SEGMENT window takes 512 KB.  Segmented
    Eratosthenes (Bays-Hudson) on the odd numbers: strike_strip by the odd base
    primes up to sqrt(hi), so memory is the strip plus those primes, and callers
    walk long ranges by SEGMENT."""
    import numpy as np
    if hi < lo:
        return np.zeros(0, dtype=bool)
    odd = primes_up_to(math.isqrt(max(hi, 0)))[1:]
    strip = strike_strip(lo | 1, hi, odd, odd, 2)
    strip[: max(0, (3 - (lo | 1)) // 2)] = False  # the odd values up to 1
    return strip


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], ascending, as an int64 array: the flattened
    prime_strip, with 2 in front when it is in range."""
    import numpy as np
    lo = max(lo, 2)
    ps = np.flatnonzero(prime_strip(lo, hi)) * 2 + (lo | 1)
    return np.concatenate(([2], ps)) if lo == 2 <= hi else ps


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, from one odd-only strip of n/2 bytes."""
    return primes_between(2, n)


def iter_primes(start: int = 2):
    """Yield primes >= start, ascending, without an upper bound.

    The walk sieves windows [lo, lo + min(lo, SEGMENT)]: they double from tiny
    ones, so a walk that stops early sieves little, and stop growing at one
    SEGMENT.  A far first window still sieves the primes up to sqrt(hi) (the
    first prime past 10^12 takes 0.1 s, past 10^14 0.2 s on a 2-vCPU VM); its
    only caller, primeforge.select_q_primes, starts at 3.  One of its walks to
    q = 3,480,877 (n = 16) takes 0.11 s in these windows, and 5.3 s by a
    Miller-Rabin test per integer."""
    lo = max(2, start)
    while True:
        hi = lo + min(lo, SEGMENT)
        yield from primes_between(lo, hi).tolist()
        lo = hi + 1


def is_squarefree(n: int) -> bool:
    """No square > 1 divides n."""
    return n != 0 and all(e == 1 for e in factorize(n).values())


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def valuation(n: int, p: int) -> int:
    """Exponent of p in n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


TRIAL_LIMIT = 1 << 12
"""factorize trial-divides by the primes below this, so it alone factors every n < TRIAL_LIMIT**2."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization: trial division up to TRIAL_LIMIT, then a Miller-Rabin
    test of what is left and Pollard-Brent rho to split a composite cofactor
    (Brent 1980; Cohen, GTM 138, section 8.5)."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f < TRIAL_LIMIT:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    # every prime factor of the cofactor is >= f, so below f^2 it is 1 or a prime
    if n >= f * f:
        for p in _split(n):
            out[p] = out.get(p, 0) + 1
        return dict(sorted(out.items()))
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _split(n: int) -> list[int]:
    """The prime factors of n > 1 with repetition, by Pollard-Brent rho."""
    if is_prime(n):
        return [n]
    d = _pollard_brent(n)
    return _split(d) + _split(n // d)


def _pollard_brent(n: int) -> int:
    """A proper factor of an odd composite n: Brent's cycle search on
    y -> y^2 + c mod n, comparing y with the point saved at each power-of-2
    step, one gcd per step; a c whose gcd reaches n is replaced by c + 1."""
    for c in itertools.count(1):
        x = y = 2
        g, k = 1, 0
        while g == 1:
            if k & (k - 1) == 0:  # k = 0 or a power of 2: save the point
                x = y
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
            k += 1
        if g != n:
            return g


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 0.

    For odd prime n this is the Legendre symbol; (a|2) follows the usual
    convention (0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8).
    """
    if n < 0:
        raise ValueError("kronecker: n must be nonnegative")
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    # now n odd; jacobi(a, n) depends only on a mod n
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


POWMOD_LIMIT = 3 * 10**9  # int64 products of residues are exact while p^2 < 2^63, i.e. p < 3.03e9


def powmod(b: np.ndarray, e, p) -> np.ndarray:
    """b**e mod p elementwise (numpy broadcasting), for 0 <= b < p < POWMOD_LIMIT and e >= 0."""
    import numpy as np
    r = np.ones(np.broadcast_shapes(np.shape(b), np.shape(e), np.shape(p)), dtype=np.int64)
    e = np.array(e, dtype=np.int64)
    while True:
        r = np.where(e & 1, r * b % p, r)
        e >>= 1
        if not e.any():
            return r
        b = b * b % p


def residues(n: int, ps: np.ndarray) -> np.ndarray:
    """n mod p for every p in the int64 array ps, for a Python int n of any size (Horner in base 2^31)."""
    import numpy as np
    digits = []
    m = abs(n)
    while m:
        digits.append(m & 0x7FFFFFFF)
        m >>= 31
    acc = np.zeros_like(ps)
    for d in reversed(digits):
        acc = (acc * (1 << 31) + d) % ps
    return (-acc) % ps if n < 0 else acc


def mod_sqrt(a: int, p: int) -> int:
    """One square root of a mod prime p by Tonelli-Shanks (Cohen, GTM 138, Alg.
    1.5.1): with p - 1 = 2^s q, q odd, a^q has order 2^s exactly when a is a
    nonresidue (ValueError), and a nonresidue z < p is sought only when a^q != 1.
    A composite p gets a checked root or ValueError, in at most s passes."""
    a %= p
    if p == 2 or a == 0:
        return a
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2i, i = t, 0
        while t2i != 1 and i < s:  # i < s only bounds the loop for a composite p
            t2i = t2i * t2i % p
            i += 1
        if m == s:  # the first pass: t = a^q has order 2^i
            if i == s:  # a nonresidue for a prime p; a composite p may still have a root
                if is_prime(p):
                    raise ValueError(f"{a} is not a quadratic residue mod {p}")
                raise ValueError(f"no square root of {a} mod {p} found: {p} is not prime")
            z = next((z for z in range(2, p) if kronecker(z, p) == -1), 0)
            if not z:
                raise ValueError(f"no nonresidue mod {p}: {p} is not prime")
            c = pow(z, q, p)
        elif i >= m:  # the order of t failed to drop, which no prime p allows
            break
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    if r * r % p != a:
        raise ValueError(f"no square root of {a} mod {p} found: {p} is not prime")
    return r
