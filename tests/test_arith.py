import math
import random
from itertools import count, dropwhile, takewhile

import numpy as np
import pytest
import sympy

from quatsurf import arith
from quatsurf.census import SCAN_LIMIT


class TestPrimality:
    def test_against_sympy_range(self):
        for n in range(-5, 2000):
            assert arith.is_prime(n) == sympy.isprime(n), n

    def test_large_values(self):
        assert arith.is_prime(2**61 - 1)
        assert not arith.is_prime(2**67 - 1)
        assert arith.is_prime(10**18 + 9)

    def test_sieve_matches_walk(self):
        walk = list(takewhile(lambda p: p <= 5000, arith.iter_primes()))
        assert walk == [n for n in range(5001) if arith.is_prime(n)]

    def test_iter_primes_start(self):
        gen = arith.iter_primes(14)
        assert [next(gen) for _ in range(3)] == [17, 19, 23]

    def test_iter_primes_across_window_edges(self):
        # windows [lo, lo + min(lo, SEGMENT)]: doubling from 1000 (edges 2000, 4002, 8004),
        # then one SEGMENT long, here ending on a prime
        edge = next(n for n in count(2 * arith.SEGMENT) if arith.is_prime(n))
        for start, lo, hi in ((1000, 1000, 9000), (edge - arith.SEGMENT, edge - 500, edge + 500)):
            got = list(takewhile(lambda p: p <= hi, dropwhile(lambda p: p < lo, arith.iter_primes(start))))
            assert got == [n for n in range(lo, hi + 1) if arith.is_prime(n)], start


class TestPrimesBetween:
    CASES = (
        [(-10, 1), (-5, 30), (0, 2), (2, 2), (4, 4), (13, 13), (10, 3), (100, 99), (2, 1000)]
        # strips that straddle a prime square, so its first strike lands inside
        + [(p * p - 15, p * p + 15) for p in (2, 3, 5, 7, 11, 97, 1009, 10007)]
        # windows that start just below a SEGMENT edge
        + [(k * arith.SEGMENT - d, k * arith.SEGMENT + 5000) for k in (1, 3) for d in (1, 2, 7)]
        + [(SCAN_LIMIT - 5000, SCAN_LIMIT + 5000), (SCAN_LIMIT - 1, SCAN_LIMIT - 1)]
    )

    def test_against_is_prime_and_sympy(self):
        for lo, hi in self.CASES:
            got = arith.primes_between(lo, hi)
            assert got.dtype == np.int64
            want = list(sympy.primerange(lo, hi + 1))
            assert got.tolist() == want == [n for n in range(lo, hi + 1) if arith.is_prime(n)], (lo, hi)

    def test_prime_strip(self):
        # the odd-only strip primes_between flattens: entry i stands for (lo | 1) + 2i.
        # 1 and the odd values below it strike themselves, as does a window wholly
        # below 0; windows straddle SEGMENT edges and odd prime squares, with every
        # parity of lo and hi; empty ranges, and ranges holding no odd value, give
        # empty strips, and primes_between adds 2 back when it is in range
        cases = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 100), (2, 2), (2, 100), (0, 1000), (-3, 3), (-10, -5), (5, 4), (100, 99)]
        cases += [(lo, hi) for lo in (0, 1, 2, 3) for hi in (lo - 1, lo, lo + 1, 4, 5, 8, 9)]
        cases += [(k * arith.SEGMENT - 40, k * arith.SEGMENT + 40) for k in (1, 2)] + [(1009**2 - 5, 1009**2 + 5)]
        cases += [(p * p - d, p * p + e) for p in (3, 5, 7, 31, 1009) for d in (0, 1, 2) for e in (0, 1, 2)]
        for lo, hi in cases:
            strip = arith.prime_strip(lo, hi)
            odd = lo | 1
            assert strip.dtype == bool and len(strip) == max(0, (hi - odd) // 2 + 1), (lo, hi)
            want = [n for n in range(lo, hi + 1) if arith.is_prime(n)]
            assert (np.flatnonzero(strip) * 2 + odd).tolist() == [n for n in want if n != 2], (lo, hi)
            assert arith.primes_between(lo, hi).tolist() == want, (lo, hi)

    def test_primes_up_to(self):
        for n in (-3, 0, 1, 2, 3, 4, 25, 26, 10**5):
            assert arith.primes_up_to(n).tolist() == list(sympy.primerange(n + 1)), n


class TestStrikeStrip:
    @staticmethod
    def brute(lo, hi, primes, moduli):
        return [not any(v % m == 0 and v >= p * p for p, m in zip(primes, moduli)) for v in range(lo, hi + 1)]

    def test_against_bruteforce(self):
        # prime strips (moduli = primes) and square strips (moduli = p^2), with moduli
        # shorter and longer than the strip: in (0, 30) and (40, 50) the primes 2..29
        # and 41, 43, 47 lie below their squares and must not strike themselves;
        # empty strips lo = hi + 1, and windows at SEGMENT edges
        cases = [(0, 30), (1, 1), (40, 50), (5, 200), (1500, 1600), (7, 6), (1000, 999)]
        cases += [(k * arith.SEGMENT - 40, k * arith.SEGMENT + 40) for k in (1, 2, 3)]
        for lo, hi in cases:
            primes = arith.primes_up_to(max(100, math.isqrt(hi)))
            for moduli in (primes, primes**2, primes**3):
                strip = arith.strike_strip(lo, hi, primes, moduli)
                assert strip.dtype == bool and len(strip) == max(0, hi - lo + 1), (lo, hi)
                assert strip.tolist() == self.brute(lo, hi, primes.tolist(), moduli.tolist()), (lo, hi, moduli[:2])
            odd = primes[1:]
            assert arith.strike_strip(lo, hi, odd, odd**2).tolist() == self.brute(lo, hi, odd.tolist(), (odd**2).tolist()), (lo, hi)
            for moduli in (odd, odd**2, odd**3):  # step 2: the odd values lo | 1, (lo | 1) + 2, ...
                want = self.brute(lo | 1, hi, odd.tolist(), moduli.tolist())[::2]
                assert arith.strike_strip(lo | 1, hi, odd, moduli, 2).tolist() == want, (lo, hi, moduli[:2])


class TestSquarefree:
    def test_table_matches_scalar(self):
        # the discriminant engine's segmented strips; squares longer than the
        # strip go to the scatter that strikes each at most once
        primes = arith.primes_up_to(40)
        for lo, hi in ((1, 500), (777, 1600), (1500, 1600)):
            strip = arith.strike_strip(lo, hi, primes, primes**2)
            assert [bool(t) for t in strip] == [arith.is_squarefree(m) for m in range(lo, hi + 1)], (lo, hi)

    def test_against_factorint(self):
        def want(n):
            return all(e == 1 for e in sympy.factorint(n).values())

        for n in range(1, 2 * 10**4 + 1):
            assert arith.is_squarefree(n) == want(n), n
        # cofactors past the cube root: prime squares, alone and times a small
        # prime, and products of three primes near 10^6
        for p in (sympy.prevprime(10**7), sympy.nextprime(10**7), sympy.nextprime(3 * 10**7)):
            for n in (p * p, 3 * p * p, 2 * p * p, p * sympy.nextprime(p), 2 * p):
                assert arith.is_squarefree(n) == want(n), n
        assert not arith.is_squarefree(sympy.prevprime(10**9) ** 2)  # d near 10^18
        near = [sympy.nextprime(10**6 + k) for k in (0, 100, 1000)]
        for a, b, c in ((near[0], near[1], near[2]), (near[0], near[0], near[1]), (near[1], near[2], near[2])):
            assert arith.is_squarefree(a * b * c) == want(a * b * c), (a, b, c)

    def test_scalar_edges(self):
        assert not arith.is_squarefree(0)
        assert arith.is_squarefree(1)
        assert arith.is_squarefree(-30)
        assert not arith.is_squarefree(-12)


class TestKronecker:
    def test_euler_criterion_odd_primes(self):
        for p in (int(q) for q in arith.primes_up_to(200)):
            if p == 2:
                continue
            for a in range(-2 * p, 2 * p + 1):
                euler = pow(a % p, (p - 1) // 2, p)
                want = 0 if a % p == 0 else (1 if euler == 1 else -1)
                assert arith.kronecker(a, p) == want, (a, p)

    def test_two_convention(self):
        for a in range(-20, 21):
            if a % 2 == 0:
                want = 0
            elif a % 8 in (1, 7):
                want = 1
            else:
                want = -1
            assert arith.kronecker(a, 2) == want, a

    def test_multiplicative_in_modulus(self):
        rng = random.Random(5)
        for _ in range(300):
            a = rng.randint(-50, 50)
            m, n = rng.randint(1, 60), rng.randint(1, 60)
            assert arith.kronecker(a, m * n) == arith.kronecker(a, m) * arith.kronecker(a, n)

    def test_zero_modulus(self):
        assert arith.kronecker(1, 0) == 1
        assert arith.kronecker(-1, 0) == 1
        assert arith.kronecker(5, 0) == 0


class TestModSqrt:
    def test_all_small_primes(self):
        # every residue class of p mod 8 takes the one Tonelli-Shanks path
        for p in (int(q) for q in arith.primes_up_to(300)):
            squares = {(t * t) % p for t in range(p)}
            for a in range(p):
                if a in squares:
                    r = arith.mod_sqrt(a, p)
                    assert r * r % p == a, (a, p)
                else:
                    with pytest.raises(ValueError):
                        arith.mod_sqrt(a, p)

    def test_one_mod_eight_path(self):
        for p in (17, 41, 73, 89, 97, 113, 137, 193):
            for a in (2, 4, 8, 16):
                if pow(a, (p - 1) // 2, p) == 1:
                    r = arith.mod_sqrt(a, p)
                    assert r * r % p == a

    @pytest.mark.parametrize(
        "p",
        # p - 1 = 2^s q with s = 23 and s = 32, a Mersenne prime = 3 (mod 4), and a prime = 5 (mod 8) above 2^64
        [998244353, 2**64 - 2**32 + 1, 2**89 - 1, 2**64 + 13],
    )
    def test_large_primes(self, p):
        assert sympy.isprime(p)
        rng = random.Random(p)
        squares = [rng.randrange(1, p) ** 2 % p for _ in range(60)]
        cases = squares + [rng.randrange(1, p) for _ in range(120)] + [2, 3, p - 1, p + 2, -3]
        nonresidues = 0
        for a in cases:
            if pow(a, (p - 1) // 2, p) == p - 1:
                nonresidues += 1
                with pytest.raises(ValueError, match="not a quadratic residue"):
                    arith.mod_sqrt(a, p)
            else:
                r = arith.mod_sqrt(a, p)
                assert 0 <= r < p and r * r % p == a % p, (a, p)
        assert 0 < nonresidues < len(cases) - len(squares)

    def test_composite_modulus_order_loop_ends(self):
        # outside the contract (p prime): the order of a^q is sought among 2^0..2^s
        # only, so these raise as the Euler test used to instead of squaring forever
        for a, p in ((3, 9), (2, 15), (5, 21), (3, 45)):
            with pytest.raises(ValueError):
                arith.mod_sqrt(a, p)

    def test_composite_modulus_terminates(self):
        # no nonresidue search may run past p: every input ends in a checked root or
        # ValueError, and a refused square (2^2 = 4 mod 15) is blamed on p, not on a
        for p in (n for n in range(9, 400, 2) if not arith.is_prime(n)):
            squares = {t * t % p for t in range(p)}
            for a in range(p):
                try:
                    r = arith.mod_sqrt(a, p)
                except ValueError as e:
                    assert a not in squares or "not a quadratic residue" not in str(e), (a, p, str(e))
                    continue
                assert 0 <= r < p and r * r % p == a, (a, p)


class TestFactorizationHelpers:
    def test_factorize_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 10**7)
            f = arith.factorize(n)
            assert math.prod(p**e for p, e in f.items()) == n
            assert all(arith.is_prime(p) for p in f)

    def test_factorize_past_trial_division(self):
        # cofactors above TRIAL_LIMIT^2: semiprimes with both factors near 10^8,
        # squares and cubes of primes, and x^2 + 4 at x = 10^8 + 3 (a prime)
        near = [sympy.nextprime(10**8 + k) for k in (0, 1000, 10**6)]
        cases = [p * q for i, p in enumerate(near) for q in near[i:]]
        cases += [p**3 for p in near] + [sympy.nextprime(arith.TRIAL_LIMIT) ** 2, (10**8 + 3) ** 2 + 4]
        cases += [2**5 * 4099**2 * near[0], (2**31 - 1) * (2**61 - 1), 2**61 - 1]
        rng = random.Random(17)
        cases += [rng.randint(2, 10**18) for _ in range(100)]
        for n in cases:
            f = arith.factorize(n)
            assert f == sympy.factorint(n) and list(f) == sorted(f), n

    def test_valuation(self):
        assert arith.valuation(2000, 2) == 4
        assert arith.valuation(2000, 5) == 3
        assert arith.valuation(7, 2) == 0
        with pytest.raises(ValueError):
            arith.valuation(0, 3)

    def test_is_square(self):
        squares = {n * n for n in range(100)}
        for n in range(-10, 5000):
            assert arith.is_square(n) == (n in squares)
