import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quatsurf import arith, quadfields
from quatsurf.quadfields import (
    QuadraticField,
    SplitType,
    character_table,
    count_fundamental_discriminants,
    discriminant_blocks,
    fundamental_discriminants,
    fundamental_masks,
    is_fundamental_discriminant,
    kronecker_row,
    primes_above,
    split_primes_prefix,
    splitting,
)

from oracles import fundamental_discs_oracle, quadratic_split_oracle

DELTAS = (-3, -4, -7, -8, -11, 5, 8, 12, 13)


class TestFundamentalDiscriminant:
    def test_examples(self):
        assert is_fundamental_discriminant(-4)
        assert not is_fundamental_discriminant(9)
        assert is_fundamental_discriminant(12)

    def test_edge_cases(self):
        for d in (0, 1, -1, 2, 3, -2, 4, -9, 45, -12, 25):
            assert not is_fundamental_discriminant(d), d
        for d in DELTAS:
            assert is_fundamental_discriminant(d), d

    def test_field_constructor_validates(self):
        with pytest.raises(ValueError):
            QuadraticField(-5)
        assert QuadraticField(-20).delta == -20

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_fundamental_implies_residue(self, d):
        if is_fundamental_discriminant(d):
            assert d % 4 in (0, 1)


class TestSplitting:
    def test_examples(self):
        k = QuadraticField(-4)
        assert splitting(k, 2) is SplitType.RAMIFIED
        assert splitting(k, 5) is SplitType.SPLIT
        assert splitting(k, 3) is SplitType.INERT

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            splitting(QuadraticField(-4), 6)

    def test_two_split_iff_one_mod_eight(self):
        assert splitting(QuadraticField(17), 2) is SplitType.SPLIT
        assert splitting(QuadraticField(-7), 2) is SplitType.SPLIT
        assert splitting(QuadraticField(5), 2) is SplitType.INERT
        assert splitting(QuadraticField(-8), 2) is SplitType.RAMIFIED

    def test_oracle_agreement_small(self):
        for delta in DELTAS:
            k = QuadraticField(delta)
            for p in (int(q) for q in arith.primes_up_to(500)):
                assert splitting(k, p) is quadratic_split_oracle(delta, p), (delta, p)


class TestPrimesAbove:
    def test_split_roots(self):
        pp = primes_above(QuadraticField(-4), 5)
        assert [p.root for p in pp] == [1, 4]
        assert all(p.norm == 5 for p in pp)

    def test_inert_norm(self):
        (p,) = primes_above(QuadraticField(-4), 3)
        assert p.kind is SplitType.INERT and p.norm == 9

    def test_ramified(self):
        (p,) = primes_above(QuadraticField(-4), 2)
        assert p.kind is SplitType.RAMIFIED and p.norm == 2 and p.root == 0

    def test_conjugate_pairing(self):
        a, b = primes_above(QuadraticField(-4), 13)
        assert a.conjugate == b and b.conjugate == a

    @given(
        st.sampled_from(DELTAS),
        st.sampled_from([p for p in range(2, 2001) if arith.is_prime(p)]),
    )
    def test_consistency_and_norm_product(self, delta, p):
        # sum of e*f over the primes above p is always 2
        k = QuadraticField(delta)
        kind = splitting(k, p)
        pp = primes_above(k, p)
        assert all(q.kind is kind for q in pp)
        e = 2 if kind is SplitType.RAMIFIED else 1
        assert math.prod(q.norm**e for q in pp) == p * p
        if kind is SplitType.SPLIT and p > 2:
            r, s = pp[0].root, pp[1].root
            assert r != s and (r + s) % p == 0
            assert (r * r - delta) % p == 0 and (s * s - delta) % p == 0


class TestSplitPrimePrefix:
    def test_examples(self):
        assert split_primes_prefix(QuadraticField(-4), 2).primes == [5, 13]
        assert split_primes_prefix(QuadraticField(-3), 1).primes == [7]
        assert split_primes_prefix(QuadraticField(-4), 1).primes == [5]

    def test_ratio_reported(self):
        primes, ratio = split_primes_prefix(QuadraticField(-4), 10)
        assert ratio == primes[-1] / (10 * math.log(20))
        assert primes == sorted(primes)

    def test_even_prime_allowed_when_not_odd_only(self):
        # 2 splits in the field of discriminant 17
        assert split_primes_prefix(QuadraticField(17), 1, odd_only=False).primes == [2]


class TestDiscriminantEnumeration:
    def test_examples(self):
        assert list(fundamental_discriminants(10, "imaginary")) == [-3, -4, -7, -8]
        assert list(fundamental_discriminants(3, "imaginary")) == [-3]

    def test_matches_bruteforce(self):
        for sign in ("imaginary", "real", "both"):
            assert list(fundamental_discriminants(500, sign)) == fundamental_discs_oracle(500, sign)

    def test_count_matches_stream(self):
        assert count_fundamental_discriminants(10**4) == len(list(fundamental_discriminants(10**4)))

    def test_density_six_over_pi_squared(self):
        for x, tol in ((10**5, 0.02), (10**6, 0.01)):
            count = count_fundamental_discriminants(x)
            assert abs(count / x - 6 / math.pi**2) < tol * (6 / math.pi**2), x

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            list(fundamental_discriminants(10, "complex"))

    def test_tiny_blocks_match_bruteforce(self, monkeypatch):
        # x = 66 and 67 end exactly on and just past the edge of a 64-value block
        monkeypatch.setattr(quadfields, "BLOCK", 64)
        for x in (2, 3, 66, 67, 1000):
            for sign in ("imaginary", "real", "both"):
                want = fundamental_discs_oracle(x, sign)
                assert list(fundamental_discriminants(x, sign)) == want, (x, sign)
                assert count_fundamental_discriminants(x, sign) == len(want), (x, sign)
        assert len(list(discriminant_blocks(1000))) == 16

    def test_masks_match_bruteforce(self, monkeypatch):
        monkeypatch.setattr(quadfields, "BLOCK", 64)
        neg, pos = fundamental_masks(1000)
        assert len(neg) == len(pos) == 1001
        assert (-np.flatnonzero(neg)).tolist() == fundamental_discs_oracle(1000, "imaginary")
        assert np.flatnonzero(pos).tolist() == fundamental_discs_oracle(1000, "real")


class TestKroneckerRows:
    SYMBOL = {SplitType.SPLIT: 1, SplitType.INERT: -1, SplitType.RAMIFIED: 0}

    def test_rows_match_splitting(self):
        discs = np.concatenate(list(discriminant_blocks(2000)))
        for p in arith.primes_up_to(200).tolist():
            want = [self.SYMBOL[splitting(QuadraticField(d), p)] for d in discs.tolist()]
            assert kronecker_row(discs, p).tolist() == want, p
            # a row shorter than p takes Euler's criterion instead of the table
            assert kronecker_row(discs[:60], p).tolist() == want[:60], p

    def test_rows_for_large_primes(self):
        # Euler's criterion in int64 up to 2^31 - 1, the scalar symbol past 3e9;
        # no table of size p is built, so this stays cheap
        discs = np.concatenate(list(discriminant_blocks(2000)))
        for p in (1009, 65537, 10**9 + 7, 2**31 - 1, 3000000037):
            want = [0 if d % p == 0 else (1 if pow(d, (p - 1) // 2, p) == 1 else -1) for d in discs.tolist()]
            row = kronecker_row(discs, p)
            assert row.dtype == np.int8 and row.tolist() == want, p


class TestCharacterTable:
    def test_matches_kronecker(self):
        for d in fundamental_discriminants(2000):
            table = character_table(d)
            assert table.dtype == np.int8 and len(table) == abs(d), d
            assert table.tolist() == [arith.kronecker(d, n) for n in range(abs(d))], d

    def test_rejects_non_fundamental(self):
        for d in (0, 1, -1, 9, -12, 20, -16):
            with pytest.raises(ValueError):
                character_table(d)
