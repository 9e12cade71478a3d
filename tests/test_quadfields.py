import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quatsurf import arith, census, quadfields, quatalg
from quatsurf.census import SEGMENT, PrimePredicate
from quatsurf.quadfields import (
    QuadraticField,
    SplitType,
    count_fundamental_discriminants,
    discriminant_blocks,
    fundamental_discriminants,
    fundamental_masks,
    is_fundamental_discriminant,
    kronecker_row,
    primes_above,
    ramification_probability_check,
    split_primes_prefix,
    splitting,
    symbol_column,
    wood_stats,
)
from quatsurf.quatalg import QuatAlgK, recover_ramification
from quatsurf.relquad import RelQuadExt

from oracles import character_table, fundamental_discs_oracle, quadratic_split_oracle

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

    def test_matches_oracle(self):
        # the scalar rule reads the block engine's classes mod 16; the oracle
        # checks the d = 1 (mod 4) / d = 4m definition integer by integer
        want = set(fundamental_discs_oracle(2 * 10**4, "both"))
        got = {d for a in range(1, 2 * 10**4 + 1) for d in (-a, a) if is_fundamental_discriminant(d)}
        assert got == want
        assert [d for d in range(-2, 3) if is_fundamental_discriminant(d)] == []
        # odd parts that are large primes: 2^61 - 1 = 3 (mod 4), 2^89 - 1 = 3 (mod 4)
        assert is_fundamental_discriminant(-(2**61 - 1)) and not is_fundamental_discriminant(2**61 - 1)
        assert is_fundamental_discriminant(4 * (2**89 - 1)) and is_fundamental_discriminant(-8 * (2**89 - 1))
        assert not is_fundamental_discriminant(16 * (2**89 - 1)) and not is_fundamental_discriminant(-9 * (2**61 - 1))

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
        # _fundamental_blocks is the one place that reads sign, and refuses a bad one
        # before any block, so even x below the first discriminant is refused
        for x in (2, 10):
            with pytest.raises(ValueError, match="bad sign"):
                list(fundamental_discriminants(x, "complex"))
            with pytest.raises(ValueError, match="bad sign"):
                count_fundamental_discriminants(x, "complex")
            with pytest.raises(ValueError, match="bad sign"):
                list(discriminant_blocks(x, "complex"))

    def test_bounds_above_2_53_refused_up_front(self):
        # refused before the base primes are sieved: at 10^21 their strip alone
        # would be sqrt(x) = 3.2 * 10^10 bytes, and fundamental_masks' (2, x + 1)
        # mask 16 PiB at 2^53 + 1
        entry_points = (
            count_fundamental_discriminants,
            lambda x: list(discriminant_blocks(x)),
            lambda x: list(fundamental_discriminants(x, "real")),
            lambda x: wood_stats(37, [53], x),
            lambda x: ramification_probability_check(3, x),
            fundamental_masks,
        )
        for x in (2**53 + 1, 10**21):
            for i, call in enumerate(entry_points):
                tracemalloc.start()
                try:
                    with pytest.raises(ValueError, match=r"2\^53"):
                        call(x)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1 << 20, (x, i, peak)

    def test_tiny_blocks_match_bruteforce(self, monkeypatch):
        # x = 66 and 67 end exactly on and just past the edge of a 64-value block;
        # 1000 is no multiple of 16, so lo mod 16 moves from block to block
        for block in (64, 1000):
            monkeypatch.setattr(quadfields, "BLOCK", block)
            for x in (2, 3, 66, 67, 1000, 3000):
                for sign in ("imaginary", "real", "both"):
                    want = fundamental_discs_oracle(x, sign)
                    assert list(fundamental_discriminants(x, sign)) == want, (block, x, sign)
                    assert count_fundamental_discriminants(x, sign) == len(want), (block, x, sign)
            assert len(list(discriminant_blocks(3000))) == -(-2998 // block)

    def test_masks_match_bruteforce(self, monkeypatch):
        for block in (64, 1000):
            monkeypatch.setattr(quadfields, "BLOCK", block)
            neg, pos = fundamental_masks(3000)
            assert len(neg) == len(pos) == 3001
            assert (-np.flatnonzero(neg)).tolist() == fundamental_discs_oracle(3000, "imaginary"), block
            assert np.flatnonzero(pos).tolist() == fundamental_discs_oracle(3000, "real"), block

    def test_one_strip_per_block(self, monkeypatch):
        # D = -a and D = +a are both read off the odd-squarefree strip over a;
        # the strips struck by primes are the base-prime sieve's odd-only strips
        # (step 2), all before the first block
        strike, calls = arith.strike_strip, []

        def spy(lo, hi, primes, moduli, step=1):
            calls.append((lo, hi, len(primes) > 0 and np.array_equal(moduli, primes**2)))
            return strike(lo, hi, primes, moduli, step)

        monkeypatch.setattr(quadfields, "BLOCK", 64)
        monkeypatch.setattr(arith, "strike_strip", spy)
        for sign in ("imaginary", "real", "both"):
            calls.clear()
            assert count_fundamental_discriminants(1000, sign) == len(fundamental_discs_oracle(1000, sign))
            blocks = [i for i, (_, _, squares) in enumerate(calls) if squares]
            assert [calls[i][:2] for i in blocks] == [(lo, min(1000, lo + 63)) for lo in range(3, 1001, 64)], sign
            assert blocks == list(range(blocks[0], len(calls))), sign


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


class TestSymbolColumns:
    # the transpose of a row: (disc|p) down a column of primes, on every branch
    PRIMES = arith.primes_up_to(3000)

    def scalar(self, disc, ps):
        return [arith.kronecker(disc, p) for p in ps.tolist()]

    def watch_tables(self, monkeypatch):
        tables = []
        table = quadfields._kronecker_table
        monkeypatch.setattr(quadfields, "_kronecker_table", lambda p: tables.append(p) or table(p))
        return tables

    def test_table_branch(self, monkeypatch):
        # one period of chi tiled from the odd prime tables of each disc, all
        # shorter than the column; the Euler branch would build p = 2's table
        tables = self.watch_tables(monkeypatch)
        for disc in (-3, -4, 5, 8, -8, 12, -15, 28, -420, 401):
            col = symbol_column(disc, self.PRIMES)
            assert col.dtype == np.int8 and col.tolist() == self.scalar(disc, self.PRIMES), disc
        assert tables == [3, 5, 3, 3, 5, 7, 3, 5, 7, 401]

    def test_euler_branch(self, monkeypatch):
        # discriminants longer than the column, the column starting at p = 2;
        # only p = 2's 8-entry table is built
        tables = self.watch_tables(monkeypatch)
        for disc in (-4, 5, -420, 401, 4004005, -1048579, 10**12 + 5 * 10**6 + 1, -(4 * (2**61 - 1))):
            n = min(len(self.PRIMES), abs(disc) - 1)
            for ps in (self.PRIMES[:n], self.PRIMES[-n:], self.PRIMES[:1]):
                assert symbol_column(disc, ps).tolist() == self.scalar(disc, ps), (disc, len(ps))
        assert tables and set(tables) == {2}
        # a column without 2 builds no table at all
        tables.clear()
        for disc in (-1048579, 10**12 + 5 * 10**6 + 1):
            assert symbol_column(disc, self.PRIMES[1:]).tolist() == self.scalar(disc, self.PRIMES[1:]), disc
        assert tables == []

    def test_two_by_residue_class(self, monkeypatch):
        tables = self.watch_tables(monkeypatch)
        two = np.array([2], dtype=np.int64)
        for disc in (-3, -4, 5, -7, 8, -8, 12, 13, 17, -1048579):
            assert symbol_column(disc, two).tolist() == [arith.kronecker(disc, 2)], disc
        assert set(tables) == {2}

    def test_scalar_past_powmod_limit(self):
        big = np.array([p for p in range(arith.POWMOD_LIMIT - 200, arith.POWMOD_LIMIT + 400) if arith.is_prime(p)], dtype=np.int64)
        ps = np.concatenate([self.PRIMES[:3], big])
        assert (big < arith.POWMOD_LIMIT).any() and (big >= arith.POWMOD_LIMIT).any()
        for disc in (-4, 5, 4004005, -1048579):
            assert symbol_column(disc, ps).tolist() == self.scalar(disc, ps), disc

    def test_trivial_character(self):
        assert symbol_column(1, self.PRIMES).tolist() == [1] * len(self.PRIMES)
        assert symbol_column(1, self.PRIMES[:0]).tolist() == []

    def test_transpose_of_rows(self):
        discs = np.concatenate(list(discriminant_blocks(300)))
        ps = self.PRIMES[:40]
        matrix = np.array([kronecker_row(discs, p) for p in ps.tolist()])
        for j, disc in enumerate(discs.tolist()):
            assert symbol_column(disc, ps).tolist() == matrix[:, j].tolist(), disc


class TestResidueTableBound:
    # the bound that replaces blocks: an odd residue table mod p is built only for
    # an array at least p long, the one indexed by kronecker_row or symbol_column
    @pytest.fixture
    def tables(self, monkeypatch):
        """(p, n) per _kronecker_table(p), n the length of the array of the
        kronecker_row or symbol_column call that built it (0 outside one)."""
        lengths, tables = [], []
        for name in ("kronecker_row", "symbol_column"):
            fn = getattr(quadfields, name)

            def watched(a, b, fn=fn):
                lengths.append(len(b if isinstance(b, np.ndarray) else a))
                try:
                    return fn(a, b)
                finally:
                    lengths.pop()

            for module in (quadfields, census, quatalg):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, watched)
        table = quadfields._kronecker_table
        monkeypatch.setattr(quadfields, "_kronecker_table", lambda p: tables.append((p, lengths[-1] if lengths else 0)) or table(p))
        return tables

    def assert_bounded(self, tables):
        odd = [(p, n) for p, n in tables if p != 2]
        assert odd and all(p <= n for p, n in odd), odd

    def test_prime_side_census_scan(self, tables):
        # class number two: the fixed symbols (-15|p) go down each segment's column
        PrimePredicate(-15, [RelQuadExt(-15, 1)]).members_up_to(3 * SEGMENT)
        self.assert_bounded(tables)

    @pytest.mark.parametrize("pairing", [[5, 13], [5]])
    def test_recover(self, tables, pairing):
        # an even pairing, and an odd one that also walks the auxiliary primes
        k = QuadraticField(-4)
        algebra = QuatAlgK(-4, frozenset(q for p in pairing for q in primes_above(k, p)))
        assert set(pairing) <= set(recover_ramification(algebra, 2000, 10**4).primes)
        self.assert_bounded(tables)

    def test_wood_stats(self, tables):
        wood_stats(37, [53, 59, 139, 101], 10**5)
        self.assert_bounded(tables)

    def test_symbol_columns(self, tables):
        ps = arith.primes_up_to(3000)
        for disc in (-420, 401, 4004005, -1048579):  # shorter, then longer than the column
            for col in (ps, ps[:100]):
                assert quadfields.symbol_column(disc, col).tolist() == [arith.kronecker(disc, p) for p in col.tolist()], disc
        self.assert_bounded(tables)

    def test_peak_under_twice_the_input(self):
        # a table built only for an array at least as long keeps the call's peak
        # under twice the array's int64 bytes
        n = 1 << 17
        discs = -np.arange(3, n + 3, dtype=np.int64)
        p = next(q for q in range(n - 1, 2, -1) if arith.is_prime(q))
        ps = arith.primes_up_to(1_800_000)
        q = next(q for q in range(len(ps), 2, -1) if q % 4 == 3 and arith.is_prime(q))
        for call, array in ((lambda: kronecker_row(discs, p), discs), (lambda: symbol_column(-q, ps), ps)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * array.nbytes, (peak, array.nbytes)


class TestCharacterTable:
    # the oracle against scalar symbols, and symbol_column's period route, taken at
    # every n of a column |d| long, composite or not, against the oracle
    def test_matches_kronecker(self):
        for d in fundamental_discriminants(2000):
            table = character_table(d)
            assert table.dtype == np.int8 and len(table) == abs(d), d
            assert table.tolist() == [arith.kronecker(d, n) for n in range(abs(d))], d
            assert symbol_column(d, np.arange(abs(d))).tolist() == table.tolist(), d

    def test_rejects_non_fundamental(self):
        for d in (0, 1, -1, 9, -12, 20, -16):
            with pytest.raises(ValueError):
                character_table(d)

    def test_every_two_part_class(self):
        # every 2-part class, |d| around 64 and 128, against scalar symbols
        for d in (-3, -4, 5, 8, -8, 65, -67, -131, 129, 133, -132, 140, 136, 152, -136, -152, -1155):
            table = character_table(d)
            assert table.dtype == np.int8, d
            assert table.tolist() == [arith.kronecker(d, n) for n in range(abs(d))], d
            assert symbol_column(d, np.arange(abs(d))).tolist() == table.tolist(), d
        with pytest.raises(ValueError):
            character_table(-12)


class TestKroneckerTable:
    def test_squares_struck(self):
        # (p + 1)/2 squares struck in one pass
        for p in (3, 113, 127, 131, 137, 251, 257, 263, 1031):
            squares = {x * x % p for x in range(1, p)}
            table = quadfields._kronecker_table(p)
            assert table.dtype == np.int8, p
            assert table.tolist() == [0] + [1 if r in squares else -1 for r in range(1, p)], p
        assert quadfields._kronecker_table(2).tolist() == [0, 1, 0, -1, 0, -1, 0, 1]
