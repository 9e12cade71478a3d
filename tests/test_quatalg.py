import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatsurf import arith, quadfields, quatalg
from quatsurf.errors import BoundsTooSmall, EmbeddingUndecidable
from quatsurf.quadfields import PrimeOfK, QuadraticField, SplitType, primes_above, splitting
from quatsurf.quatalg import (
    QuatAlgK,
    QuatAlgQ,
    base_change,
    embeds,
    fuchsian_admissible,
    is_isomorphic,
    recover_ramification,
)
from quatsurf.relquad import RelQuadExt

from oracles import recover_oracle


def pair_algebra(delta, rational_primes):
    k = QuadraticField(delta)
    ram = set()
    for p in rational_primes:
        ram.update(primes_above(k, p))
    return QuatAlgK(delta, frozenset(ram))


class TestAlgebraTypes:
    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            QuatAlgQ(frozenset({2}))
        with pytest.raises(ValueError):
            QuatAlgQ(frozenset({2, 3}), ram_infinite=True)
        assert QuatAlgQ(frozenset({2}), ram_infinite=True).is_definite

    def test_primality_enforced(self):
        with pytest.raises(ValueError):
            QuatAlgQ(frozenset({4, 3}))

    def test_k_algebra_consistency(self):
        with pytest.raises(ValueError):
            QuatAlgK(-4, frozenset({PrimeOfK(5, SplitType.INERT)}))  # 5 splits in Q(i)
        with pytest.raises(ValueError):
            QuatAlgK(-4, frozenset({PrimeOfK(5, SplitType.SPLIT, 2)}))  # 2^2 != -4 mod 5
        b = pair_algebra(-4, [5])
        assert b.is_division and b.disc_f_abs == 25


class TestIsIsomorphic:
    def test_examples(self):
        assert is_isomorphic(QuatAlgQ(frozenset({2, 3})), QuatAlgQ(frozenset({2, 3})))
        assert not is_isomorphic(QuatAlgQ(frozenset({2, 3})), QuatAlgQ(frozenset({2, 5})))

    def test_base_change_routes_agree(self):
        # two rational algebras with the same split part give isomorphic base changes
        b1 = base_change(QuatAlgQ(frozenset({5, 3})), -4)
        b2 = base_change(QuatAlgQ(frozenset({5, 7})), -4)
        assert is_isomorphic(b1, b2)

    def test_mixed_bases_rejected(self):
        with pytest.raises(ValueError):
            is_isomorphic(QuatAlgQ(frozenset()), pair_algebra(-4, [5]))
        with pytest.raises(ValueError):
            is_isomorphic(pair_algebra(-4, [5]), pair_algebra(-8, []))


class TestEmbeds:
    def test_over_Q_examples(self):
        b = QuatAlgQ(frozenset({2, 3}))
        assert not embeds(b, QuadraticField(13))  # 3 splits in Q(sqrt 13)
        assert embeds(b, QuadraticField(-4))  # 2 ramified, 3 inert

    def test_definite_needs_imaginary(self):
        b = QuatAlgQ(frozenset({2}), ram_infinite=True)
        assert not embeds(b, QuadraticField(5))
        assert embeds(b, QuadraticField(-4))

    def test_matrix_algebra_over_k(self):
        b = QuatAlgK(-4, frozenset())
        assert embeds(b, RelQuadExt(-4, 1))

    def test_undecidable_prime_signals(self):
        b = pair_algebra(-4, [5])
        with pytest.raises(EmbeddingUndecidable, match="extend search data"):
            embeds(b, RelQuadExt(-4, 36))  # valuation 2 at the ramified set

    def test_nonsplit_restatement(self):
        # embeds(B+, L) forces every ramified prime nonsplit in L
        for ram in ({2, 3}, {3, 7}, {5, 13}, {2, 3, 5, 7}):
            b = QuatAlgQ(frozenset(ram))
            for d in (-3, -4, 5, 13, 17, -20):
                ell = QuadraticField(d)
                if embeds(b, ell):
                    assert all(splitting(ell, p) is not SplitType.SPLIT for p in ram)


class TestBaseChange:
    def test_examples(self):
        bc = base_change(QuatAlgQ(frozenset({5, 3})), -4)
        assert sorted(p.root for p in bc.ram_finite) == [1, 4]
        assert base_change(QuatAlgQ(frozenset({3, 7})), -4).ram_finite == frozenset()
        assert base_change(QuatAlgQ(frozenset()), -4).ram_finite == frozenset()

    def test_definite_rejected(self):
        with pytest.raises(ValueError):
            base_change(QuatAlgQ(frozenset({2}), ram_infinite=True), -4)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]), min_size=0, max_size=4))
    def test_round_trip_admissible(self, ram):
        if len(ram) % 2 == 1:
            ram = set(ram) | {23}
        b_plus = QuatAlgQ(frozenset(ram))
        for delta in (-4, -3, -8):
            bc = base_change(b_plus, delta)
            assert len(bc.ram_finite) % 2 == 0
            pairing = fuchsian_admissible(bc)
            assert pairing.admissible
            k = QuadraticField(delta)
            expected = sorted(p for p in ram if splitting(k, p) is SplitType.SPLIT)
            assert pairing.primes == expected


class TestFuchsianAdmissible:
    def test_examples(self):
        ok, primes = fuchsian_admissible(pair_algebra(-4, [5]))
        assert ok and primes == [5]
        assert fuchsian_admissible(QuatAlgK(-4, frozenset())) == (True, [])

    def test_unpaired_rejected(self):
        a = primes_above(QuadraticField(-4), 5)[0]
        b = primes_above(QuadraticField(-4), 13)[0]
        assert not fuchsian_admissible(QuatAlgK(-4, frozenset({a, b})))

    def test_inert_pair_rejected(self):
        inert = [PrimeOfK(3, SplitType.INERT), PrimeOfK(7, SplitType.INERT)]
        assert not fuchsian_admissible(QuatAlgK(-4, frozenset(inert)))


class TestRecoverRamification:
    def test_single_pair(self):
        r = recover_ramification(pair_algebra(-4, [5]), 200, 100)
        assert r.primes == [5]

    def test_empty_algebra(self):
        r = recover_ramification(QuatAlgK(-4, frozenset()), 200, 100)
        assert r.primes == []

    def test_two_pairs(self):
        r = recover_ramification(pair_algebra(-4, [5, 13]), 2000, 200)
        assert r.primes == [5, 13]

    # (delta, pairing, d_bound, p_bound): odd pairings take the auxiliary-prime
    # branch; 2 is a candidate throughout, split in k for -7, inert for -3 and
    # ramified for -4 and -8
    ORACLE_CASES = (
        (-3, [7], 300, 60),
        (-3, [7, 13], 500, 60),
        (-4, [5], 200, 100),
        (-4, [13], 300, 100),
        (-4, [5, 13], 500, 60),
        (-4, [5, 13, 17], 600, 60),
        (-7, [11], 300, 60),
        (-7, [11, 23], 500, 60),
        (-8, [3], 200, 60),
        (-8, [3, 11], 500, 60),
    )

    def test_matches_enumeration_oracle(self):
        for delta, pairing, db, pb in self.ORACLE_CASES:
            got = recover_ramification(pair_algebra(delta, pairing), db, pb)
            want = recover_oracle(delta, pairing, db, pb)
            assert (set(got.primes), got.admissible_field_count) == want, (delta, pairing)

    def test_block_edges_match_oracle(self, monkeypatch):
        monkeypatch.setattr(quadfields, "BLOCK", 64)
        for delta, pairing, db, pb in ((-4, [5, 13], 500, 60), (-7, [11], 300, 60)):
            got = recover_ramification(pair_algebra(delta, pairing), db, pb)
            assert (set(got.primes), got.admissible_field_count) == recover_oracle(delta, pairing, db, pb)

    def test_large_pairing_primes(self):
        # pairing primes far above both bounds: rows by Euler's criterion
        # (1000000009) or by the scalar symbol past the int64 range (3000000037)
        for pairing in ([1000000009], [5, 1000000009], [3000000037], [13, 3000000037]):
            got = recover_ramification(pair_algebra(-4, pairing), 300, 60)
            assert (set(got.primes), got.admissible_field_count) == recover_oracle(-4, pairing, 300, 60), pairing

    def test_other_base_fields_exact(self):
        for delta, pairing, db, pb in ((-3, [7], 200, 100), (-7, [11], 300, 100), (-8, [3], 200, 100)):
            got = recover_ramification(pair_algebra(delta, pairing), db, pb)
            assert got.primes == sorted(pairing), (delta, pairing)

    def test_containment_and_monotonicity(self):
        b = pair_algebra(-4, [13])
        previous = None
        for db in (50, 100, 200, 400):
            got = set(recover_ramification(b, db, 100).primes)
            assert {13} <= got
            if previous is not None:
                assert got <= previous
            previous = got

    def test_memory_is_one_prime_window(self):
        # the candidates up to prime_bound are walked in sieve windows, not listed:
        # a list of the 216816 primes below 3e6 alone would take about 8 MiB
        b = base_change(QuatAlgQ({5, 13}), -4)
        tracemalloc.start()
        try:
            got = recover_ramification(b, 200, 3 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.primes == [5, 13]
        assert peak < 6 * 2**20, peak

    def test_aux_primes_sieved_once(self, monkeypatch):
        # an odd pairing over many discriminant blocks: the auxiliary primes nonsplit in k
        # are one list kept across blocks, extended window by window, so each sieve window
        # is sieved at most twice (for that list and for the candidates), not once per block
        monkeypatch.setattr(quadfields, "BLOCK", 64)
        monkeypatch.setattr(arith, "SEGMENT", 16)
        sieve, calls = arith.primes_between, []
        monkeypatch.setattr(arith, "primes_up_to", lambda n: sieve(2, n))  # base primes, not counted
        monkeypatch.setattr(arith, "primes_between", lambda lo, hi: calls.append((lo, hi)) or sieve(lo, hi))
        for delta, pairing, db, pb in ((-7, [11], 300, 60), (-4, [5], 500, 60), (-4, [5, 13, 17], 400, 100)):
            calls.clear()
            got = recover_ramification(pair_algebra(delta, pairing), db, pb)
            assert (set(got.primes), got.admissible_field_count) == recover_oracle(delta, pairing, db, pb)
            windows = {(lo, min(pb, lo + 15)) for lo in range(2, pb + 1, 16)}
            assert set(calls) <= windows and max(Counter(calls).values()) <= 2, (delta, pairing, calls)
            assert (2, 17) in calls, (delta, pairing)

    def test_no_scalar_symbols(self, monkeypatch):
        # every symbol of the walk is a numpy row or column: no scalar arith.kronecker
        # per (candidate, field), as a head of scalar symbols once took
        algebras = [pair_algebra(-4, [5, 13]), pair_algebra(-4, [5, 13, 17])]
        calls = []
        kronecker = arith.kronecker
        monkeypatch.setattr(arith, "kronecker", lambda a, n: calls.append((a, n)) or kronecker(a, n))
        got = [recover_ramification(b, 200, 10**6) for b in algebras]
        assert calls == []
        assert (got[0].primes, got[0].admissible_field_count) == ([5, 13], 36)
        assert (got[1].primes, got[1].admissible_field_count) == ([5, 13, 17, 254777], 18)

    def test_rows_after_idle_columns(self, monkeypatch):
        # a repeated -3 strikes nothing after its first column, so the walk turns to
        # rows of the fields left before it reaches 5 and -7, which must still strike
        for tail in ([5], [5, -7]):
            discs = np.array([-3] * 15 + tail + [-3] * 20, dtype=np.int64)
            monkeypatch.setattr(quatalg, "discriminant_blocks", lambda x: iter([discs]))
            want = [p for p in arith.primes_up_to(100).tolist() if all(arith.kronecker(d, p) != 1 for d in discs.tolist())]
            assert recover_ramification(QuatAlgK(-4, frozenset()), 100, 100).primes == want, tail

    def test_starved_bounds(self):
        with pytest.raises(BoundsTooSmall):
            recover_ramification(pair_algebra(-4, [5]), 2, 100)
        # odd pairing with no auxiliary primes available is also starved
        with pytest.raises(BoundsTooSmall):
            recover_ramification(pair_algebra(-4, [5]), 200, 1)

    def test_requires_admissible(self):
        a = primes_above(QuadraticField(-4), 5)[0]
        b = primes_above(QuadraticField(-4), 13)[0]
        with pytest.raises(ValueError):
            recover_ramification(QuatAlgK(-4, frozenset({a, b})), 100, 50)
