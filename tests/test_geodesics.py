import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatsurf import geodesics
from quatsurf.fieldforge import construct_fields
from quatsurf.geodesics import (
    TraceClass,
    classify_trace,
    fundamental_unit,
    geodesic_length_real_quadratic,
    height_and_length_bounds,
    length_from_trace,
    surface_obstruction,
)
from quatsurf.quadfields import fundamental_discriminants
from quatsurf.relquad import RelQuadExt

from oracles import pell_convergent_oracle, pell_unit_oracle


class TestClassifyTrace:
    def test_examples(self):
        assert classify_trace(3) is TraceClass.HYPERBOLIC
        assert classify_trace(2j) is TraceClass.LOXODROMIC_NONHYPERBOLIC
        assert classify_trace(2) is TraceClass.PARABOLIC

    def test_boundaries(self):
        assert classify_trace(-2) is TraceClass.PARABOLIC
        assert classify_trace(1.999) is TraceClass.ELLIPTIC
        assert classify_trace(-2.001) is TraceClass.HYPERBOLIC
        assert classify_trace(1 + 1e-12j) is TraceClass.LOXODROMIC_NONHYPERBOLIC

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            classify_trace(float("nan"))
        with pytest.raises(ValueError):
            classify_trace(complex(float("inf"), 0))


class TestLengthFromTrace:
    def test_real_example(self):
        g = length_from_trace(3)
        assert g.length == pytest.approx(2 * math.log((3 + math.sqrt(5)) / 2), abs=1e-14)
        assert g.holonomy == 0.0

    def test_complex_example(self):
        g = length_from_trace(2j)
        assert g.length == pytest.approx(2 * math.log(1 + math.sqrt(2)), abs=1e-14)
        assert g.holonomy == pytest.approx(math.pi)

    def test_squaring_doubles_exactly(self):
        g1 = length_from_trace(3)
        g2 = length_from_trace(3 * 3 - 2)
        assert g2.length == pytest.approx(2 * g1.length, rel=1e-14)

    def test_elliptic_parabolic_rejected(self):
        for t in (0, 1.5, 2, -2):
            with pytest.raises(ValueError):
                length_from_trace(t)

    def test_cosh_identity_for_hyperbolic(self):
        for t in (2.5, 3, -4, 7.25, 100):
            g = length_from_trace(t)
            assert math.cosh(g.length / 2) == pytest.approx(abs(t) / 2, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.complex_numbers(min_magnitude=2.05, max_magnitude=50, allow_nan=False, allow_infinity=False))
    def test_squaring_identity_random(self, t):
        if classify_trace(t) in (TraceClass.ELLIPTIC, TraceClass.PARABOLIC):
            return
        base = length_from_trace(t)
        squared = length_from_trace(t * t - 2)
        assert squared.length == pytest.approx(2 * base.length, rel=1e-9, abs=1e-12)


class TestSurfaceObstruction:
    def test_examples(self):
        assert surface_obstruction(RelQuadExt(-4, 1))
        assert not surface_obstruction(RelQuadExt(-4, 0))

    def test_constructed_families_always_obstructed(self):
        for delta in (-3, -4, -7, -8, -11):
            for ext in construct_fields(delta, 3).extensions:
                assert surface_obstruction(ext)


class TestFundamentalUnit:
    def test_examples(self):
        u5 = fundamental_unit(5)
        assert (u5.a, u5.b, u5.norm) == (1, 1, -1)  # (1 + sqrt 5)/2
        u8 = fundamental_unit(8)
        assert (u8.a, u8.b, u8.norm) == (2, 1, -1)  # 1 + sqrt 2
        u12 = fundamental_unit(12)
        assert (u12.a, u12.b, u12.norm) == (4, 1, 1)  # 2 + sqrt 3

    def test_pell_invariant_exact(self):
        for d in fundamental_discriminants(2000, "real"):
            u = fundamental_unit(d)
            assert u.a * u.a - d * u.b * u.b == 4 * u.norm

    def test_minimality_brute_force(self):
        for d in fundamental_discriminants(160, "real"):
            u = fundamental_unit(d)
            assert (u.a, u.b, u.norm) == pell_unit_oracle(d)

    def test_minimality_against_sympy(self):
        from sympy.solvers.diophantine.diophantine import diop_DN

        rng = random.Random(20240817)
        ds = list(fundamental_discriminants(5000, "real"))
        for d in rng.sample(ds, 25) + [5, 8, 12, 13, 61, 316, 904]:
            u = fundamental_unit(d)
            candidates = []
            for n in (-4, 4):
                for a, b in diop_DN(d, n):
                    if b:
                        candidates.append((abs(a), abs(b), n // 4))
            best = min(candidates, key=lambda t: (t[1], t[0]))
            assert (u.a, u.b, u.norm) == best, d

    def test_matches_pell_oracles(self):
        # every fundamental d < 4000, so every prime d = 1 (mod 4) there: the
        # convergent oracle everywhere, the direct search where b is small
        for d in fundamental_discriminants(4000, "real"):
            u = fundamental_unit(d)
            assert (u.a, u.b, u.norm) == pell_convergent_oracle(d), d
            if u.b <= 1000:
                assert (u.a, u.b, u.norm) == pell_unit_oracle(d, b_limit=1000), d

    # (d, norm, b.bit_length(), sha256 of a and b) for the 16 primes d = 1 (mod 4)
    # above 1,003,000,000, from the left-to-right product of the cycle matrices
    GOLDEN = [
        (1003000001, -1, 12672, "c67ae3dc444312d6"),
        (1003000021, -1, 35594, "4849460b36412aa2"),
        (1003000073, -1, 29524, "e9275f5a3d21aaf9"),
        (1003000081, -1, 11661, "da24536390dfeb68"),
        (1003000093, -1, 24060, "6400c4adee53d774"),
        (1003000121, -1, 9536, "a13b71033dfa6130"),
        (1003000129, -1, 74590, "421ddfea14319954"),
        (1003000157, -1, 7731, "1a48ccf0e6e99f83"),
        (1003000189, -1, 37683, "46b4d28ac5bed33a"),
        (1003000277, -1, 3188, "67df882785dcdf14"),
        (1003000333, -1, 7445, "aac1daca0ec7265a"),
        (1003000337, -1, 22721, "9987d1274659c158"),
        (1003000373, -1, 4350, "9c94f61e78849d56"),
        (1003000429, -1, 32407, "151b06da1928688d"),
        (1003000489, -1, 95205, "597801c240b82a4f"),
        (1003000529, -1, 11949, "fd5c94b6a75f670f"),
    ]

    def test_golden_units_near_1e9(self):
        for d, norm, bits, digest in self.GOLDEN:
            u = fundamental_unit(d)
            h = hashlib.sha256()
            for n in (u.a, u.b):
                h.update(n.to_bytes((n.bit_length() + 8) // 8, "big"))
            assert (u.norm, u.b.bit_length(), h.hexdigest()[:16]) == (norm, bits, digest), d

    def test_regulator_matches_exact_ratio(self):
        # the float division b^2 d / a^2 rounds like the exact rational would
        for d in [g[0] for g in self.GOLDEN] + [10**12 + 61]:
            u = fundamental_unit(d)
            ratio = float(Fraction(u.b * u.b * d, u.a * u.a))
            assert u.regulator == math.log(u.a) - math.log(2) + math.log1p(math.sqrt(ratio)), d

    def test_regulator_large_unit(self):
        # d = 9949 has a famously large fundamental unit; exact invariant + finite log
        u = fundamental_unit(9949)
        assert u.a * u.a - 9949 * u.b * u.b == 4 * u.norm
        assert 0 < u.regulator < 1000

    def test_rejects_bad_input(self):
        for d in (-4, 0, 9, 20):
            with pytest.raises(ValueError):
                fundamental_unit(d)


class TestCycleProduct:
    @staticmethod
    def left_to_right(quotients):
        A, B, C, E = 1, 0, 0, 1
        for a in quotients:
            A, B, C, E = A * a + B, A, C * a + E, C
        return A, B, C, E

    def test_matches_left_to_right(self):
        rng = random.Random(20261018)
        leaf = geodesics.LEAF
        edges = [1, 2, 3, leaf - 1, leaf, leaf + 1, 2 * leaf - 1, 2 * leaf, 2 * leaf + 1, 3 * leaf, 5 * leaf + 1, 299, 300]
        for n in edges + [rng.randint(1, 300) for _ in range(60)]:
            quotients = [rng.randint(1, 10 ** rng.randint(1, 8)) for _ in range(n)]
            assert geodesics._cycle_product(quotients) == self.left_to_right(quotients), n


class TestGeodesicLengthRealQuadratic:
    def test_examples(self):
        assert geodesic_length_real_quadratic(5).length == pytest.approx(4 * math.log((1 + math.sqrt(5)) / 2), abs=1e-12)
        assert geodesic_length_real_quadratic(12).length == pytest.approx(2 * math.log(2 + math.sqrt(3)), abs=1e-12)
        assert geodesic_length_real_quadratic(5).holonomy == 0.0

    def test_ratio_bounded_over_progression(self):
        from quatsurf.primeforge import nth_prime_in_ap

        ratios = []
        for i in range(1, 51):
            p = nth_prime_in_ap(1, 4, i).prime
            ratios.append(geodesic_length_real_quadratic(p).length / (i * math.log(2 * i)) ** 2)
        # empirical scan: the envelope is reached immediately and decays
        assert max(ratios) == ratios[0] < 4.1
        assert max(ratios[25:]) < 0.01

    def test_consistent_with_trace(self):
        # the squared golden-ratio unit is the eigenvalue of a trace-3 element
        from quatsurf.geodesics import length_from_trace

        assert geodesic_length_real_quadratic(5).length == pytest.approx(length_from_trace(3).length, abs=1e-12)


class TestHeightBounds:
    def test_unit_disc(self):
        assert height_and_length_bounds(1) == (2**44 * 81, 2**47 * 81)

    def test_example_disc(self):
        h, ell = height_and_length_bounds(20480)
        assert h == 2**44 * 81 * 20480**2
        assert ell == 8 * h

    def test_quadratic_scaling(self):
        h1, l1 = height_and_length_bounds(600)
        h2, l2 = height_and_length_bounds(1200)
        assert (h2, l2) == (4 * h1, 4 * l1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            height_and_length_bounds(0)

