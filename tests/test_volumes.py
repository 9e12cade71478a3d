import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from quatsurf import arith, volumes
from quatsurf.quadfields import QuadraticField, fundamental_discriminants, primes_above
from quatsurf.quatalg import QuatAlgK, QuatAlgQ
from quatsurf.volumes import MAX_ABS_DELTA, MIN_TOL, count_scaling, dirichlet_L2, fuchsian_coarea, kleinian_covolume

from oracles import (
    catalan_oracle,
    dirichlet_L2_oracle,
    dirichlet_L2_period_oracle,
    dirichlet_L2_theta_oracle,
    theta_term,
)

CATALAN = 0.9159655941772190  # well-known value of L(2, chi_{-4})


def pair_algebra(delta, rational_primes):
    k = QuadraticField(delta)
    ram = set()
    for p in rational_primes:
        ram.update(primes_above(k, p))
    return QuatAlgK(delta, frozenset(ram))


class TestDirichletL2:
    def test_catalan(self):
        val = dirichlet_L2(-4, 1e-10)
        assert abs(val - CATALAN) < 1e-9
        assert abs(val - catalan_oracle()) < 1e-9

    def test_invalid_discriminant(self):
        for d in (1, 0, -5, 9):
            with pytest.raises(ValueError):
                dirichlet_L2(d)

    def test_refinement_contract(self):
        # refining the tolerance tenfold moves the value by less than the old one
        for delta in (-4, -3, 5, -163, 316):
            coarse = dirichlet_L2(delta, 1e-7)
            fine = dirichlet_L2(delta, 1e-8)
            assert abs(coarse - fine) < 1e-7

    def test_positive_tolerance_required(self):
        with pytest.raises(ValueError):
            dirichlet_L2(-4, 0.0)

    def test_tolerance_floor(self):
        # below float64 resolution no tol can be met; refused before any work
        with pytest.raises(ValueError, match="at least"):
            dirichlet_L2(-4, MIN_TOL / 2)
        assert abs(dirichlet_L2(-4, MIN_TOL) - CATALAN) < 1e-15

    def test_incomplete_gammas_and_tail_bound(self):
        # the pieces dirichlet_L2 rests on, against mpmath at 30 digits: E_1 on both
        # sides of its series/continued-fraction switch at x = 1, also stopped early
        # at eps; Gamma(-1/2, x) cancels e^-x/sqrt(x) against sqrt(pi) erfc(sqrt(x)),
        # so its error is measured against the first
        import mpmath

        with mpmath.workdps(30):
            for x in (1e-3, 0.25, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0, 8.0, 20.0, 40.0):
                e1 = float(mpmath.e1(x))
                assert abs(volumes._e1(x) - e1) <= 2e-15 * e1, x
                assert abs(volumes._e1(x, 1e-9) - e1) <= 1e-9 + 2e-15 * e1, x
                g = float(mpmath.gammainc(1.5, x))
                assert abs(volumes._gamma_3_2(x) - g) <= 1e-15 * g, x
                g = float(mpmath.gammainc(-0.5, x))
                assert abs(volumes._gamma_minus_1_2(x) - g) <= 2e-14 * math.exp(-x) / math.sqrt(x), x
        # the tail past n, summed in mpmath to x = 80, never exceeds the bound N is chosen from
        for delta in (-3, -4, -1003, 5, 12, 1001):
            q, odd = abs(delta), delta < 0
            first = next(n for n in itertools.count(1) if math.pi * n * n > q / 2)  # x_n > 1/2
            for n in (first, first + 1, 2 * first, 4 * first):
                with mpmath.workdps(30):
                    tail = mpmath.fsum(theta_term(q, odd, m) for m in range(n + 1, math.isqrt(26 * q) + 2))
                assert tail <= volumes._tail_bound(q, odd, n), (delta, n)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_matches_hurwitz_oracle(self, tol):
        for delta in fundamental_discriminants(200):
            assert abs(dirichlet_L2(delta, tol) - dirichlet_L2_oracle(delta)) <= tol, delta

    # the Hurwitz period sum where it takes seconds at most; at |delta| near 10^5
    # (about 100 s each there) the same series in mpmath's incomplete gammas
    @pytest.mark.parametrize("tol", [1e-10, MIN_TOL])
    @pytest.mark.parametrize("delta", [-3, -4, -8, 5, 8, 12, -1003, -99991, 99989])
    def test_matches_mpmath(self, delta, tol):
        want = dirichlet_L2_oracle(delta) if abs(delta) < 10**4 else dirichlet_L2_theta_oracle(delta)
        assert abs(dirichlet_L2(delta, tol) - want) <= tol

    def test_memory_flat_in_tol(self):
        # summing the Dirichlet series itself takes ~sqrt(1/tol) terms, about
        # 3.9e8 here (2.9 GiB per float64 array); the functional-equation series
        # takes about sqrt(|delta| ln(1/tol) / pi) scalar terms and stays under a
        # 1 GiB address-space cap
        code = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from quatsurf.volumes import dirichlet_L2\n"
            "fine, coarse = dirichlet_L2(-1000003, tol=1e-14), dirichlet_L2(-1000003, tol=1e-10)\n"
            "print(abs(fine - coarse))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) <= 1e-10

    # every 2-part class with |delta| just past 128: odd (-131, 129, 133), -4m (-132),
    # +4m (140), +8m (136, 152), -8m (-136, -152).  The series takes chi from
    # arith.kronecker, the period sum from one period of the oracle's character_table
    @pytest.mark.parametrize("delta", [-131, 129, 133, -132, 140, 136, 152, -136, -152])
    def test_every_two_part_class(self, delta):
        want = dirichlet_L2_oracle(delta)
        assert abs(dirichlet_L2(delta, 1e-10) - want) <= 1e-10
        assert abs(dirichlet_L2_period_oracle(delta) - want) <= 1e-12

    # an odd delta < 0 (7 * 71429), a -4m (m = 11 * 9091) and a +8m (m = 100003): the
    # period sum gives the series' value
    @pytest.mark.parametrize("delta", [-500003, -400004, 800024])
    def test_period_sum_gives_series_value(self, delta):
        want = dirichlet_L2(delta, 1e-13)
        got = dirichlet_L2_period_oracle(delta)
        assert abs(got - want) <= 1e-12, (got, want)

    # no table and no array: the terms are floats summed as they come (-1000003 is
    # prime, where the period sum built a 1 MB kronecker_table; at -100000007 one of 100 MB)
    @pytest.mark.parametrize("delta", [-1000003, -100000007])
    def test_allocates_no_table(self, delta):
        tracemalloc.start()
        try:
            dirichlet_L2(delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, peak

    # -1000003 is prime, -1000007 = -29 * 34483, -1000011 = -3 * 333337; the period
    # sum took one int8 kronecker_table of the largest prime factor plus one block.
    # The values at -1000003 and -1000011 are Hurwitz zeta period sums as in
    # dirichlet_L2_oracle (mpmath at 25 digits, about 15 minutes each), and
    # dirichlet_L2_period_oracle is the second oracle.  tol is 1e-13: at the default
    # 1e-10 the value is up to 5e-12 off, inside its tol but not within 1e-12
    @pytest.mark.parametrize("delta", [-1000003, -1000007, -1000011])
    def test_values_near_a_million_in_small_memory(self, delta):
        want = {-1000003: 0.6752204544954221, -1000007: 1.4188481402565414, -1000011: 0.8533807032261189}[delta]
        tracemalloc.start()
        try:
            got = dirichlet_L2(delta, 1e-13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - want) <= 1e-12
        assert abs(got - dirichlet_L2_period_oracle(delta)) <= 1e-12
        assert peak < max(arith.factorize(delta)) + 2**20, peak

    def test_cap_refused_before_any_work(self, monkeypatch):
        def factorize(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(arith, "factorize", factorize)
        tracemalloc.start()
        try:
            for delta in (-(MAX_ABS_DELTA + 3), MAX_ABS_DELTA + 1, -4 * (2**28 + 1), -(10**18 + 3)):
                with pytest.raises(ValueError, match=r"at most 2\^30"):
                    dirichlet_L2(delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, peak


class TestKleinianCovolume:
    def test_example_value(self):
        cov = kleinian_covolume(pair_algebra(-4, [5]))
        # 8 * zeta_k(2)-factor * 16 / (4 pi^2) = (16/3) * Catalan
        assert cov.value == pytest.approx(16 / 3 * CATALAN, abs=1e-6)
        assert cov.rational_factor == Fraction(8, 3)

    def test_multiplicativity_exact(self):
        base = kleinian_covolume(pair_algebra(-4, [5]))
        bigger = kleinian_covolume(pair_algebra(-4, [5, 13]))
        assert bigger.rational_factor == base.rational_factor * 144
        assert bigger.l_value == base.l_value

    def test_matrix_algebra_rejected(self):
        with pytest.raises(ValueError):
            kleinian_covolume(QuatAlgK(-4, frozenset()))

    def test_census_bound_uniform(self, family_n1):
        # covolume <= c_k * |disc_f| with the one c_k valid across the census
        from quatsurf.census import PrimePredicate, algebra_census

        census = algebra_census(PrimePredicate(-4, family_n1.extensions), 10**7)
        assert census.count >= 3
        ratios = [kleinian_covolume(a).value / a.disc_f_abs for a in census.algebras]
        c_k = max(ratios)
        assert all(r <= c_k for r in ratios)
        # and the fitted constant is below the structural ceiling |delta|^(3/2)*L/24
        assert c_k <= 8 * CATALAN / 24 + 1e-12


class TestFuchsianCoarea:
    def test_examples(self):
        a = fuchsian_coarea(QuatAlgQ(frozenset({2, 3})))
        assert a.pi_multiple == Fraction(2, 3)
        assert a.value == pytest.approx(2 * math.pi / 3, abs=1e-15)
        assert fuchsian_coarea(QuatAlgQ(frozenset({3, 7}))).value == pytest.approx(4 * math.pi, abs=1e-12)

    def test_set_semantics(self):
        assert fuchsian_coarea(QuatAlgQ(frozenset({2, 3}))) == fuchsian_coarea(QuatAlgQ(frozenset({3, 2})))

    def test_ratio_exact(self):
        a = fuchsian_coarea(QuatAlgQ(frozenset({2, 3}))).pi_multiple
        for q in (5, 7, 11, 13):
            b = fuchsian_coarea(QuatAlgQ(frozenset({2, q}))).pi_multiple
            assert a / b == Fraction(2, q - 1)

    def test_rejections(self):
        with pytest.raises(ValueError):
            fuchsian_coarea(QuatAlgQ(frozenset()))
        with pytest.raises(ValueError):
            fuchsian_coarea(QuatAlgQ(frozenset({2}), ram_infinite=True))


class TestCountScaling:
    def test_off_surface_example(self):
        got = count_scaling(1, 1e6, "off_surface")
        assert got == pytest.approx(1000.0 * math.log(1e6) ** (-7 / 8))

    def test_on_surface_example(self):
        assert count_scaling(3, math.e**2, "on_surface") == pytest.approx(math.e ** (4 / 3))

    def test_monotone_in_volume(self):
        for kind in ("off_surface", "on_surface"):
            vals = [count_scaling(2, v, kind) for v in (10, 100, 1000, 10**6)]
            assert vals == sorted(vals)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_scaling(0, 100, "off_surface")
        with pytest.raises(ValueError):
            count_scaling(1, 2.0, "off_surface")
        with pytest.raises(ValueError):
            count_scaling(1, 100, "sideways")
