import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quatsurf import arith, quadfields, volumes
from quatsurf.quadfields import QuadraticField, fundamental_discriminants, primes_above
from quatsurf.quatalg import QuatAlgK, QuatAlgQ
from quatsurf.volumes import MAX_ABS_DELTA, MIN_TOL, count_scaling, dirichlet_L2, fuchsian_coarea, kleinian_covolume

from oracles import catalan_oracle, dirichlet_L2_oracle

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

    def test_trigamma_series_enveloping(self):
        # the remainder bound dirichlet_L2 rests on: error at most the first omitted term
        import mpmath

        zs = np.array([1.0, 1.5, 2.0, 3.25, 5.0, 8.0, 13.0])
        for J in range(len(volumes._BERNOULLI)):
            got = volumes._trigamma_series(zs, J)
            for z, value in zip(zs.tolist(), got.tolist()):
                bound = abs(volumes._BERNOULLI[J]) / z ** (2 * J + 3)
                assert abs(value - float(mpmath.psi(1, z))) <= bound + 4e-16 * value, (z, J)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_matches_hurwitz_oracle(self, tol):
        for delta in fundamental_discriminants(200):
            assert abs(dirichlet_L2(delta, tol) - dirichlet_L2_oracle(delta)) <= tol, delta

    def test_memory_flat_in_tol(self):
        # summing the Dirichlet series itself takes ~sqrt(1/tol) terms, about
        # 3.9e8 here (2.9 GiB per float64 array); the period sum, one int8 table
        # of the largest prime factor plus one block, stays under a 1 GiB
        # address-space cap
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


    # every 2-part class with |delta| just past an edge of 64-residue blocks (129 fills
    # two blocks exactly): odd (-131, 129, 133), -4m (-132), +4m (140), +8m (136, 152), -8m (-136, -152)
    @pytest.mark.parametrize("delta", [-131, 129, 133, -132, 140, 136, 152, -136, -152])
    def test_blocks_crossed(self, monkeypatch, delta):
        monkeypatch.setattr(quadfields, "CHI_BLOCK", 64)
        assert abs(dirichlet_L2(delta, 1e-10) - dirichlet_L2_oracle(delta)) <= 1e-10

    # an odd delta < 0 (7 * 71429), a -4m (m = 11 * 9091) and a +8m (m = 100003)
    @pytest.mark.parametrize("delta", [-500003, -400004, 800024])
    def test_block_size_leaves_value(self, monkeypatch, delta):
        sums = []
        for block in (64, 1 << 13, 1 << 16):
            monkeypatch.setattr(quadfields, "CHI_BLOCK", block)
            sums.append(dirichlet_L2(delta))
        assert max(sums) - min(sums) <= 1e-13, sums

    # -1000003 is prime (a 1 MB kronecker_table), -1000007 = -29 * 34483 (34 KB),
    # -1000011 = -3 * 333337 (333 KB); whole-period arrays took ~39 bytes per unit
    # of |delta|, about 38 MiB here, and one 2^16-residue block over 3 MiB; the values
    # at -1000003 and -1000011 are Hurwitz zeta period sums as in dirichlet_L2_oracle
    # (mpmath at 25 digits, about 15 minutes each)
    @pytest.mark.parametrize("delta", [-1000003, -1000007, -1000011])
    def test_memory_is_one_table_and_one_block(self, delta):
        want = {-1000003: 0.6752204544954221, -1000007: 1.4188481402565414, -1000011: 0.8533807032261189}[delta]
        tracemalloc.start()
        try:
            got = dirichlet_L2(delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(got - want) <= 1e-12
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
