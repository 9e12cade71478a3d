"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS line with the measured
quantities (run pytest -s to see them).  Asymptotic criteria assert
ratio-stabilization bands, never absolute constants; exact criteria assert
equality of integers or rationals.
"""

import csv
import io
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from quatsurf import arith
from quatsurf.census import count_squarefree_over_P, prime_density_report
from quatsurf.errors import CriterionOutOfScope
from quatsurf.fieldforge import construct_fields
from quatsurf.geodesics import TraceClass, classify_trace, fundamental_unit, geodesic_length_real_quadratic, length_from_trace
from quatsurf.primeforge import nth_prime_in_ap, select_q_primes, verify_splitting_matrix
from quatsurf.quadfields import QuadraticField, SplitType, fundamental_discriminants, primes_above, ramification_probability_check, splitting, wood_stats
from quatsurf.quatalg import QuatAlgK, recover_ramification
from quatsurf.relquad import splitting_in_L
from quatsurf.volumes import dirichlet_L2, fuchsian_coarea, kleinian_covolume
from quatsurf.quatalg import QuatAlgQ

from oracles import catalan_oracle, prime_in_L_oracle, quadratic_split_oracle, squarefree_count_sieve_oracle

IMAGINARY_DELTAS = (-3, -4, -7, -8, -11)
ALL_DELTAS = IMAGINARY_DELTAS + (5, 8, 12, 13)


def report(n, message):
    print(f"[acceptance] criterion {n:02d} PASS: {message}")


def test_criterion_01_splitting_oracle_equality():
    quadratic_checked = quartic_checked = 0
    for delta in ALL_DELTAS:
        k = QuadraticField(delta)
        for p in (int(q) for q in arith.primes_up_to(10**4)):
            assert splitting(k, p) is quadratic_split_oracle(delta, p), (delta, p)
            quadratic_checked += 1
    for delta in IMAGINARY_DELTAS:
        k = QuadraticField(delta)
        for base in construct_fields(delta, 2).extensions:
            for ext in (base, base.conjugate_ext):
                for p in (int(q) for q in arith.primes_up_to(500)):
                    if p == 2 or delta % p == 0 or splitting(k, p) is not SplitType.SPLIT:
                        continue
                    for pr in primes_above(k, p):
                        want = prime_in_L_oracle(ext, pr)
                        try:
                            got = splitting_in_L(ext, pr)
                        except CriterionOutOfScope:
                            got = None
                        assert want is got, (delta, ext, pr)
                        quartic_checked += 1
    report(1, f"zero mismatches over {quadratic_checked} quadratic and {quartic_checked} quartic evaluations")


def test_criterion_02_field_construction_certified():
    for delta in IMAGINARY_DELTAS:
        for n in range(1, 9):
            fam = construct_fields(delta, n)
            assert fam.certified, (delta, n)
            assert not any(fam.galois_flags)
            assert fam.compositum.independent is True
            assert len(fam.compositum.witnesses) == n
    fam = construct_fields(-4, 2)
    assert [r.x for r in fam.rows] == [1, 3]
    assert [r.disc_bound for r in fam.rows] == [20480, 53248]
    report(2, "certificates (i)-(iii) hold for all deltas, n <= 8; exact x = (1, 3), bounds (20480, 53248)")


def test_criterion_03_prime_density(predicate_n1_scanned):
    rep = prime_density_report(predicate_n1_scanned, 10**7)
    ratio = rep.final_ratio
    assert 0.094 <= ratio <= 0.156, ratio
    report(3, f"normalized prime count at 1e7 is {ratio:.4f}, inside [0.094, 0.156] around 1/8")


def test_criterion_04_squarefree_census_stabilization(predicate_n1_scanned):
    tau = 1 / 8
    norm = lambda x, n: n / (x * math.log(x) ** (tau - 1))  # noqa: E731
    n6 = count_squarefree_over_P(predicate_n1_scanned, 10**6)
    n7 = count_squarefree_over_P(predicate_n1_scanned, 10**7)
    drift = abs(norm(10**7, n7) - norm(10**6, n6)) / norm(10**6, n6)
    assert drift < 0.10, drift
    sieve6 = squarefree_count_sieve_oracle(predicate_n1_scanned, 10**6)
    assert sieve6 == n6
    report(4, f"N(1e6)={n6}, N(1e7)={n7}, normalized drift {drift:.3%} < 10%; sieve and enumeration agree at 1e6")


def test_criterion_05_wood_statistics():
    stats = wood_stats(7, [3], 10**6)
    predicted = (6 / math.pi**2) * 10**6 * 0.5 * (7 / 16) * (3 / 8)
    assert stats.predicted == pytest.approx(predicted)
    assert abs(stats.ratio - 1) < 0.02, stats
    checks = []
    for ell in (2, 3):
        c = ramification_probability_check(ell, 10**6)
        assert abs(c.ratio / c.target - 1) < 0.02, (ell, c)
        checks.append(f"P(ramified at {ell}) = {c.ratio:.5f} vs 1/{ell + 1}")
    report(5, f"count {stats.count} vs predicted {stats.predicted:.1f} (ratio {stats.ratio:.4f}); " + "; ".join(checks))


def test_criterion_06_prime_selection():
    for n in range(1, 7):
        sel = select_q_primes(n)
        assert len(set(sel.p_primes + sel.q_primes)) == 2 * n + 1
        matrix = verify_splitting_matrix(sel.p_primes, sel.q_primes)
        for i, row in enumerate(matrix):
            for j, s in enumerate(row):
                want = SplitType.INERT if (i == j or i == n) else SplitType.SPLIT
                assert s is want, (n, i, j)
                # independent re-verification by exhaustive square search mod q
                q, p = sel.q_primes[i], sel.p_primes[j]
                is_sq = any((t * t - p) % q == 0 for t in range(q))
                assert is_sq == (want is SplitType.SPLIT)
    report(6, "selection succeeds for n <= 6 with the exact diagonal-inert pattern, re-verified by enumeration")


def test_criterion_07_ramification_recovery():
    k = QuadraticField(-4)

    def algebra(rational_primes):
        ram = set()
        for p in rational_primes:
            ram.update(primes_above(k, p))
        return QuatAlgK(-4, frozenset(ram))

    r1 = recover_ramification(algebra([5]), 200, 100)
    assert r1.primes == [5]
    r2 = recover_ramification(algebra([5, 13]), 2000, 200)
    assert r2.primes == [5, 13]
    previous = None
    for d_bound in (60, 120, 240, 480):
        got = set(recover_ramification(algebra([13]), d_bound, 100).primes)
        assert {13} <= got
        if previous is not None:
            assert got <= previous
        previous = got
    report(7, f"recovered {{5}} from {r1.admissible_field_count} fields and {{5, 13}} from {r2.admissible_field_count}; containment monotone")


def test_criterion_08_volume_formulas():
    l_value = dirichlet_L2(-4, 1e-10)
    assert abs(l_value - 0.9159655941772190) < 1e-9
    assert abs(l_value - catalan_oracle()) < 1e-9

    k = QuadraticField(-4)
    pair5 = QuatAlgK(-4, frozenset(primes_above(k, 5)))
    pair5_13 = QuatAlgK(-4, frozenset(primes_above(k, 5)) | frozenset(primes_above(k, 13)))
    a, b = kleinian_covolume(pair5), kleinian_covolume(pair5_13)
    assert b.rational_factor == a.rational_factor * 144
    assert b.l_value == a.l_value

    coarea = fuchsian_coarea(QuatAlgQ(frozenset({2, 3})))
    assert coarea.pi_multiple == Fraction(2, 3)
    report(8, f"L(2, chi_-4) = {l_value:.12f} (Catalan to 1e-9); covolume multiplicativity exact; coarea({{2,3}}) = 2/3 * pi")


def test_criterion_09_geodesic_identities():
    rng = random.Random(1729)
    worst = 0.0
    for _ in range(10**4):
        if rng.random() < 0.5:
            t = complex(rng.uniform(2.05, 30) * rng.choice((1, -1)), 0)
        else:
            t = complex(rng.uniform(-6, 6), rng.uniform(0.05, 6) * rng.choice((1, -1)))
        assert classify_trace(t) in (TraceClass.HYPERBOLIC, TraceClass.LOXODROMIC_NONHYPERBOLIC)
        base = length_from_trace(t)
        squared = length_from_trace(t * t - 2)
        worst = max(worst, abs(squared.length - 2 * base.length) / max(2 * base.length, 1e-30))
    assert worst < 1e-9, worst

    count = 0
    for d in fundamental_discriminants(10**4, "real"):
        u = fundamental_unit(d)
        assert u.a * u.a - d * u.b * u.b == 4 * u.norm, d
        count += 1

    golden = geodesic_length_real_quadratic(5).length
    assert golden == pytest.approx(4 * math.log((1 + math.sqrt(5)) / 2), rel=1e-12)
    report(9, f"squaring identity worst relative error {worst:.2e} over 1e4 traces; {count} Pell invariants exact; length(5) to 12 digits")


def test_criterion_10_surfaces_demo_pipeline():
    cmd = [sys.executable, "-m", "quatsurf.cli", "surfaces-demo", "--n", "3", "--disc-bound", "1e4"]
    res = subprocess.run(cmd, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    rows = list(csv.DictReader(io.StringIO(res.stdout)))

    emb = {(int(r["i"]), int(r["j"])): r["value"] for r in rows if r["table"] == "embedding"}
    assert len(emb) == 9
    assert all(val == ("true" if i == j else "false") for (i, j), val in emb.items())

    sel = select_q_primes(3)
    coareas = {int(r["i"]): r["value"] for r in rows if r["table"] == "surface" and r["key"] == "coarea_pi_multiple"}
    for i in range(1, 4):
        expected = Fraction((sel.q_final - 1) * (sel.q_primes[i - 1] - 1), 3)
        assert coareas[i] == f"{expected.numerator}/{expected.denominator}", i

    fitted_c = 0.0
    lengths = {}
    for n in range(1, 7):
        s = select_q_primes(n)
        scale = (n * math.log(2 * n)) ** 2
        for p in s.p_primes:
            lengths[(n, p)] = geodesic_length_real_quadratic(p).length
            fitted_c = max(fitted_c, lengths[(n, p)] / scale)
    assert all(lengths[(n, p)] <= fitted_c * (n * math.log(2 * n)) ** 2 + 1e-12 for (n, p) in lengths)
    report(10, f"3x3 embedding matrix diagonal; coareas exact rational multiples of pi; lengths <= {fitted_c:.3f}*(n*log 2n)^2 across n <= 6")
