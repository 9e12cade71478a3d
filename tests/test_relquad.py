import pytest

from quatsurf import arith
from quatsurf.errors import CriterionOutOfScope
from quatsurf.fieldforge import construct_fields
from quatsurf.quadfields import PrimeOfK, QuadraticField, SplitType, primes_above, splitting
from quatsurf.relquad import (
    RelQuadExt,
    compositum_degree_check,
    disc_upper_bound,
    is_galois_over_Q,
    minimal_polynomial,
    poly_discriminant,
    relative_ramification,
    splitting_in_L,
)

from oracles import prime_in_L_oracle, quartic_root_count


class TestPolynomials:
    def test_minimal_polynomial_examples(self):
        assert minimal_polynomial(RelQuadExt(-4, 1)).coefficients == (1, 0, -2, 0, 5)
        assert minimal_polynomial(RelQuadExt(-4, 3)).coefficients == (1, 0, -6, 0, 13)
        assert minimal_polynomial(RelQuadExt(-3, 0)).coefficients == (1, 0, 0, 0, 3)

    def test_conjugation_invariance(self):
        for ext in (RelQuadExt(-4, 1), RelQuadExt(-7, 5), RelQuadExt(-11, 2)):
            conj = ext.conjugate_ext
            assert minimal_polynomial(ext) == minimal_polynomial(conj)
            assert poly_discriminant(ext) == poly_discriminant(conj)

    def test_discriminant_examples(self):
        assert poly_discriminant(RelQuadExt(-4, 1)) == 20480
        assert poly_discriminant(RelQuadExt(-4, 3)) == 53248
        assert poly_discriminant(RelQuadExt(-3, 0)) == 6912

    def test_disc_bound_examples(self):
        # over an imaginary base the bound is an equality
        for ext in (RelQuadExt(-4, 1), RelQuadExt(-4, 3), RelQuadExt(-3, 0)):
            assert disc_upper_bound(ext) == abs(poly_discriminant(ext))
        assert disc_upper_bound(RelQuadExt(-4, 1)) == 20480

    def test_base_field_validation(self):
        with pytest.raises(ValueError):
            RelQuadExt(5, 1)  # real base
        with pytest.raises(ValueError):
            RelQuadExt(-5, 1)  # not fundamental


class TestSplittingInL:
    def test_ramified_example(self):
        ext = RelQuadExt(-4, 1)
        pr = PrimeOfK(5, SplitType.SPLIT, 4)  # beta = 1 + sqrt(-4) = 0 at this prime
        assert splitting_in_L(ext, pr) is SplitType.RAMIFIED

    def test_split_and_inert_examples(self):
        ext = RelQuadExt(-4, 1)
        assert splitting_in_L(ext, PrimeOfK(13, SplitType.SPLIT, 3)) is SplitType.SPLIT  # beta = 4 = 2^2
        assert splitting_in_L(ext, PrimeOfK(13, SplitType.SPLIT, 10)) is SplitType.INERT  # beta = 11

    def test_out_of_scope_rejections(self):
        ext = RelQuadExt(-4, 1)
        with pytest.raises(CriterionOutOfScope):
            splitting_in_L(ext, PrimeOfK(3, SplitType.INERT))
        with pytest.raises(CriterionOutOfScope):
            splitting_in_L(ext, PrimeOfK(2, SplitType.RAMIFIED, 0))
        with pytest.raises(CriterionOutOfScope):
            splitting_in_L(RelQuadExt(-7, 3), PrimeOfK(7, SplitType.RAMIFIED, 0))

    def test_even_valuation_rejected(self):
        # norm(beta) = 36^2 + 4 = 1300 = 2^2 * 5^2 * 13: valuation 2 at the split prime 5
        ext = RelQuadExt(-4, 36)
        assert arith.valuation(ext.norm_beta, 5) == 2
        bad = PrimeOfK(5, SplitType.SPLIT, 4)  # 36 + 4 = 0 (mod 5)
        with pytest.raises(CriterionOutOfScope):
            splitting_in_L(ext, bad)


class TestRelativeRamification:
    def test_examples(self):
        ext = RelQuadExt(-4, 1)
        kinds5 = sorted(s.value for _, s in relative_ramification(ext, 5))
        assert kinds5 == ["inert", "ramified"]
        kinds41 = [s for _, s in relative_ramification(ext, 41)]
        assert kinds41 == [SplitType.INERT, SplitType.INERT]
        kinds13 = sorted(s.value for _, s in relative_ramification(ext, 13))
        assert kinds13 == ["inert", "split"]

    def test_requires_split_prime(self):
        with pytest.raises(ValueError):
            relative_ramification(RelQuadExt(-4, 1), 3)

    def test_conjugate_symmetry(self):
        # p splits in L at one prime iff it splits in L' at the conjugate prime
        ext = RelQuadExt(-4, 1)
        conj = ext.conjugate_ext
        k = QuadraticField(-4)
        for p in (int(q) for q in arith.primes_up_to(200)):
            if p == 2 or splitting(k, p) is not SplitType.SPLIT or ext.norm_beta % p == 0:
                continue
            for pr in primes_above(k, p):
                assert splitting_in_L(ext, pr) is splitting_in_L(conj, pr.conjugate)

    def test_residue_product_is_norm(self):
        ext = RelQuadExt(-7, 3)
        conj = ext.conjugate_ext
        k = QuadraticField(-7)
        from quatsurf.relquad import beta_residue

        for p in (11, 23, 29, 37, 53):
            if splitting(k, p) is not SplitType.SPLIT:
                continue
            for pr in primes_above(k, p):
                assert (beta_residue(ext, pr) * beta_residue(conj, pr)) % p == ext.norm_beta % p


class TestGaloisTest:
    def test_examples(self):
        assert not is_galois_over_Q(RelQuadExt(-4, 1))
        assert not is_galois_over_Q(RelQuadExt(-4, 3))
        assert is_galois_over_Q(RelQuadExt(-4, 0))  # norm(beta) = 4 is a square

    def test_biquadratic_family(self):
        # x^2 - delta a perfect square: (delta, x) = (-3, 1) gives 4
        assert is_galois_over_Q(RelQuadExt(-3, 1))
        assert not is_galois_over_Q(RelQuadExt(-3, 2))


class TestCompositumCheck:
    def test_pair_example(self):
        cert = compositum_degree_check([RelQuadExt(-4, 1), RelQuadExt(-4, 3)])
        assert cert.independent is True
        assert sorted(w.p for w in cert.witnesses.values()) == [5, 13]

    def test_single_field(self):
        cert = compositum_degree_check([RelQuadExt(-4, 1)])
        assert cert.independent is True
        assert cert.witnesses[0].p == 5

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            compositum_degree_check([RelQuadExt(-4, 1), RelQuadExt(-4, 1)])

    def test_conjugates_rejected(self):
        with pytest.raises(ValueError):
            compositum_degree_check([RelQuadExt(-4, 1, conjugate=True)])

    def test_inconclusive_under_tight_bound(self):
        # x^2 - delta = 4 has no odd prime factor to witness with
        cert = compositum_degree_check([RelQuadExt(-4, 0)])
        assert cert.independent is None
        assert not cert


class TestQuarticOracle:
    def test_splitting_matches_enumeration(self):
        checked = 0
        for delta in (-3, -4, -7, -8, -11):
            fam = construct_fields(delta, 2)
            k = QuadraticField(delta)
            for base in fam.extensions:
                for ext in (base, base.conjugate_ext):
                    for p in (int(q) for q in arith.primes_up_to(500)):
                        if p == 2 or delta % p == 0 or splitting(k, p) is not SplitType.SPLIT:
                            continue
                        expected_roots = 0
                        for pr in primes_above(k, p):
                            want = prime_in_L_oracle(ext, pr)
                            try:
                                got = splitting_in_L(ext, pr)
                            except CriterionOutOfScope:
                                got = None
                            assert want is got, (delta, ext, pr)
                            expected_roots += {SplitType.SPLIT: 2, SplitType.INERT: 0, SplitType.RAMIFIED: 1, None: 1}[want]
                            checked += 1
                        # quartic factorization consistency: distinct roots mod p
                        assert quartic_root_count(ext, p) == expected_roots, (delta, ext, p)
        assert checked > 1000
