import math

import pytest

from quatsurf import cli, primeforge
from quatsurf.errors import SearchCapExceeded, VerificationError
from quatsurf.primeforge import nth_prime_in_ap, select_q_primes, verify_splitting_matrix
from quatsurf.quadfields import SplitType

from oracles import is_square_mod_oracle


class TestNthPrimeInAP:
    def test_examples(self):
        assert nth_prime_in_ap(1, 4, 3).prime == 17
        assert nth_prime_in_ap(1, 2, 1).prime == 3
        assert nth_prime_in_ap(3, 5, 2).prime == 13

    def test_ratio(self):
        p, ratio = nth_prime_in_ap(1, 4, 3)
        assert ratio == pytest.approx(17 / (3 * math.log(6)))

    def test_gcd_rejected(self):
        with pytest.raises(ValueError):
            nth_prime_in_ap(2, 4, 1)


class TestSelectQPrimes:
    def test_n_one(self):
        sel = select_q_primes(1)
        assert sel.p_primes == [5]
        assert sel.q_primes == [3, 7]

    def test_pattern_independent_legendre(self):
        # re-verify the selection with enumeration-based symbol evaluation
        for n in (1, 2, 3):
            sel = select_q_primes(n)
            for i, q in enumerate(sel.q_primes):
                for j, p in enumerate(sel.p_primes):
                    inert_wanted = i == j or i == n
                    # q inert in Q(sqrt p) iff p is a nonsquare mod q
                    assert is_square_mod_oracle(p, q) != inert_wanted, (n, i, j)

    def test_distinct_and_coprime(self):
        for n in range(1, 7):
            sel = select_q_primes(n)
            allp = sel.p_primes + sel.q_primes
            assert len(set(allp)) == 2 * n + 1
            assert all(q % 2 == 1 for q in sel.q_primes)
            assert sel.max_q == max(sel.q_primes)

    def test_ceiling(self, monkeypatch):
        monkeypatch.setattr(primeforge, "Q_CEILING", 3)
        with pytest.raises(SearchCapExceeded):
            select_q_primes(2)

    def test_max_q_growth_out_of_sample(self):
        # fit max_q <= A * n^(C*n) on n in 2..4, check it at n = 5, 6
        maxima = {n: select_q_primes(n).max_q for n in range(1, 7)}
        scale = maxima[1]
        fitted = max(math.log(maxima[n] / scale) / (n * math.log(n)) for n in (2, 3, 4))
        for n in (5, 6):
            assert maxima[n] <= scale * n ** (fitted * n), (n, maxima)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            select_q_primes(0)

    def test_collision_certificate_fires(self, monkeypatch, capsys):
        # a Legendre test that also accepts q equal to some p: q_2 = 5 = p_1 collides
        row_ok = primeforge._legendre_row_ok
        monkeypatch.setattr(primeforge, "_legendre_row_ok", lambda q, ps, inert: q in ps or row_ok(q, ps, inert))
        with pytest.raises(VerificationError, match="collide"):
            select_q_primes(1)
        assert cli.main(["surfaces-demo", "--n", "1", "--disc-bound", "1e4"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "selected primes collide" in err


class TestVerifySplittingMatrix:
    def test_examples(self):
        m = verify_splitting_matrix([5], [3, 7])
        assert m == [[SplitType.INERT], [SplitType.INERT]]
        assert verify_splitting_matrix([5], [5]) == [[SplitType.RAMIFIED]]

    def test_selection_pattern(self):
        for n in (1, 2, 3, 4, 5, 6):
            sel = select_q_primes(n)
            m = verify_splitting_matrix(sel.p_primes, sel.q_primes)
            for i, row in enumerate(m):
                for j, s in enumerate(row):
                    want = SplitType.INERT if (i == j or i == n) else SplitType.SPLIT
                    assert s is want, (n, i, j)
