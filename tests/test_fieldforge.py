import subprocess
import sys

import pytest

import dataclasses

from quatsurf import arith, cli, fieldforge, relquad
from quatsurf.errors import SearchCapExceeded, VerificationError
from quatsurf.fieldforge import construct_fields, find_xi, hensel_sqrt


class TestHenselSqrt:
    def test_examples(self):
        assert hensel_sqrt(1, 5) == 1
        assert hensel_sqrt(4, 7) == 2
        assert hensel_sqrt(2, 7) == 10

    def test_minimality_by_exhaustion(self):
        for a, p in ((2, 7), (3, 11), (5, 19), (10, 13)):
            r = hensel_sqrt(a, p)
            roots = [t for t in range(p * p) if (t * t - a) % (p * p) == 0]
            assert r == min(roots)

    def test_errors(self):
        with pytest.raises(ValueError, match="not a residue"):
            hensel_sqrt(3, 5)
        with pytest.raises(ValueError, match="divides"):
            hensel_sqrt(14, 7)
        with pytest.raises(ValueError):
            hensel_sqrt(1, 2)


# each snippet breaks one input of a verification check; the check must still
# raise VerificationError when python -O strips assert statements
BROKEN_CHECKS = {
    "hensel_sqrt": "quatsurf.arith.mod_sqrt = lambda a, p: 1\nquatsurf.fieldforge.hensel_sqrt(4, 5)",
    "select_q_primes": "quatsurf.primeforge._legendre_row_ok = lambda *a: True\nquatsurf.primeforge.select_q_primes(1)",
}


@pytest.mark.parametrize("name", sorted(BROKEN_CHECKS))
def test_verification_survives_optimize(name):
    code = "\n".join(
        [
            "import sys, quatsurf.arith, quatsurf.fieldforge, quatsurf.primeforge",
            "from quatsurf.errors import VerificationError",
            "try:",
            *("    " + line for line in BROKEN_CHECKS[name].splitlines()),
            "except VerificationError:",
            "    print('VerificationError', sys.flags.optimize)",
        ]
    )
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["VerificationError", "1"]


def test_norm_divisibility_certificate_fires(monkeypatch, capsys):
    # x_1 + 1 = 2 for delta = -4, p = 5: the norm 2^2 + 4 = 8 is prime to 5
    monkeypatch.setattr(fieldforge, "find_xi", lambda *args: (choice := find_xi(*args))._replace(x=choice.x + 1))
    with pytest.raises(VerificationError, match="not exactly divisible by 5"):
        construct_fields(-4, 1)
    assert cli.main(["construct-fields", "--delta", "-4", "--n", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "norm of beta_1 not exactly divisible" in err


def test_hensel_certificate_fires(monkeypatch, capsys):
    # a square root mod p that is off: 1 for delta + p_2 = -4 + 13 = 9 mod 13
    monkeypatch.setattr(arith, "mod_sqrt", lambda a, p: 1)
    with pytest.raises(VerificationError, match="does not square to 9 mod 169"):
        construct_fields(-4, 2)
    assert cli.main(["construct-fields", "--delta", "-4", "--n", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Hensel lift" in err


def test_galois_certificate_fires(monkeypatch, capsys):
    # a Galois test fed the shift x = 0, whose norm 0^2 + 4 = 2^2 is a rational square
    galois = fieldforge.is_galois_over_Q
    monkeypatch.setattr(fieldforge, "is_galois_over_Q", lambda ext: galois(dataclasses.replace(ext, x=0)))
    with pytest.raises(VerificationError, match="Galois over Q"):
        construct_fields(-4, 1)
    assert cli.main(["construct-fields", "--delta", "-4", "--n", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "a constructed field is Galois over Q" in err


def test_compositum_witness_certificate_fires(monkeypatch, capsys):
    # a residue map that forgets conjugation: at every candidate q | x_i^2 - delta the
    # conjugate field ramifies too, so no prime witnesses L_i alone
    monkeypatch.setattr(relquad, "beta_residue", lambda ext, prime: (ext.x + prime.root) % prime.p)
    with pytest.raises(VerificationError, match="no compositum witness"):
        construct_fields(-4, 2)
    assert cli.main(["construct-fields", "--delta", "-4", "--n", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "no compositum witness for some field" in err


class TestFindXi:
    def test_examples(self):
        assert find_xi(-4, [5, 13], 1).x == 1
        assert find_xi(-4, [5, 13], 2).x == 3
        assert find_xi(-4, [5], 1).x == 1

    def test_valuation_pinned_to_one(self):
        for delta, primes in ((-4, [5, 13, 17]), (-3, [7, 13, 19]), (-8, [3, 11, 17])):
            for i in range(1, len(primes) + 1):
                x = find_xi(delta, primes, i).x
                assert arith.valuation(x * x - delta, primes[i - 1]) == 1
                for j, q in enumerate(primes, start=1):
                    if j != i:
                        assert (x * x - delta) % q != 0

    def test_cap_exceeded(self):
        with pytest.raises(SearchCapExceeded):
            find_xi(-4, [5, 13], 1, search_cap=-1)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            find_xi(-4, [5], 2)


class TestConstructFields:
    def test_delta_minus_four_n_two(self):
        fam = construct_fields(-4, 2)
        assert [r.x for r in fam.rows] == [1, 3]
        assert [r.disc_bound for r in fam.rows] == [20480, 53248]
        assert fam.certified
        assert fam.split_primes == [5, 13]

    def test_n_one_prefix(self):
        fam = construct_fields(-4, 1)
        assert [r.x for r in fam.rows] == [1]

    def test_delta_minus_three(self):
        fam = construct_fields(-3, 1)
        assert fam.split_primes == [7]
        assert fam.rows[0].x == 2  # hensel_sqrt(4, 7) = 2, no side conditions

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            construct_fields(-4, 0)
        with pytest.raises(ValueError):
            construct_fields(5, 1)

    def test_certificates_over_small_range(self):
        for delta in (-3, -4, -7, -8, -11):
            for n in (1, 2, 3, 4):
                fam = construct_fields(delta, n)
                assert fam.certified, (delta, n)
                assert not any(fam.galois_flags)
                for row in fam.rows:
                    assert arith.valuation(row.x**2 - delta, row.prime) == 1

    def test_growth_out_of_sample(self):
        # fit the n^9 envelope on n <= 4, check it holds for n = 5..8
        for delta in (-3, -4, -7, -8, -11):
            bounds = {n: construct_fields(delta, n).max_disc_bound for n in range(1, 9)}
            envelope = max(bounds[n] / n**9 for n in (1, 2, 3, 4))
            for n in (5, 6, 7, 8):
                assert bounds[n] <= envelope * n**9, (delta, n)
