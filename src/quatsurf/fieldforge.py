"""Construction of families of quadratic extensions with controlled ramification.

Given an imaginary quadratic field and n, pick the first n odd split primes
p_1 < ... < p_n, lift delta_k + p_i to a square root r_i mod p_i^2, and shift
x_i = r_i + p_i^2*t_i minimally so that x_i^2 is not congruent to delta_k mod
any other p_j.  Then beta_i = x_i + sqrt(delta_k) has norm divisible by p_i
exactly once, so the prime of k above p_i at which beta_i vanishes ramifies in
L_i = k(sqrt(beta_i)) and in no other field of the family.  The minimal t_i is
found by direct search; its smallness is reported, never asserted.
"""

from dataclasses import dataclass
from typing import NamedTuple

from . import arith
from .errors import SearchCapExceeded, VerificationError
from .quadfields import QuadraticField, split_primes_prefix
from .relquad import (
    CompositumCertificate,
    QuarticPoly,
    RelQuadExt,
    compositum_degree_check,
    disc_upper_bound,
    is_galois_over_Q,
    minimal_polynomial,
    poly_discriminant,
)


def hensel_sqrt(a: int, p: int) -> int:
    """Smallest nonnegative r with r^2 = a (mod p^2), for a a unit square mod odd p."""
    if p == 2 or not arith.is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if a % p == 0:
        raise ValueError(f"p divides a: hensel lift needs a unit ({a} mod {p})")
    if arith.kronecker(a % p, p) != 1:
        raise ValueError(f"{a} is not a residue mod {p}")
    r0 = arith.mod_sqrt(a % p, p)
    p2 = p * p
    inv = pow(2 * r0, -1, p2)
    r = (r0 - (r0 * r0 - a) * inv) % p2
    if r * r % p2 != a % p2:
        raise VerificationError(f"Hensel lift {r} does not square to {a} mod {p2}")
    return min(r, p2 - r)


class XiChoice(NamedTuple):
    x: int
    root: int  # the square root of delta_k + p_i mod p_i^2
    t: int


def find_xi(delta_k: int, split_primes: list[int], i: int, search_cap: int = 100_000) -> XiChoice:
    """Choose x_i for the i-th field (i is 1-based, matching p_1..p_n).

    x_i = r_i + p_i^2*t_i with r_i the smallest square root of delta_k + p_i
    mod p_i^2 and t_i >= 0 minimal such that x_i^2 is not congruent to delta_k
    mod p_j for every j != i.  The congruence mod p_i^2 pins the valuation of
    x_i^2 - delta_k at p_i to exactly 1.
    """
    if not 1 <= i <= len(split_primes):
        raise ValueError(f"index {i} out of range")
    p = split_primes[i - 1]
    r = hensel_sqrt(delta_k + p, p)
    p2 = p * p
    others = [q for j, q in enumerate(split_primes, start=1) if j != i]
    for t in range(search_cap + 1):
        x = r + p2 * t
        if all((x * x - delta_k) % q != 0 for q in others):
            return XiChoice(x, r, t)
    raise SearchCapExceeded(f"no admissible t in 0..{search_cap} for i={i}")


@dataclass(frozen=True)
class FieldRow:
    index: int
    prime: int
    root: int
    t: int
    x: int
    min_poly: QuarticPoly
    poly_disc: int
    disc_bound: int
    bound_over_n8: float


@dataclass(frozen=True)
class FieldConstruction:
    delta_k: int
    n: int
    split_primes: list[int]
    linnik_ratio: float
    extensions: list[RelQuadExt]
    rows: list[FieldRow]
    galois_flags: list[bool]
    compositum: CompositumCertificate
    max_disc_bound: int

    @property
    def certified(self) -> bool:
        return not any(self.galois_flags) and bool(self.compositum)


def construct_fields(delta_k: int, n: int, search_cap: int = 100_000) -> FieldConstruction:
    """Build n quadratic extensions of k and certify their joint properties.

    Certificates: (i) no member is Galois over Q, (ii) the family and its
    conjugates are jointly independent (witnessed compositum degree 2^(2n)),
    (iii) every discriminant bound is recorded together with its ratio to n^8.
    A certificate failure raises VerificationError: the construction makes
    (i) and (ii) automatic, so failure means an implementation bug.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = QuadraticField(delta_k)
    if not k.is_imaginary:
        raise ValueError("base field must be imaginary quadratic")
    primes, linnik_ratio = split_primes_prefix(k, n)

    rows: list[FieldRow] = []
    exts: list[RelQuadExt] = []
    for i, p in enumerate(primes, start=1):
        choice = find_xi(delta_k, primes, i, search_cap)
        ext = RelQuadExt(delta_k, choice.x)
        if arith.valuation(ext.norm_beta, p) != 1:
            raise VerificationError(f"norm of beta_{i} not exactly divisible by {p}")
        bound = disc_upper_bound(ext)
        rows.append(
            FieldRow(
                index=i,
                prime=p,
                root=choice.root,
                t=choice.t,
                x=choice.x,
                min_poly=minimal_polynomial(ext),
                poly_disc=poly_discriminant(ext),
                disc_bound=bound,
                bound_over_n8=bound / n**8,
            )
        )
        exts.append(ext)

    galois_flags = [is_galois_over_Q(e) for e in exts]
    if any(galois_flags):
        raise VerificationError("verification failed: a constructed field is Galois over Q")
    certificate = compositum_degree_check(exts)
    if not certificate:
        # the prime p_i itself always qualifies as a witness, so this is a bug
        raise VerificationError("verification failed: no compositum witness for some field")

    return FieldConstruction(
        delta_k=delta_k,
        n=n,
        split_primes=primes,
        linnik_ratio=linnik_ratio,
        extensions=exts,
        rows=rows,
        galois_flags=galois_flags,
        compositum=certificate,
        max_disc_bound=max(r.disc_bound for r in rows),
    )
