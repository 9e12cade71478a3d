"""Relative quadratic extensions L = k(sqrt(x + sqrt(delta_k))) of an imaginary quadratic k.

The generator beta = x + sqrt(delta_k) (or its complex conjugate) is always of
this restricted shape, which keeps the splitting theory completely explicit:
a degree-one prime of k reduces beta to an element of a prime residue field,
and Hecke's classical criterion for quadratic extensions decides ramification
and splitting from that single residue.  Primes where the criterion would
need valuation bookkeeping beyond "odd valuation means ramified" (p = 2,
p | delta_k, inert primes, even positive valuation) are rejected rather than
handled; callers that need those primes must use a factorization oracle.
"""

from dataclasses import dataclass

from . import arith
from .errors import CriterionOutOfScope
from .quadfields import PrimeOfK, QuadraticField, SplitType, is_fundamental_discriminant, primes_above, splitting


@dataclass(frozen=True)
class RelQuadExt:
    """L = k(sqrt(beta)) with beta = x + sqrt(delta_k), or the conjugate x - sqrt(delta_k).

    Construction does not verify that beta is a nonsquare of k (equivalently
    that L/k really has degree 2); that certificate comes from a ramified
    prime witness, see relative_ramification.
    """

    delta_k: int
    x: int
    conjugate: bool = False

    def __post_init__(self):
        if self.delta_k >= 0 or not is_fundamental_discriminant(self.delta_k):
            raise ValueError(f"{self.delta_k} is not a negative fundamental discriminant")

    @property
    def norm_beta(self) -> int:
        """Norm of beta from k down to Q; positive since delta_k < 0."""
        return self.x * self.x - self.delta_k

    @property
    def conjugate_ext(self) -> "RelQuadExt":
        return RelQuadExt(self.delta_k, self.x, not self.conjugate)

    @property
    def base_field(self) -> QuadraticField:
        return QuadraticField(self.delta_k)


@dataclass(frozen=True)
class QuarticPoly:
    """Monic even quartic T^4 + c2*T^2 + c0, stored as descending coefficients."""

    coefficients: tuple[int, int, int, int, int]

    def __post_init__(self):
        c = self.coefficients
        if len(c) != 5 or c[0] != 1 or c[1] != 0 or c[3] != 0:
            raise ValueError("expected a monic even quartic")

    def __call__(self, t: int) -> int:
        acc = 0
        for c in self.coefficients:
            acc = acc * t + c
        return acc

    def __str__(self):
        c2, c0 = self.coefficients[2], self.coefficients[4]
        return f"T^4 {c2:+d}*T^2 {c0:+d}"


def minimal_polynomial(ext: RelQuadExt) -> QuarticPoly:
    """Minimal polynomial of sqrt(beta) over Q: T^4 - 2x*T^2 + (x^2 - delta_k).

    Identical for the extension and its conjugate.
    """
    return QuarticPoly((1, 0, -2 * ext.x, 0, ext.norm_beta))


def poly_discriminant(ext: RelQuadExt) -> int:
    """Discriminant of the quartic minimal polynomial: 256*(x^2 - delta_k)*delta_k^2.

    The field discriminant of L divides this value.
    """
    return 256 * ext.norm_beta * ext.delta_k**2


def disc_upper_bound(ext: RelQuadExt) -> int:
    """256*(x^2 + |delta_k|)*delta_k^2, an upper bound for |disc L| (equality here since delta_k < 0)."""
    return 256 * (ext.x * ext.x + abs(ext.delta_k)) * ext.delta_k**2


def beta_residue(ext: RelQuadExt, prime: PrimeOfK) -> int:
    """Image of beta in the residue field of a degree-one prime, via sqrt(delta_k) -> root."""
    if prime.kind is SplitType.INERT:
        raise CriterionOutOfScope("inert primes have degree-2 residue fields")
    s = prime.root
    return (ext.x - s) % prime.p if ext.conjugate else (ext.x + s) % prime.p


def splitting_in_L(ext: RelQuadExt, prime: PrimeOfK) -> SplitType:
    """How a degree-one prime of k behaves in L = k(sqrt(beta)).

    Hecke's criterion for an odd prime coprime to delta_k: reduce beta mod the
    prime to b; if b is nonzero, the prime splits when b is a square in the
    residue field and is inert otherwise.  If b = 0 the prime divides beta and
    ramifies exactly when the valuation of beta is odd; since at most one of
    beta, conjugate(beta) lies in the prime, that valuation equals the full
    p-valuation of the norm x^2 - delta_k.  Even positive valuation would need
    the unit part of beta and is out of scope here.
    """
    p = prime.p
    if prime.kind is not SplitType.SPLIT:
        raise CriterionOutOfScope(f"criterion out of scope: {prime.kind.value} prime over {p}")
    if p == 2:
        raise CriterionOutOfScope("criterion out of scope: p = 2")
    if ext.delta_k % p == 0:
        raise CriterionOutOfScope("criterion out of scope: p divides delta_k")
    b = beta_residue(ext, prime)
    if b == 0:
        v = arith.valuation(ext.norm_beta, p)
        if v % 2 == 1:
            return SplitType.RAMIFIED
        raise CriterionOutOfScope(f"criterion out of scope: even valuation {v} at {p}")
    return SplitType.SPLIT if arith.kronecker(b, p) == 1 else SplitType.INERT


def relative_ramification(ext: RelQuadExt, p: int) -> list[tuple[PrimeOfK, SplitType]]:
    """splitting_in_L at both primes of k above a rational prime p split in k."""
    if p == 2 or ext.delta_k % p == 0:
        raise CriterionOutOfScope("criterion out of scope: p even or dividing delta_k")
    k = ext.base_field
    if splitting(k, p) is not SplitType.SPLIT:
        raise ValueError(f"{p} does not split in the base field")
    return [(pr, splitting_in_L(ext, pr)) for pr in primes_above(k, p)]


def is_galois_over_Q(ext: RelQuadExt) -> bool:
    """True iff the quartic L/Q is Galois.

    This happens exactly when x^2 - delta_k is a rational square (biquadratic
    case) or delta_k*(x^2 - delta_k) is a rational square (cyclic case; never
    over an imaginary base since the product is negative).
    """
    n = ext.norm_beta
    return arith.is_square(n) or arith.is_square(ext.delta_k * n)


@dataclass(frozen=True)
class CompositumCertificate:
    """Outcome of the witness search for joint independence of a family of extensions.

    independent is True when every field got a witness prime (ramified there
    and nowhere else in the family), None when some field found no witness
    among its candidates.  The sufficient criterion can never certify
    failure, so False is never produced.
    """

    independent: bool | None
    witnesses: dict[int, PrimeOfK]

    def __bool__(self):
        return self.independent is True


def compositum_degree_check(exts: list[RelQuadExt]) -> CompositumCertificate:
    """Certify that L_1, ..., L_n and their conjugates are jointly independent.

    Sufficient criterion: for each i find a degree-one prime of k ramified in
    L_i but unramified in the conjugate and in every other member field and
    conjugate; then no field lies in the compositum of the others and the
    compositum has full degree 2^(2n) over k.  Candidate witnesses are the odd
    primes dividing x_i^2 - delta_k to odd order and no other x_j^2 - delta_k.
    """
    if not exts:
        raise ValueError("empty family")
    delta = exts[0].delta_k
    if any(e.delta_k != delta for e in exts):
        raise ValueError("extensions must share a base field")
    if any(e.conjugate for e in exts):
        raise ValueError("pass the unconjugated representatives")
    xs = [e.x for e in exts]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate extensions in the family")

    norms = [e.norm_beta for e in exts]
    witnesses: dict[int, PrimeOfK] = {}
    for i, ext in enumerate(exts):
        candidates = sorted(
            q
            for q, v in arith.factorize(norms[i]).items()
            if q % 2 == 1 and v % 2 == 1 and delta % q != 0 and all(norms[j] % q != 0 for j in range(len(exts)) if j != i)
        )
        for q in candidates:
            # q | x_i^2 - delta forces delta to be a square mod q, so q splits
            prime = PrimeOfK(q, SplitType.SPLIT, (-ext.x) % q)
            verdicts = []
            for j, other in enumerate(exts):
                for cand in (other, other.conjugate_ext):
                    verdicts.append((j, cand.conjugate, splitting_in_L(cand, prime)))
            ram = [(j, c) for j, c, s in verdicts if s is SplitType.RAMIFIED]
            if ram == [(i, False)]:
                witnesses[i] = prime
                break
        else:
            return CompositumCertificate(None, witnesses)
    return CompositumCertificate(True, witnesses)
