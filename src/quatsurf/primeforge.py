"""Prime selection with prescribed splitting behavior.

Linnik-style searches in arithmetic progressions, and the inductive choice of
auxiliary primes q_1, ..., q_{n+1} whose Legendre symbols against the first n
primes p = 1 (mod 4) realize a prescribed inert/split pattern.  Since every
p_j = 1 (mod 4), quadratic reciprocity turns each splitting condition into a
residue condition on q mod p_j, so the admissible q form a union of residue
classes mod p_1*...*p_n and are tested in ascending order.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import arith
from .errors import SearchCapExceeded, VerificationError
from .quadfields import QuadraticField, SplitType, splitting


class PrimeInAP(NamedTuple):
    prime: int
    linnik_ratio: float  # prime / (n*log(2n))


def nth_prime_in_ap(a: int, q: int, n: int) -> PrimeInAP:
    """The n-th smallest prime congruent to a mod q, with its Linnik ratio."""
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) > 1: the progression contains at most one prime")
    found = 0
    m = a % q
    while True:
        if arith.is_prime(m):
            found += 1
            if found == n:
                return PrimeInAP(m, m / (n * math.log(2 * n)))
        m += q


@dataclass(frozen=True)
class QSelection:
    n: int
    p_primes: list[int]  # first n primes = 1 (mod 4)
    q_primes: list[int]  # q_1..q_n diagonal-inert, q_{n+1} fully inert
    max_q: int

    @property
    def q_final(self) -> int:
        return self.q_primes[-1]


def _legendre_row_ok(q: int, p_primes: list[int], inert_at: set[int]) -> bool:
    for j, p in enumerate(p_primes):
        want = -1 if j in inert_at else 1
        if arith.kronecker(q, p) != want:
            return False
    return True


Q_CEILING = 10_000_000
"""select_q_primes raises SearchCapExceeded when some q_i would lie above this."""


def select_q_primes(n: int) -> QSelection:
    """Pick q_1..q_{n+1} realizing the diagonal splitting pattern against p_1..p_n.

    q_i (i <= n) is the smallest odd prime, distinct from the earlier choices,
    with (q_i|p_i) = -1 and (q_i|p_j) = +1 for j != i; q_{n+1} has symbol -1
    against every p_j.  Because p_j = 1 (mod 4), these symbol conditions say
    exactly that q_i is inert in Q(sqrt(p_i)) and split in the other
    Q(sqrt(p_j)).  Candidates are scanned in ascending order, skipping
    collisions, which is how the classical counting argument picks them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p_primes = [nth_prime_in_ap(1, 4, i).prime for i in range(1, n + 1)]
    q_primes: list[int] = []
    for i in range(n + 1):
        inert_at = {i} if i < n else set(range(n))
        for q in arith.iter_primes(3):
            if q > Q_CEILING:
                raise SearchCapExceeded(f"no q_{i + 1} below {Q_CEILING}")
            if q in q_primes:
                continue
            if _legendre_row_ok(q, p_primes, inert_at):
                q_primes.append(q)
                break
    chosen = p_primes + q_primes
    if len(set(chosen)) != 2 * n + 1:
        raise VerificationError("selected primes collide")
    return QSelection(n=n, p_primes=p_primes, q_primes=q_primes, max_q=max(q_primes))


def verify_splitting_matrix(p_primes: list[int], q_primes: list[int]) -> list[list[SplitType]]:
    """Matrix of splitting types of q_i in Q(sqrt(p_j)), rows indexed by q.

    Computed through the quadratic-field splitting test on the fundamental
    discriminant p_j, i.e. through the symbol (p_j|q) rather than (q|p_j),
    so it re-derives the selection's reciprocity step independently.
    """
    fields = [QuadraticField(p) for p in p_primes]
    return [[splitting(k, q) for k in fields] for q in q_primes]
