"""Covolume and coarea formulas, and the Dirichlet L-value they need.

The Dedekind zeta of an imaginary quadratic field factors as
zeta(s) * L(s, chi_delta), and at s = 2 the zeta(2) = pi^2/6 cancels the
4*pi^2 of the covolume formula, so every covolume here is an exact rational
times sqrt|delta| times one L-value.  That L-value is a sum over one period of
the character of trigamma values, each a few shifted terms plus an
asymptotic series whose remainder bound proves the requested tolerance.  The
period, or for imaginary delta its first half, is walked block by block
(quadfields.character_blocks): time is O(|delta| * (K + J)) and memory one
int8 table of the largest prime factor of delta plus one block, for |delta|
up to MAX_ABS_DELTA.
Coareas of the rational (Fuchsian) groups are exact rational multiples of pi.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadfields import character_blocks, is_fundamental_discriminant
from .quatalg import QuatAlgK, QuatAlgQ


# B_2, B_4, ..., B_26: the trigamma series takes B_2 .. B_2J, and B_(2J+2) bounds its remainder
_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330,
    854513 / 138, -236364091 / 2730, 8553103 / 6,
)

MIN_TOL = 1e-15
"""Smallest tol dirichlet_L2 accepts: float64 cannot resolve an L-value near 1 more finely."""

MAX_ABS_DELTA = 1 << 30
"""Largest |delta| dirichlet_L2 accepts: the int8 table of a prime factor this large takes 1 GiB."""


def _tail_plan(q: int, tol: float) -> tuple[int, int]:
    """(K, J): the fewest shifted terms K, then the fewest series terms J, whose
    remainder bound |B_(2J+2)| / (q * K^(2J+3)) is at most tol."""
    K = 1
    while True:
        for J, b in enumerate(_BERNOULLI):
            if abs(b) / (q * K ** (2 * J + 3)) <= tol:
                return K, J
        K += 1


def _trigamma_series(z: np.ndarray, J: int) -> np.ndarray:
    """psi_1(z) ~ 1/z + 1/(2z^2) + sum_{j<=J} B_2j / z^(2j+1), for real z > 0, where
    the series is enveloping: the error is at most |B_(2J+2)| / z^(2J+3)."""
    w = np.reciprocal(np.square(z))
    s = np.zeros_like(z)
    for b in reversed(_BERNOULLI[:J]):  # Horner in w = z^-2
        s += b
        s *= w
    s += 1.0 + 0.5 / z
    s /= z
    return s


def dirichlet_L2(delta: int, tol: float = 1e-10) -> float:
    """L(2, chi_delta) by the period sum, with a proven truncation bound <= tol.

    L(2, chi) = q^-2 * sum_{0<a<q} chi(a) * psi_1(a/q) with q = |delta|.  Each
    psi_1(a/q) is K shifted terms q^2 * sum_{k<K} (a + k*q)^-2 plus the
    asymptotic series of psi_1(z) through B_2J (_trigamma_series) at
    z = a/q + K >= K (DLMF 5.15.8, Abramowitz-Stegun 6.4.12).  For real z > 0
    that series is enveloping: the error is at most the first omitted term,
    so over the < q residues the truncation error is at most
    |B_(2J+2)| / (q * K^(2J+3)); K and J are the smallest that bring it to tol.
    For delta < 0, chi is odd, chi(q - a) = -chi(a), and the reflection
    psi_1(z) + psi_1(1 - z) = pi^2/sin^2(pi*z) (DLMF 5.15.6) folds the sum onto
    a < q/2: L(2, chi) = q^-2 * sum_{a<q/2} chi(a) * (2*psi_1(a/q) - pi^2/sin^2(pi*a/q)).
    The bound is unchanged: half as many psi_1 terms, each counted twice.
    The residues are summed one block of quadfields.CHI_BLOCK at a time, so
    time is O(q * (K + J)) and memory one int8 kronecker_table of the largest
    prime factor of delta plus one block, whatever tol is; rounding adds a
    few ulps on top.  |delta| above MAX_ABS_DELTA = 2^30, where that table
    reaches 1 GiB, is refused with ValueError before anything is allocated
    or factored.  For delta = -4 this is Catalan's constant.
    """
    if not abs(delta) <= MAX_ABS_DELTA:
        raise ValueError(f"|delta| must be at most 2^30, got {delta}")
    if not is_fundamental_discriminant(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    if not tol >= MIN_TOL:
        raise ValueError(f"tol must be at least {MIN_TOL}")
    q = abs(delta)
    K, J = _tail_plan(q, tol)
    odd = delta < 0
    total = 0.0
    for a, chi in character_blocks(delta, (q + 1) // 2 if odd else q):
        z = a / q
        z += K
        s = _trigamma_series(z, J)
        s /= q * q
        w = z  # reused as scratch for the shifted terms
        for k in range(K):
            np.square(a + k * q, out=w, dtype=np.float64)
            s += np.reciprocal(w, out=w)
        if odd:  # 2*psi_1(a/q) - pi^2/sin^2(pi*a/q), over q^2
            s *= 2
            np.sin(np.multiply(a, np.pi / q, out=w), out=w)
            w *= q / np.pi
            s -= np.reciprocal(np.square(w, out=w), out=w)
        total += float(np.sum(s * chi))
    return total


@dataclass(frozen=True)
class KleinianCovolume:
    """Covolume |delta|^(3/2) * L(2, chi) * prod(norm(p) - 1) / 24, kept structured.

    rational_factor carries |delta| * prod(norm(p) - 1) / 24 exactly, so that
    adding ramified pairs scales it by an exact rational.
    """

    rational_factor: Fraction
    abs_delta: int
    l_value: float

    @property
    def value(self) -> float:
        return float(self.rational_factor) * math.sqrt(self.abs_delta) * self.l_value


def kleinian_covolume(b: QuatAlgK, tol: float = 1e-10) -> KleinianCovolume:
    """Covolume of the norm-one group of a maximal order in a division algebra.

    zeta_k(2) = zeta(2) * L(2, chi_delta) with zeta(2) = pi^2/6 in closed
    form, so the pi's cancel against the 4*pi^2 and only the L-value is
    numerical.  Matrix algebras are rejected: their quotients have infinite
    volume and are out of scope.
    """
    if not b.is_division:
        raise ValueError("matrix algebra: no finite covolume")
    prod = 1
    for pr in b.ram_finite:
        prod *= pr.norm - 1
    return KleinianCovolume(
        rational_factor=Fraction(abs(b.delta_k) * prod, 24),
        abs_delta=abs(b.delta_k),
        l_value=dirichlet_L2(b.delta_k, tol),
    )


@dataclass(frozen=True)
class FuchsianCoarea:
    """Coarea (pi/3) * prod(p - 1) as an exact rational multiple of pi."""

    pi_multiple: Fraction

    @property
    def value(self) -> float:
        return float(self.pi_multiple) * math.pi


def fuchsian_coarea(b: QuatAlgQ) -> FuchsianCoarea:
    """Coarea of the norm-one Fuchsian group of an indefinite rational division algebra.

    Classical evaluation of the maximal-order norm-one group gives equality
    (pi/3) * prod_{p | disc}(p - 1); height-bound arguments usually quote it
    only as an upper bound.
    """
    if b.is_definite:
        raise ValueError("definite algebra: no Fuchsian group")
    if not b.ram_finite:
        raise ValueError("matrix algebra: the modular group has finite coarea but is out of scope")
    prod = 1
    for p in b.ram_finite:
        prod *= p - 1
    return FuchsianCoarea(Fraction(prod, 3))


def count_scaling(n: int, volume: float, kind: str) -> float:
    """Volume scaling of the two orbifold-census growth rates (constants suppressed).

    kind "off_surface": V^(1/2) * (log V)^(-(1 - 2^-(2n+1))), the growth of
    the census of classes carrying n short geodesics avoiding all surfaces.
    kind "on_surface": V^(2/3), the growth for n short geodesics on pairwise
    distinct surfaces; its n-dependent prefactor is existential and omitted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not volume > math.e:
        raise ValueError("volume must exceed e")
    if kind == "off_surface":
        return math.sqrt(volume) * math.log(volume) ** -(1 - 0.5 ** (2 * n + 1))
    if kind == "on_surface":
        return volume ** (2 / 3)
    raise ValueError(f"unknown kind {kind!r}")
