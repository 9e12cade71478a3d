"""Covolume and coarea formulas, and the Dirichlet L-value they need.

The Dedekind zeta of an imaginary quadratic field factors as
zeta(s) * L(s, chi_delta), and at s = 2 the zeta(2) = pi^2/6 cancels the
4*pi^2 of the covolume formula, so every covolume here is an exact rational
times sqrt|delta| times one L-value, summed in scalar math from the
functional equation.  Coareas of the rational (Fuchsian) groups are exact
rational multiples of pi.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .quadfields import is_fundamental_discriminant
from .quatalg import QuatAlgK, QuatAlgQ


MIN_TOL = 1e-15
"""Smallest tol dirichlet_L2 accepts: float64 cannot resolve an L-value near 1 more finely."""

MAX_ABS_DELTA = 1 << 30
"""Largest |delta| dirichlet_L2 accepts, for run time: there it sums 6.3 * 10^4 terms in about 0.6 s."""


def _e1(x: float, eps: float = 0.0) -> float:
    """E_1(x) for x > 0, within eps or to float64 resolution, whichever is
    coarser.  For x <= 1 the series -gamma - ln x + sum_k (-1)^(k+1) x^k / (k * k!)
    (DLMF 6.6.2) alternates with decreasing terms, so its error is below the
    first omitted term, here below 10^-17.  Above 1 the continued fraction
    e^-x / (x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...))))) (DLMF 6.9.1) has positive
    elements, so each pair of successive convergents brackets the value; it
    returns the midpoint of the first pair that is within 2 eps or an ulp."""
    if x <= 1:
        s, t = 0.0, 1.0
        for k in itertools.count(1):
            t *= -x / k  # (-x)^k / k!
            if abs(t) <= 1e-17 * k:
                return s - math.log(x) - 0.5772156649015329
            s -= t / k
    ex = math.exp(-x)
    p0, p1, r0, r1 = 0.0, 1.0, 1.0, x  # numerators p and denominators r of convergents 2k and 2k + 1
    for k in itertools.count(1):
        p0 = p1 + k * p0
        r0 = r1 + k * r0
        p1 = x * p0 + k * p1
        r1 = x * r0 + k * r1
        lo, hi = p0 / r0, p1 / r1
        if (hi - lo) * ex <= 2 * eps or hi - lo <= 2**-53 * lo:
            return ex * (lo + hi) / 2


def _gamma_3_2(x: float) -> float:
    """Gamma(3/2, x) = sqrt(x) e^-x + (sqrt(pi)/2) erfc(sqrt(x)) (DLMF 8.4.6, 8.8.2)."""
    return math.sqrt(x) * math.exp(-x) + 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(x))


def _gamma_minus_1_2(x: float) -> float:
    """Gamma(-1/2, x) = 2 (e^-x / sqrt(x) - sqrt(pi) erfc(sqrt(x))) (DLMF 8.4.6, 8.8.2)."""
    return 2 * (math.exp(-x) / math.sqrt(x) - math.sqrt(math.pi) * math.erfc(math.sqrt(x)))


def _tail_bound(q: int, odd: bool, n: int) -> float:
    """A bound on the sum over m > n of the terms of dirichlet_L2's series
    without chi(m), prefactor included, for x_n = pi n^2 / q > 1/2.

    Gamma(a, x) = x^a e^-x int_0^oo (1 + u)^(a-1) e^(-x u) du is at most
    x^(a-1) e^-x for a <= 1, and x^(a-1) e^-x * x / (x - a + 1) for a > 1 as
    (1 + u)^(a-1) <= e^((a-1) u); and E_1(x) < e^-x / x.  So an odd term is at
    most (4/sqrt(pi)) (pi/q)^(3/2) m e^-x_m / (x_m - 1/2), an even one at most
    (2 pi/q) e^-x_m / x_m.  Past x = 1/2, m e^-x_m and e^-x_m decrease, so
    their sums over m > n are at most the integrals from n, (q / 2 pi) e^-x_n
    and (q / (2 pi n)) e^-x_n.
    """
    x = math.pi * n * n / q
    return 2 * math.exp(-x) / (math.sqrt(q) * (x - 0.5)) if odd else math.exp(-x) / (n * x)


def dirichlet_L2(delta: int, tol: float = 1e-10) -> float:
    """L(2, chi_delta) by the functional equation, within a proven tol.

    With q = |delta|, x_n = pi n^2 / q and chi(n) = arith.kronecker(delta, n),
    splitting the theta integral of the completed L-function at t = 1 (root
    number 1 for a real primitive character: Davenport, Multiplicative Number
    Theory, ch. 9; Cohen, Number Theory II, ch. 10) gives
      delta < 0: (2/sqrt(pi)) (pi/q)^(3/2) sum chi(n) n (x_n^(-3/2) Gamma(3/2, x_n) + E_1(x_n)),
      delta > 0: (pi/q) sum chi(n) (x_n^-1 e^-x_n + x_n^(1/2) Gamma(-1/2, x_n)).
    The sum stops at the first N with x_N > 1/2 whose _tail_bound is at most
    tol/2, about sqrt(q ln(1/tol) / pi) terms, and each E_1(x_n) is taken
    close enough (_e1) to add at most tol/(2N).  What stays unproven is the
    rounding of libm's exp and erfc, a few ulps.  The terms are floats summed
    by math.fsum as they come: O(sqrt(q) * log(1/tol)) time, O(1) memory.
    At delta = -10^8 a fresh process on a 2-vCPU x86-64 VM takes 0.36 s and
    28.8 MB of peak RSS, no more than its imports (an O(q) period sum of
    trigamma values takes 4.4 s and 125 MB there).  |delta| above MAX_ABS_DELTA =
    2^30 is refused with ValueError before any work, since run time grows as
    sqrt|delta|.  For delta = -4 this is Catalan's constant.
    """
    if not abs(delta) <= MAX_ABS_DELTA:
        raise ValueError(f"|delta| must be at most 2^30, got {delta}")
    if not is_fundamental_discriminant(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    if not tol >= MIN_TOL:
        raise ValueError(f"tol must be at least {MIN_TOL}")
    q = abs(delta)
    odd = delta < 0
    scale = 2 / math.sqrt(math.pi) * (math.pi / q) ** 1.5 if odd else math.pi / q
    N = next(n for n in itertools.count(1) if math.pi * n * n > q / 2 and _tail_bound(q, odd, n) <= tol / 2)
    eps = tol / (2 * N * scale)  # E_1(x_n) to within eps / n: N terms of scale * n * eps / n add tol / 2

    def term(n: int) -> float:
        x = math.pi * n * n / q
        if odd:
            return n * (_gamma_3_2(x) / x**1.5 + _e1(x, eps / n))
        return math.exp(-x) / x + math.sqrt(x) * _gamma_minus_1_2(x)

    return scale * math.fsum(chi * term(n) for n in range(1, N + 1) if (chi := arith.kronecker(delta, n)))


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


def kleinian_covolume(b: QuatAlgK) -> KleinianCovolume:
    """Covolume of the norm-one group of a maximal order in a division algebra.

    zeta_k(2) = zeta(2) * L(2, chi_delta) with zeta(2) = pi^2/6 in closed
    form, so the pi's cancel against the 4*pi^2 and only the L-value is
    numerical, taken at dirichlet_L2's default tol of 1e-10.  Matrix algebras
    are rejected: their quotients have infinite volume and are out of scope.
    """
    if not b.is_division:
        raise ValueError("matrix algebra: no finite covolume")
    prod = 1
    for pr in b.ram_finite:
        prod *= pr.norm - 1
    return KleinianCovolume(
        rational_factor=Fraction(abs(b.delta_k) * prod, 24),
        abs_delta=abs(b.delta_k),
        l_value=dirichlet_L2(b.delta_k),
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
