"""Trace classification, translation lengths, fundamental units, and height bounds.

A loxodromic isometry of hyperbolic 3-space translates along its axis by
2*log|lambda| and rotates by 2*arg(lambda), where lambda is the eigenvalue of
the trace-t matrix with |lambda| > 1.  The isometry preserves a hyperbolic
plane through its axis exactly when its trace is real, which is the only case
with zero rotation; a loxodromic element none of whose powers goes real can
therefore never run inside a finite-area totally geodesic surface, and over
our quartic fields that realness obstruction is precisely the failure of the
field to be Galois over Q.

Fundamental units of real quadratic orders are computed by the classical
continued-fraction cycle of the quadratic irrational (s + sqrt(d))/2, which
stays in exact integer arithmetic and handles the enormous units that already
occur below d = 10^4.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from .errors import VerificationError
from .quadfields import is_fundamental_discriminant
from .relquad import RelQuadExt, is_galois_over_Q


class TraceClass(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    LOXODROMIC_NONHYPERBOLIC = "loxodromic-nonhyperbolic"


@dataclass(frozen=True)
class GeodesicLength:
    """Translation length and rotation angle of a loxodromic isometry."""

    length: float
    holonomy: float  # in (-pi, pi]; exactly 0.0 for hyperbolic elements

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("translation length must be positive")
        if not -math.pi < self.holonomy <= math.pi:
            raise ValueError("holonomy must lie in (-pi, pi]")


def classify_trace(t: complex) -> TraceClass:
    """Trace trichotomy for elements of PSL(2, C).

    Real traces in (-2, 2) are elliptic, +-2 parabolic, |t| > 2 hyperbolic
    (both eigenvalues real); every non-real trace is loxodromic but not
    hyperbolic.  Realness is tested exactly (imaginary part equal to zero).
    """
    t = complex(t)
    if not (math.isfinite(t.real) and math.isfinite(t.imag)):
        raise ValueError("trace must be finite")
    if t.imag != 0.0:
        return TraceClass.LOXODROMIC_NONHYPERBOLIC
    a = abs(t.real)
    if a < 2.0:
        return TraceClass.ELLIPTIC
    if a == 2.0:
        return TraceClass.PARABOLIC
    return TraceClass.HYPERBOLIC


def length_from_trace(t: complex) -> GeodesicLength:
    """Length and holonomy from a loxodromic trace.

    lambda is the root of z^2 - t*z + 1 with |lambda| > 1; the length is
    2*log|lambda| and the holonomy 2*arg(lambda) reduced to (-pi, pi].
    Squaring the element sends t to t^2 - 2 and doubles the length exactly.
    """
    cls = classify_trace(t)
    if cls in (TraceClass.ELLIPTIC, TraceClass.PARABOLIC):
        raise ValueError(f"{cls.value} traces have no translation length")
    t = complex(t)
    sq = cmath.sqrt(t * t - 4)
    lam = (t + sq) / 2
    other = (t - sq) / 2
    if abs(other) > abs(lam):
        lam = other
    # atan2 instead of cmath.phase: the latter overflows on subnormal parts
    hol = math.remainder(2 * math.atan2(lam.imag, lam.real), 2 * math.pi)
    if hol <= -math.pi:
        hol += 2 * math.pi
    if cls is TraceClass.HYPERBOLIC:
        hol = 0.0
    return GeodesicLength(2 * math.log(abs(lam)), hol)


def surface_obstruction(ext: RelQuadExt) -> bool:
    """True when geodesics with eigenvalue generating L avoid all finite-area
    totally geodesic surfaces.

    Non-Galois L/Q forces every power of the eigenvalue off the real line, so
    no power of the isometry is hyperbolic and the geodesic lies on no
    surface.  The Galois case gets False: no obstruction certificate, not a
    proof of containment.
    """
    return not is_galois_over_Q(ext)


@dataclass(frozen=True)
class RealQuadraticUnit:
    """Fundamental unit eps = (a + b*sqrt(d))/2 > 1 of the order of discriminant d."""

    d: int
    a: int
    b: int
    norm: int

    def __post_init__(self):
        if self.a * self.a - self.d * self.b * self.b != 4 * self.norm or self.norm not in (1, -1):
            raise ValueError("not a unit: a^2 - d*b^2 must be +-4")
        if self.a < 1 or self.b < 1:
            raise ValueError("normalize to the representative > 1 (a, b positive)")

    @property
    def regulator(self) -> float:
        """log(eps), stable even when a and b have hundreds of digits."""
        # log((a + b*sqrt(d))/2) = log a - log 2 + log1p(b*sqrt(d)/a)
        ratio_sq = (self.b * self.b * self.d) / (self.a * self.a)  # int / int rounds correctly
        return math.log(self.a) - math.log(2) + math.log1p(math.sqrt(ratio_sq))


LEAF = 32
"""Partial quotients per leaf of the product tree, multiplied left to right."""


def _cycle_product(quotients: list[int]) -> tuple[int, int, int, int]:
    """(A, B, C, E) with [[A, B], [C, E]] the product of [[a, 1], [1, 0]] over the
    non-empty list quotients, left to right, in a balanced product tree: runs of
    LEAF quotients are multiplied out, then neighbours are multiplied pairwise."""
    level = []
    for i in range(0, len(quotients), LEAF):
        A, B, C, E = 1, 0, 0, 1
        for a in quotients[i : i + LEAF]:
            A, B, C, E = A * a + B, A, C * a + E, C
        level.append((A, B, C, E))
    while len(level) > 1:
        paired = [
            (A * A2 + B * C2, A * B2 + B * E2, C * A2 + E * C2, C * B2 + E * E2)
            for (A, B, C, E), (A2, B2, C2, E2) in zip(level[::2], level[1::2])
        ]
        level = paired + level[len(paired) * 2 :]
    return level[0]


def fundamental_unit(d: int) -> RealQuadraticUnit:
    """Smallest unit > 1 of the real quadratic order of discriminant d.

    Runs the continued-fraction recurrence
        a_k = floor((P_k + sqrt(d))/Q_k),  P_{k+1} = a_k*Q_k - P_k,
        Q_{k+1} = (d - P_{k+1}^2)/Q_k
    from (P_0, Q_0) = (d mod 2, 2), i.e. from alpha_0 = (d mod 2 + sqrt(d))/2.
    alpha_0 > 1 has a negative conjugate and a_0 >= 1 for d >= 5, so
    alpha_1 = 1/(alpha_0 - a_0) is reduced (alpha_1 > 1, -1 < alpha_1' < 0)
    and the expansion is purely periodic from index 1 (Galois; Cohen, GTM 138,
    section 5.7): the walk records (P_1, Q_1) and stops when that state comes
    back.  One trip around the cycle gives the automorphism eps = C*alpha + E
    of the corresponding module, with [[A,B],[C,E]] the product of the
    partial-quotient matrices over the cycle; that automorphism is the
    fundamental unit, of norm (-1)^(cycle length).  The product is taken
    in a balanced tree (_cycle_product): its entries grow to about
    log2(eps) bits (some 10^5 near d = 10^9), and the tree multiplies them in
    a few large, balanced products instead of one small-by-large product per
    quotient.  It is exact, so the unit is the (a, b, norm) of the
    left-to-right product.
    """
    if d <= 0 or not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a positive fundamental discriminant")
    isq = math.isqrt(d)
    P, Q = d % 2, 2
    P1 = Q1 = None
    quotients: list[int] = []
    while True:
        a = (P + isq) // Q
        quotients.append(a)
        P = a * Q - P
        if (d - P * P) % Q:
            raise VerificationError(f"Q = {Q} does not divide d - P^2 at P = {P}")
        Q = (d - P * P) // Q
        if P1 is None:
            P1, Q1 = P, Q
        elif P == P1 and Q == Q1:
            break
    # (P, Q) is back at (P_1, Q_1), where the cycle starts
    _, _, C, E = _cycle_product(quotients[1:])
    u, v = C * P + E * Q, C
    if (2 * u) % Q or (2 * v) % Q:
        raise VerificationError("continued-fraction automorphism is not integral")
    a_coef, b_coef = 2 * u // Q, 2 * v // Q
    norm = (a_coef * a_coef - d * b_coef * b_coef) // 4
    return RealQuadraticUnit(d, a_coef, b_coef, norm)


def geodesic_length_real_quadratic(d: int) -> GeodesicLength:
    """Length of the geodesic attached to the fundamental unit of discriminant d.

    Group elements have reduced norm 1, so a norm -1 fundamental unit must be
    squared before it appears as an eigenvalue; the length is 2*log of that
    totally positive unit, with zero holonomy.
    """
    unit = fundamental_unit(d)
    reg = unit.regulator
    if unit.norm == -1:
        reg *= 2
    return GeodesicLength(2 * reg, 0.0)


def height_and_length_bounds(abs_disc_L: int) -> tuple[int, int]:
    """Explicit height and length bounds for the norm-one unit of a quartic field.

    For a degree-4 field, 6^4 * 4^20 = 2^44 * 3^4 multiplies the regulator,
    and the regulator is at most the squared discriminant; the associated
    geodesic length picks up another factor 8.
    """
    if abs_disc_L < 1:
        raise ValueError("need a positive discriminant bound")
    height = 2**44 * 3**4 * abs_disc_L**2
    return height, 8 * height

