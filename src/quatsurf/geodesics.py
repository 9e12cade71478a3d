"""Trace classification, translation lengths, fundamental units, and height bounds.

A loxodromic isometry of hyperbolic 3-space translates along its axis by
2*log|lambda| and rotates by 2*arg(lambda), where lambda is the eigenvalue of
the trace-t matrix with |lambda| > 1.  The isometry preserves a hyperbolic
plane through its axis exactly when its trace is real, which is the only case
with zero rotation; a loxodromic element none of whose powers goes real can
therefore never run inside a finite-area totally geodesic surface, and over
our quartic fields that realness obstruction is precisely the failure of the
field to be Galois over Q.

Fundamental units of real quadratic orders are computed from the first half
of the classical continued-fraction cycle of the quadratic irrational
(s + sqrt(d))/2, which stays in exact integer arithmetic and handles the
enormous units that already occur below d = 10^4.
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
        aa = self.a * self.a  # b^2*d = a^2 - 4*norm (checked above); int / int rounds correctly
        ratio_sq = (aa - 4 * self.norm) / aa
        return math.log(self.a) - math.log(2) + math.log1p(math.sqrt(ratio_sq))


LEAF = 32
"""Partial quotients per leaf of the product tree, multiplied left to right."""


def _cycle_product(quotients: list[int]) -> tuple[int, int, int, int]:
    """(A, B, C, E) with [[A, B], [C, E]] the product of [[a, 1], [1, 0]] over the
    list quotients, left to right (the identity for an empty list), in a
    balanced product tree: runs of LEAF quotients are multiplied out, then
    neighbours are multiplied pairwise."""
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
    return level[0] if level else (1, 0, 0, 1)


def fundamental_unit(d: int) -> RealQuadraticUnit:
    """Smallest unit > 1 of the real quadratic order of discriminant d.

    Runs the continued-fraction recurrence
        a_k = floor((P_k + sqrt(d))/Q_k),  P_{k+1} = a_k*Q_k - P_k,
        Q_{k+1} = (d - P_{k+1}^2)/Q_k
    for alpha_k = (P_k + sqrt(d))/Q_k from (P_0, Q_0) = (s, 2), s = d mod 2.
    alpha_1 = 1/(alpha_0 - a_0) is reduced (alpha_1 > 1, -1 < alpha_1' < 0), so
    the expansion is purely periodic from index 1, with some period L (Galois;
    Cohen, GTM 138, section 5.7).  With [[A, B], [C, E]] the product of the
    symmetric M(a) = [[a, 1], [1, 0]] over a_1..a_L, eps = C*alpha_1 + E is the
    fundamental unit, of norm (-1)^L.

    The walk goes only half way round (Jacobson and Williams, *Solving the Pell
    Equation*).  1/(alpha_L - a_L) = alpha_1 = 1/(alpha_0 - a_0), so
    alpha_L - alpha_0 is the integer m with -1 < alpha_0' + m < 0, i.e.
    m = floor((sqrt(d) - s)/2), and a_L = a_0 + m = 2*a_0 - s = P_1.  The
    involution alpha -> -1/alpha' sends alpha_k to (P_k + sqrt(d))/Q_{k-1},
    reverses the cycle and sends alpha_1 to alpha_0 + m = alpha_L, so it is
    alpha_k -> alpha_{L+1-k}: a_1..a_{L-1} is a palindrome.  Its mirror point
    is the first k >= 1 with Q_{k+1} = Q_k (fixed point, L = 2k + 1) or
    P_{k+1} = P_k (fixed pair, L = 2k).  With S the product over the half
    a_1..a_k, the cycle is S*S^T*M(a_L) for an even palindrome and, with the
    middle a_k taken off the half, S*M(a_k)*S^T*M(a_L) for an odd one.
    Period 1 returns to (P_1, Q_1) at once, where both equalities hold: its
    half is empty and its cycle M(a_1).  Only the bottom row (C, E) of the
    cycle enters eps, so the top level is C*A + E*B and C^2 + E^2, not a full
    2x2 product.  S is taken in a balanced tree (_cycle_product): its entries
    grow to about log2(eps)/2 bits (some 5*10^4 near d = 10^9), and the tree
    multiplies them in a few large, balanced products.
    """
    if d <= 0 or not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a positive fundamental discriminant")
    isq = math.isqrt(d)
    P = P1 = 2 * ((d % 2 + isq) // 2) - d % 2  # 2*a_0 - s = a_L
    Q = Q1 = (d - P1 * P1) // 2
    half: list[int] = []
    while True:
        a = (P + isq) // Q
        half.append(a)
        P_next = a * Q - P
        Q_next = (d - P_next * P_next) // Q
        if P_next == P or Q_next == Q:
            break
        P, Q = P_next, Q_next
    odd = Q_next != Q  # an odd palindrome, with middle a_k
    mid = half.pop() if P_next == P else 0  # the middle, or a_1 of period 1
    A, B, C, E = _cycle_product(half)
    c, e = (C * mid + E, C) if odd else (C, E)  # bottom row of S or S*M(a_k)
    x, y = c * A + e * B, c * C + e * E  # times S^T
    C, E = x * P1 + y, x  # times M(a_L)
    u, v = C * P1 + E * Q1, C
    try:  # the one certificate, on the result rather than the walk: a^2 - d*b^2 = +-4 exactly
        return RealQuadraticUnit(d, 2 * u // Q1, 2 * v // Q1, 1 if odd else -1)
    except ValueError as exc:
        raise VerificationError(f"the continued-fraction walk for d = {d} gave no unit: {exc}") from exc


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

