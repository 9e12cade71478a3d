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
from typing import NamedTuple

from . import arith
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

    @property
    def value(self) -> float:
        return math.exp(self.regulator)


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
    from (P_0, Q_0) = (d mod 2, 2), i.e. from (1+sqrt(d))/2 or sqrt(d/4).
    Once a state repeats, one trip around the cycle gives the automorphism
    eps = C*alpha + E of the corresponding module, with [[A,B],[C,E]] the
    product of the partial-quotient matrices over the cycle; that automorphism
    is the fundamental unit, of norm (-1)^(cycle length).  The product is taken
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
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        a = (P + isq) // Q
        quotients.append(a)
        P = a * Q - P
        if (d - P * P) % Q:
            raise VerificationError(f"Q = {Q} does not divide d - P^2 at P = {P}")
        Q = (d - P * P) // Q
    # (P, Q) now equals the state where the cycle starts
    _, _, C, E = _cycle_product(quotients[seen[(P, Q)] :])
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


# --- norm-one unit search in the quartic equation order -----------------------


def _poly_mul_mod(u: list[int], w: list[int], c2: int, c0: int) -> list[int]:
    """Multiply two elements of Z[T]/(T^4 + c2*T^2 + c0), coefficients ascending."""
    prod = [0] * 7
    for i, ui in enumerate(u):
        if ui:
            for j, wj in enumerate(w):
                prod[i + j] += ui * wj
    # reduce T^k for k = 6, 5, 4 via T^4 = -c2*T^2 - c0
    for k in (6, 5, 4):
        c = prod[k]
        if c:
            prod[k] = 0
            prod[k - 2] -= c * c2
            prod[k - 4] -= c * c0
    return prod[:4]


class QuarticUnit(NamedTuple):
    coords: tuple[int, int, int, int]  # coefficients of 1, theta, theta^2, theta^3
    height: float


def _embeddings(ext: RelQuadExt) -> list[complex]:
    sd = cmath.sqrt(complex(ext.delta_k))
    thetas = []
    for beta in (ext.x + sd, ext.x - sd):
        root = cmath.sqrt(beta)
        thetas.extend([root, -root])
    return thetas


def _is_root_of_unity(coords: tuple[int, int, int, int], ext: RelQuadExt, max_order: int = 24) -> bool:
    thetas = _embeddings(ext)
    vals = [abs(sum(c * th**i for i, c in enumerate(coords))) for th in thetas]
    if any(abs(v - 1) > 1e-9 for v in vals):
        return False
    # all conjugates on the unit circle: Kronecker's theorem says torsion,
    # confirm exactly by walking powers in the equation order
    c2, c0 = -2 * ext.x, ext.norm_beta
    power = list(coords)
    for _ in range(max_order):
        if power == [1, 0, 0, 0]:
            return True
        power = _poly_mul_mod(power, list(coords), c2, c0)
    return False


def norm_one_unit_search(ext: RelQuadExt, height_cap: int) -> QuarticUnit | None:
    """Search the coefficient box |c_i| <= height_cap of the equation order
    Z[theta] for a non-torsion unit of relative norm 1 over k.

    Writing u = A + B*theta with A, B in k, the relative norm is A^2 - beta*B^2;
    the search walks the (c1, c3) plane, solves the two-coordinate system for
    (A, B) exactly, and keeps box solutions.  Among all solutions the
    lexicographically smallest coordinate vector that is not a root of unity
    is returned, or None when the box contains none (the equation order may
    be smaller than the maximal order, so absence here decides nothing).
    """
    if height_cap < 0:
        raise ValueError("height_cap must be >= 0")
    delta, x = ext.delta_k, ext.x
    solutions: list[tuple[int, int, int, int]] = []
    for c1 in range(-height_cap, height_cap + 1):
        for c3 in range(-height_cap, height_cap + 1):
            # B = (c1 + c3*x) + c3*sqrt(delta); beta*B^2 in the (1, sqrt(delta)) basis
            b0, b1 = c1 + c3 * x, c3
            s0, s1 = b0 * b0 + b1 * b1 * delta, 2 * b0 * b1
            t0, t1 = 1 + x * s0 + delta * s1, s0 + x * s1
            # need A^2 = (t0, t1): a0^2 + a1^2*delta = t0 and 2*a0*a1 = t1
            for a0, a1 in _square_roots_in_k(t0, t1, delta):
                c2, c0 = a1, a0 - a1 * x
                if abs(c2) <= height_cap and abs(c0) <= height_cap:
                    solutions.append((c0, c1, c2, c3))
    for coords in sorted(set(solutions)):
        if coords == (1, 0, 0, 0) or coords == (-1, 0, 0, 0):
            continue
        if _is_root_of_unity(coords, ext):
            continue
        _verify_relative_norm(coords, ext)
        thetas = _embeddings(ext)
        height = sum(max(0.0, math.log(abs(sum(c * th**i for i, c in enumerate(coords))))) for th in thetas) / 4
        return QuarticUnit(coords, height)
    return None


def _square_roots_in_k(t0: int, t1: int, delta: int):
    """Integer pairs (a0, a1) with (a0 + a1*sqrt(delta))^2 = t0 + t1*sqrt(delta)."""
    out = []
    if t1 == 0:
        if t0 >= 0 and arith.is_square(t0):
            r = math.isqrt(t0)
            out.extend([(r, 0), (-r, 0)] if r else [(0, 0)])
        if t0 % delta == 0:
            q = t0 // delta
            if q >= 0 and arith.is_square(q):
                r = math.isqrt(q)
                if r:
                    out.extend([(0, r), (0, -r)])
        return out
    # a1^2 = (-t0 + sqrt(t0^2 - delta*t1^2)) / (-2*delta)  with delta < 0
    disc = t0 * t0 - delta * t1 * t1
    if disc < 0 or not arith.is_square(disc):
        return out
    root = math.isqrt(disc)
    for sign in (1, -1):
        num = -t0 + sign * root
        den = -2 * delta
        if num % den == 0 and num // den >= 0 and arith.is_square(num // den):
            a1 = math.isqrt(num // den)
            if a1 and t1 % (2 * a1) == 0:
                a0 = t1 // (2 * a1)
                if a0 * a0 + a1 * a1 * delta == t0:
                    out.extend([(a0, a1), (-a0, -a1)])
    return out


def _verify_relative_norm(coords: tuple[int, int, int, int], ext: RelQuadExt) -> None:
    """Exact check that u * sigma(u) = 1 in the equation order (sigma: theta -> -theta)."""
    c0, c1, c2, c3 = coords
    sigma = [c0, -c1, c2, -c3]
    prod = _poly_mul_mod(list(coords), sigma, -2 * ext.x, ext.norm_beta)
    if prod != [1, 0, 0, 0]:
        raise VerificationError(f"relative norm of {coords} is not 1")
