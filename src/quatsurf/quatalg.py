"""Quaternion algebras presented by their ramification data.

Over a number field a quaternion algebra is determined up to isomorphism by
the finite, even set of places at which it ramifies, so the algebra objects
here carry exactly that set and nothing else: no Hilbert symbols, no norm
forms.  Embedding of quadratic fields is the Albert-Brauer-Hasse-Noether
criterion (L embeds iff no ramified place splits in L), base change to an
imaginary quadratic field keeps precisely the ramified primes that split, and
the ramification-recovery procedure reconstructs the split-prime pairing of
an algebra from the quadratic fields its rational ancestors can contain.
"""

from dataclasses import dataclass, field
from itertools import chain, tee
from typing import NamedTuple

from . import arith
from .errors import BoundsTooSmall, CriterionOutOfScope, EmbeddingUndecidable
from .quadfields import PrimeOfK, QuadraticField, SplitType, discriminant_blocks, kronecker_row, primes_above, splitting, symbol_column
from .relquad import RelQuadExt, splitting_in_L


@dataclass(frozen=True)
class QuatAlgQ:
    """Quaternion algebra over Q: finite ramified primes plus the real place flag."""

    ram_finite: frozenset[int]
    ram_infinite: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ram_finite", frozenset(self.ram_finite))
        for p in self.ram_finite:
            if not arith.is_prime(p):
                raise ValueError(f"ramification set contains non-prime {p}")
        if (len(self.ram_finite) + (1 if self.ram_infinite else 0)) % 2 != 0:
            raise ValueError("total ramification must be even")

    @property
    def is_division(self) -> bool:
        return bool(self.ram_finite) or self.ram_infinite

    @property
    def is_definite(self) -> bool:
        return self.ram_infinite


@dataclass(frozen=True)
class QuatAlgK:
    """Quaternion algebra over an imaginary quadratic field (no real places)."""

    delta_k: int
    ram_finite: frozenset[PrimeOfK] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "ram_finite", frozenset(self.ram_finite))
        k = QuadraticField(self.delta_k)
        if not k.is_imaginary:
            raise ValueError("base field must be imaginary quadratic")
        if len(self.ram_finite) % 2 != 0:
            raise ValueError("finite ramification must be even over an imaginary quadratic field")
        for pr in self.ram_finite:
            if splitting(k, pr.p) is not pr.kind:
                raise ValueError(f"prime {pr} inconsistent with discriminant {self.delta_k}")
            if pr.kind is SplitType.SPLIT and (pr.root * pr.root - self.delta_k) % pr.p != 0:
                raise ValueError(f"root of {pr} does not square to the discriminant")

    @property
    def is_division(self) -> bool:
        return bool(self.ram_finite)

    @property
    def disc_f_abs(self) -> int:
        """Absolute norm of the finite discriminant ideal."""
        out = 1
        for pr in self.ram_finite:
            out *= pr.norm
        return out


def is_isomorphic(b1, b2) -> bool:
    """Classification by ramification: isomorphic iff the ramification data agree."""
    if isinstance(b1, QuatAlgQ) and isinstance(b2, QuatAlgQ):
        return b1.ram_finite == b2.ram_finite and b1.ram_infinite == b2.ram_infinite
    if isinstance(b1, QuatAlgK) and isinstance(b2, QuatAlgK):
        if b1.delta_k != b2.delta_k:
            raise ValueError("algebras live over different base fields")
        return b1.ram_finite == b2.ram_finite
    raise ValueError("algebras live over different base fields")


def embeds(b, ell) -> bool:
    """Albert-Brauer-Hasse-Noether: the quadratic extension embeds iff no
    ramified place of the algebra splits in it.

    Over Q the extension is a QuadraticField and the real place of a definite
    algebra forces the extension to be imaginary.  Over an imaginary
    quadratic base the extension is a RelQuadExt and only finite places
    matter; primes outside the symbolic splitting criterion raise
    EmbeddingUndecidable rather than guessing.
    """
    if isinstance(b, QuatAlgQ):
        if not isinstance(ell, QuadraticField):
            raise ValueError("expected a QuadraticField over Q")
        if b.ram_infinite and ell.delta > 0:
            return False
        return all(splitting(ell, p) is not SplitType.SPLIT for p in b.ram_finite)
    if isinstance(b, QuatAlgK):
        if not isinstance(ell, RelQuadExt) or ell.delta_k != b.delta_k:
            raise ValueError("expected a relative quadratic extension of the same base field")
        undecidable: CriterionOutOfScope | None = None
        for pr in b.ram_finite:
            try:
                if splitting_in_L(ell, pr) is SplitType.SPLIT:
                    return False
            except CriterionOutOfScope as exc:
                undecidable = exc
        if undecidable is not None:
            raise EmbeddingUndecidable(f"extend search data: {undecidable}") from undecidable
        return True
    raise ValueError(f"not a quaternion algebra: {b!r}")


def base_change(b_plus: QuatAlgQ, delta_k: int) -> QuatAlgK:
    """Extension of scalars to the imaginary quadratic field of discriminant delta_k.

    Ramified primes of the rational algebra survive exactly when they split
    in k, each contributing its conjugate pair; inert and ramified primes of
    k become local matrix algebras and contribute nothing.  Only indefinite
    algebras are accepted (the real place must sit under the complex place).
    """
    if b_plus.is_definite:
        raise ValueError("base change requires an indefinite algebra")
    k = QuadraticField(delta_k)
    if not k.is_imaginary:
        raise ValueError("target field must be imaginary quadratic")
    ram: set[PrimeOfK] = set()
    for p in b_plus.ram_finite:
        if splitting(k, p) is SplitType.SPLIT:
            ram.update(primes_above(k, p))
    return QuatAlgK(delta_k, frozenset(ram))


class FuchsianPairing(NamedTuple):
    admissible: bool
    primes: list[int]

    def __bool__(self):
        return self.admissible


def fuchsian_admissible(b: QuatAlgK) -> FuchsianPairing:
    """Does the ramification pair off over rational split primes?

    True exactly when the finite discriminant is p_1*...*p_r*O_k for rational
    primes p_i split in k, i.e. the ramification set consists of complete
    conjugate pairs.  Such an algebra is a base change, in infinitely many
    ways, of an indefinite rational algebra, which is what lets the Kleinian
    groups it produces contain Fuchsian subgroups.
    """
    by_p: dict[int, set[int]] = {}
    for pr in b.ram_finite:
        if pr.kind is not SplitType.SPLIT or pr.p == 2:
            return FuchsianPairing(False, [])
        by_p.setdefault(pr.p, set()).add(pr.root)
    for p, roots in by_p.items():
        r = min(roots)
        if roots != {r, p - r}:
            return FuchsianPairing(False, [])
    return FuchsianPairing(True, sorted(by_p))


@dataclass(frozen=True)
class RecoveredRamification:
    primes: list[int]
    admissible_field_count: int


def recover_ramification(b: QuatAlgK, d_bound: int, prime_bound: int) -> RecoveredRamification:
    """Recover the split-prime pairing of the algebra from its rational ancestors.

    Enumerate quadratic fields L = Q(sqrt(D)) with D fundamental and
    |D| <= d_bound.  L is admissible when it embeds into some indefinite
    rational algebra whose base change is b: no pairing prime may split in L,
    and when the pairing has odd size an auxiliary prime q <= prime_bound,
    nonsplit in k and nonsplit in L, must complete the ramification set to
    even size.  The intersection over admissible L of the primes <= prime_bound
    nonsplit in L always contains the pairing, and shrinks to it as the
    bounds grow; the truncation at (d_bound, prime_bound) is the caller's.
    Memory is one block of discriminants, one sieve window and the surviving
    primes: the candidates up to prime_bound are walked, never listed.  The
    auxiliary primes are one lazy ascending stream, sieved window by window
    only as far as some block has read, which each block rereads through a
    tee whose untouched twin buffers what the blocks before it read.
    """
    import numpy as np
    pairing = fuchsian_admissible(b)
    if not pairing:
        raise ValueError("algebra is not a base change of a rational algebra")
    need_aux = len(pairing.primes) % 2 == 1

    def windows():  # the primes up to prime_bound, one sieve window at a time
        for lo in range(2, prime_bound + 1, arith.SEGMENT):
            yield arith.primes_between(lo, min(prime_bound, lo + arith.SEGMENT - 1))

    # the primes <= prime_bound nonsplit in k, ascending; the chain holds a window's nonsplit primes, never the window
    nonsplit = map(int, chain.from_iterable(map(lambda qs: qs[symbol_column(b.delta_k, qs) != 1], windows())))
    surviving: np.ndarray | None = None  # the candidates, once the first admissible block has struck them
    admissible = 0
    for discs in discriminant_blocks(d_bound):
        for p in pairing.primes:
            discs = discs[kronecker_row(discs, p) != 1]
        if need_aux:
            pending = np.arange(len(discs))  # the fields every auxiliary prime so far splits in
            nonsplit, aux = tee(nonsplit)
            for q in aux:
                pending = pending[kronecker_row(discs[pending], q) == 1]
                if len(pending) == 0:
                    break
            discs = np.delete(discs, pending)
        if len(discs) == 0:
            continue
        admissible += len(discs)
        # never the whole D x p matrix: a (D|p) column per D (each strikes about half) while the candidates
        # outnumber the D's left or the last run of columns that struck none, then a row per survivor
        struck = [np.empty(0, dtype=np.int64)]
        for ps in windows() if surviving is None else [surviving]:
            i = idle = 0
            while i < len(discs) and len(ps) > min(idle, len(discs) - i):
                kept = ps[symbol_column(int(discs[i]), ps) != 1]
                idle = idle + 1 if len(kept) == len(ps) else 0
                ps, i = kept, i + 1
            struck.append(ps[[not (kronecker_row(discs[i:], p) == 1).any() for p in ps.tolist()]])
        surviving = np.concatenate(struck)
    if admissible == 0:
        aux_bound = f" and auxiliary primes <= {prime_bound}" if need_aux else ""
        raise BoundsTooSmall(f"no admissible quadratic field found with |D| <= {d_bound}{aux_bound}")
    return RecoveredRamification(primes=surviving.tolist(), admissible_field_count=admissible)
