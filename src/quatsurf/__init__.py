"""quatsurf: quaternion algebras over quadratic fields, geodesics, and counting.

Exact arithmetic for quadratic and relative quadratic extensions, quaternion
algebras classified by ramification data, sieve censuses of algebras and
discriminants, fundamental units and geodesic lengths, and the covolume and
coarea formulas of the associated arithmetic groups.

One thread per process: OPENBLAS_NUM_THREADS defaults to 1 unless already set.
numpy loads only with quatsurf.cli or quatsurf.census, or at the first call
that builds arrays; the census names below resolve on first access.  The
public names, __all__, are every class and function imported here from a
quatsurf module, and the census names.
"""

import os

# quatsurf calls no BLAS routine, and OpenBLAS reads this once, when numpy
# loads: without it an idle worker pool spins on a second core every run.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (
    BoundaryPrimeError,
    BoundsTooSmall,
    CriterionOutOfScope,
    EmbeddingUndecidable,
    SearchCapExceeded,
    VerificationError,
)
from .fieldforge import FieldConstruction, construct_fields, find_xi, hensel_sqrt
from .geodesics import (
    GeodesicLength,
    RealQuadraticUnit,
    TraceClass,
    classify_trace,
    fundamental_unit,
    geodesic_length_real_quadratic,
    height_and_length_bounds,
    length_from_trace,
    surface_obstruction,
)
from .primeforge import QSelection, nth_prime_in_ap, select_q_primes, verify_splitting_matrix
from .quadfields import (
    PrimeOfK,
    QuadraticField,
    SplitType,
    count_fundamental_discriminants,
    fundamental_discriminants,
    is_fundamental_discriminant,
    primes_above,
    ramification_probability_check,
    split_primes_prefix,
    splitting,
    wood_stats,
)
from .quatalg import (
    QuatAlgK,
    QuatAlgQ,
    base_change,
    embeds,
    fuchsian_admissible,
    is_isomorphic,
    recover_ramification,
)
from .relquad import (
    QuarticPoly,
    RelQuadExt,
    compositum_degree_check,
    disc_upper_bound,
    is_galois_over_Q,
    minimal_polynomial,
    poly_discriminant,
    relative_ramification,
    splitting_in_L,
)
from .volumes import count_scaling, dirichlet_L2, fuchsian_coarea, kleinian_covolume


# the census names, imported on first access (PEP 562): census is the one
# module that loads numpy at import, so the scalar layer runs without it
_CENSUS_NAMES = (
    "AlgebraCensus",
    "PrimePredicate",
    "algebra_census",
    "count_squarefree_over_P",
    "mean_value_fit",
    "prime_density_report",
)


def __getattr__(name):
    if name in _CENSUS_NAMES:
        from . import census
        return getattr(census, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    [name for name, value in globals().items() if getattr(value, "__module__", "").startswith(__name__ + ".")]
    + list(_CENSUS_NAMES)
)
