"""quatsurf: quaternion algebras over quadratic fields, geodesics, and counting.

Exact arithmetic for quadratic and relative quadratic extensions, quaternion
algebras classified by ramification data, sieve censuses of algebras and
discriminants, fundamental units and geodesic lengths, and the covolume and
coarea formulas of the associated arithmetic groups.

One thread per process: OPENBLAS_NUM_THREADS defaults to 1 unless already set.
numpy loads only with quatsurf.cli or quatsurf.census, or at the first call
that builds arrays; the census names below resolve on first access.
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


def __getattr__(name):
    """The census names, imported on first access (PEP 562): census is the one
    module that loads numpy at import, so the scalar layer runs without it."""
    census_names = (
        "AlgebraCensus",
        "PrimePredicate",
        "algebra_census",
        "count_squarefree_over_P",
        "mean_value_fit",
        "prime_density_report",
    )
    if name in census_names:
        from . import census
        return getattr(census, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlgebraCensus",
    "BoundaryPrimeError",
    "BoundsTooSmall",
    "CriterionOutOfScope",
    "EmbeddingUndecidable",
    "FieldConstruction",
    "GeodesicLength",
    "PrimeOfK",
    "PrimePredicate",
    "QSelection",
    "QuadraticField",
    "QuarticPoly",
    "QuatAlgK",
    "QuatAlgQ",
    "RealQuadraticUnit",
    "RelQuadExt",
    "SearchCapExceeded",
    "SplitType",
    "TraceClass",
    "VerificationError",
    "algebra_census",
    "base_change",
    "classify_trace",
    "compositum_degree_check",
    "construct_fields",
    "count_fundamental_discriminants",
    "count_scaling",
    "count_squarefree_over_P",
    "dirichlet_L2",
    "disc_upper_bound",
    "embeds",
    "find_xi",
    "fuchsian_admissible",
    "fuchsian_coarea",
    "fundamental_discriminants",
    "fundamental_unit",
    "geodesic_length_real_quadratic",
    "height_and_length_bounds",
    "hensel_sqrt",
    "is_fundamental_discriminant",
    "is_galois_over_Q",
    "is_isomorphic",
    "kleinian_covolume",
    "length_from_trace",
    "mean_value_fit",
    "minimal_polynomial",
    "nth_prime_in_ap",
    "poly_discriminant",
    "prime_density_report",
    "primes_above",
    "ramification_probability_check",
    "recover_ramification",
    "relative_ramification",
    "select_q_primes",
    "split_primes_prefix",
    "splitting",
    "splitting_in_L",
    "surface_obstruction",
    "verify_splitting_matrix",
    "wood_stats",
]
