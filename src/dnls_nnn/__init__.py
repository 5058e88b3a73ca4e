"""Stable/unstable manifolds, homoclinic intersections, and lattice solitons
of a 4-d polynomial map arising from a cubic lattice equation with
next-to-adjacent coupling."""

__version__ = "0.1.0"

from .maps import (  # noqa: F401
    ModelParams,
    map4_apply,
    nonwandering_bound,
)
from .spectral import (  # noqa: F401
    ALL_REAL,
    CRITICAL_A,
    MIXED,
    TWO_PAIRS_COMPLEX,
    EigenSystem,
    NonHyperbolicError,
    ReciprocalQuartic,
    characteristic_poly,
    classify_eigenvalues,
    discriminant,
    solve_reciprocal_quartic,
)
from .manifold import (  # noqa: F401
    ManifoldSeries,
    ResonanceError,
    SeriesOverflowError,
    compute_manifold_pair,
    conjugacy_residual,
    evaluate_series,
    rescale_series,
    series_from_dict,
    series_jacobian,
    series_to_dict,
    tail_bound,
)
from .homoclinic import (  # noqa: F401
    FitResult,
    HomoclinicSolution,
    MatchFailure,
    ScanCell,
    det_curve_fit,
    scan_parameters,
    symmetric_search,
)
from .soliton import (  # noqa: F401
    Orbit2D,
    ProfileError,
    SolitonProfile,
    build_profile,
    mirror_defect,
    portrait_2d,
)
