"""Exact-arithmetic toolkit for rectangular integer matrices.

Decides unimodularity (gcd of full-rank minors equal to 1), computes
column-style Hermite and Smith normal forms with their unimodular
transforms, completes unimodular rows to GL_n(Z), evaluates the density
of unimodular k x n matrices with rigorous error bounds, and verifies the
theory empirically with exhaustive enumeration and seeded, shard-invariant
Monte Carlo sampling.
"""

from .density import (
    DensityReport,
    PrimeSet,
    ZetaValue,
    count_full_rank_mod_p,
    density_exact,
    density_limit,
    divisibility_defect,
    first_primes,
    is_prime,
    local_density,
    zeta,
)
from .experiments import (
    DEFAULT_BUDGET,
    BoxSpec,
    BudgetError,
    EstimateReport,
    ExhaustiveReport,
    LocalDensityCheck,
    convergence_sweep,
    estimate_density,
    exhaustive_density,
    sample_matrix,
    verify_local_density,
)
from .matrix import IntMatrix, MinorSet, full_rank_minor_gcd, is_unimodular, minors
from .matrixfile import MatrixFileError, format_matrix, parse_matrix
from .normal_forms import (
    HnfResult,
    NotUnimodularError,
    SnfResult,
    complete_to_gl,
    hnf,
    is_trivial_hnf,
    snf,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSpec",
    "BudgetError",
    "DEFAULT_BUDGET",
    "DensityReport",
    "EstimateReport",
    "ExhaustiveReport",
    "HnfResult",
    "IntMatrix",
    "LocalDensityCheck",
    "MatrixFileError",
    "MinorSet",
    "NotUnimodularError",
    "PrimeSet",
    "SnfResult",
    "ZetaValue",
    "complete_to_gl",
    "convergence_sweep",
    "count_full_rank_mod_p",
    "density_exact",
    "density_limit",
    "divisibility_defect",
    "estimate_density",
    "exhaustive_density",
    "first_primes",
    "format_matrix",
    "full_rank_minor_gcd",
    "hnf",
    "is_prime",
    "is_trivial_hnf",
    "is_unimodular",
    "local_density",
    "minors",
    "parse_matrix",
    "sample_matrix",
    "snf",
    "verify_local_density",
    "zeta",
    "__version__",
]
