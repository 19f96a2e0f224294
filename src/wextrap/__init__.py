"""Vector extrapolation in weighted inner-product spaces.

The package accelerates fixed-point iterations with two polynomial
extrapolation methods, verifies the algebraic identities coupling
them, and exposes the matching weighted Krylov solvers.  Everything
is organized around an incrementally grown weighted QR factorization
of the iterate differences.
"""

from .errors import (
    DimensionMismatch,
    InsufficientVectors,
    LambdaNotPositive,
    NegativeQuadraticForm,
    NonFiniteIterate,
    NonpositiveWeight,
    NotHermitian,
    NotPositiveDefinite,
    ParseError,
    RankDeficient,
    WextrapError,
)
from .extrapolate import (
    CoefficientSolve,
    ExtrapolationRecord,
    RunHistory,
    RunStatus,
    history_rows,
    run,
)
from .krylov import (
    KrylovComparison,
    equivalence_check,
    fom_solve,
    gmr_solve,
)
from .mmio import (
    history_to_dict,
    load_history,
    read_matrix,
    read_sequence,
    read_vector,
    save_history,
    write_matrix,
    write_sequence,
    write_vector,
)
from .problems import (
    FixedPointProblem,
    cosine_problem,
    iterate,
    quadratic_problem,
    residual,
)
from .qr import (
    WQRFactors,
    mgs_factorize,
    orthogonalize_column,
)
from .relations import (
    RelationReport,
    StageRelations,
    verify_history,
)
from .weights import WeightOperator, validate

__all__ = [
    "CoefficientSolve",
    "DimensionMismatch",
    "ExtrapolationRecord",
    "FixedPointProblem",
    "InsufficientVectors",
    "KrylovComparison",
    "LambdaNotPositive",
    "NegativeQuadraticForm",
    "NonFiniteIterate",
    "NonpositiveWeight",
    "NotHermitian",
    "NotPositiveDefinite",
    "ParseError",
    "RankDeficient",
    "RelationReport",
    "RunHistory",
    "RunStatus",
    "StageRelations",
    "WQRFactors",
    "WeightOperator",
    "WextrapError",
    "cosine_problem",
    "equivalence_check",
    "fom_solve",
    "gmr_solve",
    "history_rows",
    "history_to_dict",
    "iterate",
    "load_history",
    "mgs_factorize",
    "orthogonalize_column",
    "quadratic_problem",
    "read_matrix",
    "read_sequence",
    "read_vector",
    "residual",
    "run",
    "save_history",
    "validate",
    "verify_history",
    "write_matrix",
    "write_sequence",
    "write_vector",
]

__version__ = "0.1.0"
