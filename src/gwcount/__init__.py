"""Exact genus-0 curve counts in projective spaces.

Complex Gromov-Witten invariants of P^N with hyperplane-power insertions and
real invariants of odd projective spaces P^{2n-1}, both computed exactly over
arbitrary-precision integers by memoized WDVV-type recursions, plus
closed-form P^3 series, persistent caching, golden tables, and consistency
checks.
"""

from .cache import CacheError, CacheFormatError, CacheIntegrityError, CacheStore
from .complex_engine import ComplexEvalContext, canonical_pivot, eval_complex
from .keys import CodimVector, ComplexKey, RealKey, enumerate_splits
from .p3 import complex_series_p3, real_series_p3
from .real_engine import (
    RealEvalContext,
    canonical_designation,
    eval_real,
    theorem12_residual,
)
from .tables import TableRow, table1_rows, table2_rows

__version__ = "0.1.0"

__all__ = [
    "CacheError",
    "CacheFormatError",
    "CacheIntegrityError",
    "CacheStore",
    "CodimVector",
    "ComplexEvalContext",
    "ComplexKey",
    "RealEvalContext",
    "RealKey",
    "TableRow",
    "canonical_designation",
    "canonical_pivot",
    "complex_series_p3",
    "enumerate_splits",
    "eval_complex",
    "eval_real",
    "real_series_p3",
    "table1_rows",
    "table2_rows",
    "theorem12_residual",
    "__version__",
]
