"""Exact u-expansion arithmetic for Tate-algebra valued vectorial
Drinfeld modular forms over F_q[theta]."""

from .context import Context
from .errors import (CarlitzVMFError, EvaluationPoleError, MixedGradeError,
                     NotInSpanError, NotIrreducibleError, NotTauImageError,
                     PrecisionError)
from .fields import GF
from .polys import Poly, PolyRing, RatFunc
from .scalars import GradedScalar
from .useries import USeries

__all__ = [
    "Context", "GF", "Poly", "PolyRing", "RatFunc",
    "GradedScalar", "USeries", "CarlitzVMFError", "EvaluationPoleError",
    "MixedGradeError", "NotInSpanError", "NotIrreducibleError",
    "NotTauImageError", "PrecisionError",
]

__version__ = "0.1.0"
