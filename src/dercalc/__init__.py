"""dercalc: exact derivations on field towers, cocycle calculus, and
functional-equation checking over finite carriers."""

from .exact import (
    BudgetError,
    ExactError,
    FiniteCarrier,
    IntegerWindow,
    MultiPoly,
    gf,
    rational,
    zmod,
)
from .towers import FieldTower, TowerElement, TowerError, element_eval, tower_new
from .derivations import (
    AffineDerivation,
    Derivation,
    derivation_bracket,
    derivation_combine,
    derivation_define,
    independence_rank,
    iterate,
    leibniz_residual,
)
from .higher import GammaTable, HigherDerivation, gamma_check, gamma_factor, hod_define
from .cocycle import (
    Cocycle2,
    alien_check,
    cauchy_difference,
    char_decompose,
    cocycle_extend_positive,
    cocycle_primitive,
    cocycle_verify,
    leibniz_coboundary_check,
    leibniz_difference,
)
from .multiadd import PolyFunction, SymMultiMap, recover_components, trace
from .feq import CORPUS, Equation, FnTable, feq_check, feq_solve_brute
from .session import run_session, run_session_text

__version__ = "0.1.0"
