"""Exact computation of regularity and saturation-degree functions of powers of monomial ideals."""

from .monomials import (
    Monomial,
    MonomialIdeal,
    MonomialSyntaxError,
    RingMismatchError,
    RingSpec,
    ideal,
    minimalize,
    parse_monomial,
    unit_ideal,
    zero_ideal,
)
from .modules import (
    NEG_INF,
    Subquotient,
    basis,
    hilbert,
    ideal_module,
    is_artinian,
    quotient_ring,
    top_degree,
)
from .betti import (
    BettiTable,
    KoszulPiece,
    betti,
    betti_bidegree,
    betti_table,
    koszul_piece,
    regularity,
)
from .regfun import (
    DefectReport,
    InputError,
    PresentedIdeal,
    StandingHypothesisError,
    defect_report,
)
from .families import (
    FamilySpec,
    NoClosedFormError,
    Prediction,
    VerifyReport,
    build,
    predict,
    verify,
)
from .specfile import ParseError, parse_spec, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
