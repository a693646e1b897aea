"""Exact determinants of multiplication-by-linear-forms maps on the algebra
K[x,y] modulo x^(d+1) and y^(q+1), their Schur-polynomial closed forms, and
cross-verification machinery (brute force over rationals, polynomial
identities over symbolic coefficients)."""

from types import ModuleType as _ModuleType

from .formulas import (
    CellRecord,
    ComplementIdentityResult,
    Expansion,
    ExpansionTerm,
    LiteralCase,
    SlpEntry,
    SlpReport,
    SplitForms,
    complement_identity_check,
    degree_anchor,
    det_closed_form,
    det_literal_cases,
    det_power,
    det_schur_expansion,
    discrepancy_report,
    duality_check,
    slp_check,
    symbolic_forms,
)
from .linalg import (
    CauchyBinetResult,
    ExactMatrix,
    cauchy_binet_check,
    det,
    det_bareiss,
    det_laplace,
    det_mod,
    minor_det,
)
from .mpoly import MultiPoly, render
from .partitions import Partition, enumerate_in_rectangle, rectangle
from .ring import (
    LinearForm,
    RingParams,
    basis,
    det_direct,
    dim,
    mult_matrix,
    mult_matrix_block,
    product_coefficients,
)
from .symfunc import (
    HomogPair,
    elementary,
    elementary_homog,
    schur,
    schur_bialternant,
    schur_homog,
    schur_jacobi_trudi,
    schur_tableaux,
)

__version__ = "0.1.0"

# every public name imported above, sorted: not the submodules, which importing
# binds here too, nor this module's own helper (hence ``_ModuleType``)
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
