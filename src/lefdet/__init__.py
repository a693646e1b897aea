"""Exact determinants of multiplication-by-linear-forms maps on the algebra
K[x,y] modulo x^(d+1) and y^(q+1), their Schur-polynomial closed forms, and
cross-verification machinery (brute force over rationals, polynomial
identities over symbolic coefficients)."""

from .formulas import (
    CellRecord,
    ComplementIdentityResult,
    Expansion,
    ExpansionTerm,
    LiteralCase,
    SplitForms,
    complement_identity_check,
    det_closed_form,
    det_literal_cases,
    det_schur_expansion,
    discrepancy_report,
    duality_check,
    symbolic_forms,
)
from .linalg import (
    CauchyBinetResult,
    ExactMatrix,
    cauchy_binet_check,
    det,
    det_bareiss,
    det_laplace,
    minor_det,
)
from .mpoly import MultiPoly, render
from .partitions import Partition, enumerate_in_rectangle, rectangle
from .ring import (
    LinearForm,
    RingParams,
    SlpEntry,
    SlpReport,
    basis,
    det_direct,
    dim,
    mult_matrix,
    mult_matrix_block,
    product_coefficients,
    slp_check,
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

__all__ = [
    "CauchyBinetResult",
    "CellRecord",
    "ComplementIdentityResult",
    "ExactMatrix",
    "Expansion",
    "ExpansionTerm",
    "HomogPair",
    "LinearForm",
    "LiteralCase",
    "MultiPoly",
    "Partition",
    "RingParams",
    "SlpEntry",
    "SlpReport",
    "SplitForms",
    "basis",
    "cauchy_binet_check",
    "complement_identity_check",
    "det",
    "det_bareiss",
    "det_closed_form",
    "det_direct",
    "det_laplace",
    "det_literal_cases",
    "det_schur_expansion",
    "dim",
    "discrepancy_report",
    "duality_check",
    "elementary",
    "elementary_homog",
    "enumerate_in_rectangle",
    "minor_det",
    "mult_matrix",
    "mult_matrix_block",
    "product_coefficients",
    "rectangle",
    "render",
    "schur",
    "schur_bialternant",
    "schur_homog",
    "schur_jacobi_trudi",
    "schur_tableaux",
    "slp_check",
    "symbolic_forms",
]
