"""curveform: an exact noncommutative rewriting kernel for the Hopf algebra
of the nodal cubic, with a verification suite for its structural claims."""

from .scalar import CurvePoint, Scalar, curve_point_from_t, curve_point_validate
from .freealg import ALPHABET, NcPoly, TensorPoly
from .parser import parse_expr
from .rewrite import Ambiguity, Rule, RuleSystem, check_diamond, complete
from .nodal import (NodalAlgebra, b_decompose, basis_census, build_algebra,
                    freeness_check, growth, is_basis_word)
from .hopf import (StructureMaps, apply_antipode, apply_counit, apply_delta,
                   check_alt_presentation, check_coideal, check_hopf_axioms,
                   check_identities, check_welldefined, units_suite)
from .galois import CPoly, coaction, project_pi, recovery_check, witness_check

__version__ = "0.1.0"

__all__ = [
    "ALPHABET", "Ambiguity", "CPoly", "CurvePoint", "NcPoly", "NodalAlgebra",
    "Rule", "RuleSystem", "Scalar",
    "StructureMaps", "TensorPoly", "apply_antipode", "apply_counit",
    "apply_delta", "b_decompose", "basis_census",
    "build_algebra", "check_alt_presentation", "check_coideal",
    "check_diamond", "check_hopf_axioms", "check_identities",
    "check_welldefined", "coaction", "complete", "curve_point_from_t",
    "curve_point_validate", "freeness_check", "growth", "is_basis_word",
    "parse_expr", "project_pi", "recovery_check", "units_suite",
    "witness_check",
]
