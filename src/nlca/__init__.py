"""Exact symbolic calculus in universal envelopes of lambda-bracket algebras.

A Presentation declares graded generators and their lambda-brackets; the
Engine extends the bracket and the normally ordered product to the whole
tensor algebra; the Reducer rewrites tensors onto the ordered (PBW)
basis.  On top of that sit axiom verification, solving for unknown
structure constants, and a small text format with a CLI.
"""

from .algebra import (AlgebraError, GeneratorDecl, Presentation, RGen, TPoly,
                      apply_T, render_tmono, render_tpoly)
from .ansatz import AnsatzError, extract_system, solve, solve_and_substitute
from .calculus import CalculusError, Engine
from .formal import LPoly, render_lpoly
from .frontend import (ParseError, load_bundled, parse_expression, parse_path,
                       parse_scalar, parse_source, render_presentation)
from .pbw import (PBWError, Reducer, character, enumerate_basis, inversions,
                  is_normally_ordered)
from .scalars import LinearSystem, Scalar, ScalarError, nullspace, scalar_field
from .verify import Report, run_all

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "AnsatzError", "CalculusError", "Engine",
    "GeneratorDecl", "LPoly", "LinearSystem", "PBWError", "ParseError",
    "Presentation", "RGen", "Reducer", "Report", "Scalar", "ScalarError",
    "TPoly", "apply_T", "character", "enumerate_basis", "extract_system",
    "inversions", "is_normally_ordered", "load_bundled", "nullspace",
    "parse_expression", "parse_path", "parse_scalar", "parse_source",
    "render_lpoly", "render_presentation", "render_tmono", "render_tpoly",
    "run_all", "scalar_field", "solve", "solve_and_substitute",
]
