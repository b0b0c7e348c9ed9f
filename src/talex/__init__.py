"""talex: twisted Alexander polynomials of knots from group presentations.

The package computes the classical and twisted Alexander polynomials of a
knot from a deficiency-one presentation of its group (entered directly or
derived from a planar diagram code), evaluates the fiberedness (monic) and
genus (degree) obstructions carried by SL(2,C) representations, computes
Levine-Tristram signature functions from Seifert matrices, and carries
the two irreducible character curves of the (-3,-3,-3) pretzel knot as
exact term tables, with the census of monic characters on them.
"""

from .errors import (AlgebraError, CertificationError, NonPolynomialError,
                     ParseError, RootFindingError, SolveError, TalexError)
from .words import FreeWord, fox_derivative, fundamental_identity_holds
from .presentations import (Presentation, parse_pd, parse_presentation,
                            pd_to_wirtinger, simplify)
from .laurent import (LaurentPoly, LaurentRational, has_simple_root,
                      squarefree_decomposition)
from .multipoly import MultiPoly, exact_divide, resultant, sylvester_matrix
from .matrix import SquareMatrix, det
from .roots import complex_roots, unit_circle_roots
from .representations import (Representation, abelian_rep,
                              burde_derham_check, closed_form_representation,
                              parse_constraints, reducible_formula,
                              representation_from_traces,
                              satellite_alexander, solve_representation)
from .twisted import (TwistedAlex, alexander, coefficient_profile,
                      determines_genus, fox_matrix_laurent,
                      genus_lower_bound, make_twisted, normalized_close,
                      wada_invariant)
from .signature import (SeifertMatrix, averaged_signature,
                        is_identically_zero, lt_signature,
                        lt_signature_detail, signature_jumps)
from .charcurves import (CensusResult, PlaneCurve, Psi2Certificate, census,
                         certify_psi2, curve_components,
                         monic_witness_report, pretzel935_presentation,
                         psi2_polynomial, solve_on_curve)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
