"""Exact deformation calculus for coordinate rings of unipotent groups.

The package computes, over exact rational arithmetic, the two-sided
deformation of the coordinate ring of a unipotent algebraic group by a
bilinear 2-cocycle: its commutator presentation as an iterated Ore
extension, the cotriangular form, double-coset stratum algebras, the
abelianization and the group of 1-dimensional modules, plus the Groebner
machinery all of that rests on.
"""

from .poly import Monomial, Poly, PolyRing, TensorPoly, parse_poly, render_poly
from .hopf import GroupPresentation, LieAlgebraData, Point, SubgroupParam
from .cocycle import (Cocycle, CocycleBoundError, Convolution, CounitPair, ExponentialCocycle,
                      GaugeCocycle, PointFunctional, PullbackCocycle, RMatrix, TableCocycle,
                      cybe_check, verify_cocycle_identity)
from .twist import (TwistedContext, TwistedPresentation, ihoe_presentation, rform_axiom_check,
                    twisted_antipode)
from .groebner import (Ideal, TermOrder, buchberger, eliminate, krull_dimension,
                       normal_form)
from .strata import (CobracketData, GammaReport, Stratum, c0_solver,
                     commutator_ideal_and_gamma, conjugate_subgroup_ideal,
                     double_coset_ideal, fixed_locus_ideal, polycentral_check,
                     stabilizer_dimension, stratum_presentation, subgroup_F,
                     subgroup_ideal, verify_two_sided, weyl_detect)
from .groupfile import GroupData, GroupFileError, default_degree_bound, parse_group_file
from . import catalog

__all__ = [name for name in dir() if not name.startswith("_")]
