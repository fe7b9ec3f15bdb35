"""Double-coset strata and the group of 1-dimensional modules.

For the deformed U(4) coordinate ring the simple modules organize along
double cosets of the support subgroup.  This script walks the three
stratum families of the first U(4) example -- a polynomial-times-Weyl
stratum, a genuinely Weyl one with a polycentral ideal, and the
normalizing case -- then computes the module group three independent
ways: from the commutator ideal, as a coset-variety ideal, and as the
fixed locus of the cocycle under symbolic conjugation.
"""

from unitwist import catalog
from unitwist.cli import build_context, run_c0
from unitwist.poly import parse_poly
from unitwist.strata import (commutator_ideal_and_gamma, polycentral_check,
                             stratum_presentation, subgroup_F)
from unitwist.twist import ihoe_presentation

ex5 = catalog.get("u4-ex5").load()
g = ex5.presentation
ctx = build_context(ex5)
T = g.named_subgroups["T"]

for name in ("caseI1", "caseI2", "caseII"):
    stratum = stratum_presentation(g, ctx, T, g.named_points[name], name)
    print("\n".join(stratum.lines()))
    print()

seq = [parse_poly("F23 - a", g.ring), parse_poly("F13*F24 - a*F14", g.ring)]
print("polycentral in the stated order:", polycentral_check(seq, ctx))
print("polycentral reversed:           ", polycentral_check(list(reversed(seq)), ctx))

# the strata above already filled the context's commutator table; check it
# against the closed forms before reading the commutator ideal off it
ihoe_presentation(ctx)
gamma = commutator_ideal_and_gamma(ctx)
print("\n".join(gamma.lines()))

c0 = run_c0(ex5, 4)
print(c0.describe())

# the subgroup F of modules of the restricted deformation: kernel of the
# cobracket x -> [x (x) 1 + 1 (x) x, r]
data, kernel = subgroup_F(g.lie_data(), T.tangent_vectors(), ex5.rmatrix)
print("dim ker(cobracket) =", len(kernel), " (= dim of the abelianized support)")
