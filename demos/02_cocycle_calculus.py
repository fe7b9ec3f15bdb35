"""The bilinear-cocycle toolbox: evaluation, inverses, axioms, transport.

Everything runs over exact rationals.  The star exhibit is the built-in
U(4) example whose cocycle is constructed three ways -- as an ambient
exponential, as a pullback along a coalgebra surjection, and as the
catalog's constraint-solved table -- with the generator-pair values
agreeing on the nose.
"""

from unitwist import catalog
from unitwist.cli import build_context
from unitwist.cocycle import (ExponentialCocycle, PullbackCocycle, cybe_check,
                              verify_cocycle_identity)
from unitwist.poly import parse_poly

ex5 = catalog.get("u4-ex5").load()
g5 = ex5.presentation
J5 = build_context(ex5).right
F12, F34, F13 = (g5.ring.var(n) for n in ("F12", "F34", "F13"))
print("J(F12,F34) =", J5.eval(F12, F34), "   J(F34,F12) =", J5.eval(F34, F12))
print("identity verdict:", verify_cocycle_identity(J5, 4))

lie = g5.lie_data()
print("CYBE for the support r-matrix:", cybe_check(lie, ex5.rmatrix))

# the nonabelian example: CYBE still holds, the naive exponential is not a
# cocycle, and the catalog upgrades it to a solved table
ex6 = catalog.get("u4-ex6").load()
g6 = ex6.presentation
raw = ExponentialCocycle(g6, ex6.rmatrix)
print("\nnonabelian support:")
print("  CYBE:", cybe_check(g6.lie_data(), ex6.rmatrix))
print("  raw exponential:", verify_cocycle_identity(raw, 3))
print("  corrected table:", verify_cocycle_identity(build_context(ex6).right, 3))

# pullback along the restriction to the embedded four-dimensional subgroup
ex6_expected = catalog.get("u4-ex6").expected
target = catalog.get(ex6_expected["pullback_target"]).load()
images = {k: parse_poly(v, target.presentation.ring)
          for k, v in ex6_expected["pullback_images"].items()}
pulled = PullbackCocycle(g6, build_context(target).right, images)
F14, F23 = g6.ring.var("F14"), g6.ring.var("F23")
print("  pullback value J(F14,F23) =", pulled.eval(F14, F23))
