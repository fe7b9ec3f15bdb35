"""From a group presentation to the deformed commutator relations.

The four-dimensional group with coproducts

    Delta(V) = V (x) 1 + 1 (x) V + X (x) Y
    Delta(W) = W (x) 1 + 1 (x) W + V (x) Y + 1/2 X (x) Y^2

carries a family of deformations indexed by antisymmetric r-matrices on
the dual tangent basis.  This script builds two of them and prints the
resulting commutator presentations: the first leaves a polynomial
identity-component behind a central Y, the second is a full enveloping
algebra in disguise.
"""

from fractions import Fraction

from unitwist import (ExponentialCocycle, GroupPresentation, RMatrix,
                      TensorPoly, TwistedContext, ihoe_presentation,
                      render_poly)


def jordan4():
    g = GroupPresentation("jordan4", ["X", "Y", "V", "W"])
    X, Y, V = g.ring.var("X"), g.ring.var("Y"), g.ring.var("V")
    g.set_q("V", TensorPoly.from_polys([X, Y]))
    g.set_q("W", TensorPoly.from_polys([V, Y])
            + TensorPoly.from_polys([X, Y * Y]).scale(Fraction(1, 2)))
    return g


def show(title, ctx):
    print("== %s" % title)
    pres = ihoe_presentation(ctx)
    for line in pres.lines() or ["(commutative)"]:
        print("   " + line)
    print()


g = jordan4()
print(g.validate().lines(), "\n")

# support on the abelian {X, V} plane
ctx_abelian = TwistedContext.hopf(g, ExponentialCocycle(g, RMatrix(4, {(0, 2): 1})))
W, X, V, Y = (g.ring.var(n) for n in "WXVY")
print("deformed products:  W.X =", render_poly(ctx_abelian.mul(W, X)))
print("                    W.V =", render_poly(ctx_abelian.mul(W, V)))
show("abelian support", ctx_abelian)

# the minimal (nondegenerate) deformation of the same group
ctx_min = TwistedContext.hopf(g, ExponentialCocycle(g, RMatrix(4, {(0, 2): 1, (3, 1): 1})))
show("minimal deformation", ctx_min)

# after the change of variable X' = X + Y^2/2 the minimal relations become
# the defining relations of the group's own Lie algebra
xprime = X + Y * Y * Fraction(1, 2)
print("[W, X'] =", render_poly(ctx_min.commutator(W, xprime)))
print("[W, V]  =", render_poly(ctx_min.commutator(W, V)),
      " (equals X')")
