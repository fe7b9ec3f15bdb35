"""Deformed multiplication, commutator presentations, R-forms.

A `TwistedContext` carries a group presentation together with a left
cocycle K and a right cocycle J; its product is

    a . b  =  sum K^{-1}(a1,b1) a2 b2 J(a3,b3),

returned through the commutative representative of the shared underlying
vector space.  The two-sided case K = J is the Hopf-algebra deformation;
one-sided and mixed contexts (K = eps.eps, or K = J^g) are first class
because coset-stratum isomorphism checks need them.

The product is computed from K itself, never from K^{-1}.  Since
K * K^{-1} = eps.eps, coassociativity gives

    sum K(a1,b1) (a2 . b2)  =  a ._J b  =  sum a1 b1 J(a2,b2),

the one-sided product.  On monomials K(a1,b1) is 1 when a1 and b1 are both
1, and 0 when exactly one of them is, so the (1,1) term is a . b itself:

    a . b  =  a ._J b  -  sum_{a1 != 1} K(a1,b1) (a2 . b2).

Each a2 beside an a1 != 1 has strictly lower coradical degree than a, so
the recursion ends; it is the argument that makes `NeumannInverse` end.
Where K and J have supports (see the cocycle module), each sum reads only
the terms with (w(a1), w(b1)) in K's support or (w(a2), w(b2)) in J's.

Generator products are computed twice, through the deformed product and
through the definition summed over Delta^2 of both generators from `pair`
values alone, and compared exactly in both orders of each pair (so the
commutators agree too) before a presentation is returned.
"""

from __future__ import annotations

from .cocycle import Convolution, WeightIndex, verify_cocycle_identity
from .poly import ZERO, Poly, accumulate, render_poly, settle


class TwistConsistencyError(AssertionError):
    """A cross-checked identity failed; the cocycle data is not valid."""


class TwistedContext:
    def __init__(self, pres, left, right):
        self.pres = pres
        self.left = left
        self.right = right
        self.right_inv = right.inverse()
        self.two_sided = left is right
        self._mul_cache = {}
        self._antipode_halves = ({}, {})  # u and v of `twisted_antipode`, by monomial
        self._commutators = None
        self._rform = None
        self._gamma = None  # strata.commutator_ideal_and_gamma's report

    @classmethod
    def hopf(cls, pres, j):
        """The two-sided context; the result is again a Hopf algebra."""
        return cls(pres, j, j)

    # -- products ----------------------------------------------------------
    def _minus_left_reduced(self, a, b):
        # -K(a,b) without its (1,1) term; `pair` is already 0 when exactly
        # one argument is 1
        return ZERO if a.is_one else -self.left.pair(a, b)

    def mul_monomials(self, m1, m2):
        """Product of two parameter-free monomials, as a Poly, from K alone.

        sum K(a1,b1) (a2 . b2) = a ._J b, and the only nonzero term with a 1
        in either slot is K(1,1) = 1, so a . b = a ._J b - sum_{a1 != 1}
        K(a1,b1) (a2 . b2): one contraction of -K against the products,
        started from a ._J b.  Each such a2 has strictly lower coradical
        degree than a, so the recursion ends.  Both products are memoized,
        the one-sided one on J as `right_product`.
        """
        key = (m1, m2)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._mul_cache[key] = Poly(self.pres.ring, self.pres.contract(
                m1, m2, self._minus_left_reduced, lambda a, b: self.mul_monomials(a, b).terms,
                self.left.support_within(m1.degree + m2.degree), self.right.right_product(m1, m2)))
        return hit

    def mul(self, f, g):
        return self.pres.ring.bilinear(f, g, lambda a, b: self.mul_monomials(a, b).terms)

    def commutator(self, f, g):
        return self.mul(f, g) - self.mul(g, f)

    def commutators(self):
        """All generator commutators [Xi, Xj] (i > j), computed once per context.

        No Hopf-chain checks; `ihoe_presentation` runs them on this table.
        """
        if self._commutators is None:
            ring = self.pres.ring
            gens = ring.generators
            self._commutators = TwistedPresentation(self.pres, {
                (gi, gj): self.commutator(ring.var(gi), ring.var(gj))
                for i, gi in enumerate(gens) for gj in gens[:i]})
        return self._commutators

    # -- closed forms on generator pairs ------------------------------------
    def generator_product_formula(self, gi, gj):
        """Closed-form Xi . Xj for the two-sided context, from the definition.

        sum J^{-1}(a1,b1) a2 b2 J(a3,b3) over the terms of Delta^2(Xi) and
        Delta^2(Xj), read from `pair` values alone.  It never calls
        `right_product` or `mul_monomials`: with K = J the direct route is
        J^{-1} applied to the one-sided product, so a closed form built on
        that product would agree with a wrong one.
        """
        if not self.two_sided:
            raise ValueError("closed form applies to the two-sided context")
        pres = self.pres
        j = self.right.pair
        jinv = self.right_inv.pair
        di, dj = (pres.iterated_coproduct_monomial(pres.ring.var_monomial(g), 2).terms.items()
                  for g in (gi, gj))
        out = {}
        for (a1, a2, a3), c1 in di:
            for (b1, b2, b3), c2 in dj:
                head = jinv(a1, b1)
                if head:
                    tail = j(a3, b3)
                    if tail:
                        k = a2.mul(b2)
                        out[k] = out.get(k, ZERO) + head * tail * c1 * c2
        return Poly(pres.ring, out)

    def pairing_identity_defect(self, gi, gj):
        """(J * J^{-1})(Xi, Xj), which is eps(Xi) eps(Xj) = 0 for a valid inverse."""
        ring = self.pres.ring
        return Poly(ring, self.pres.contract(ring.var_monomial(gi), ring.var_monomial(gj),
                                             self.right.pair, self.right_inv.pair))

    def rform(self):
        """R^J = (J21)^{-1} * J, the cotriangular form of the deformation, built once."""
        if not self.two_sided:
            raise ValueError("the R-form belongs to the two-sided context")
        if self._rform is None:
            self._rform = Convolution(self.right_inv.swap(), self.right)
        return self._rform


class TwistedPresentation:
    """Pairwise generator commutators [Xi, Xj] = f_ij (i > j in chain order)."""

    def __init__(self, pres, relations):
        self.pres = pres
        self.relations = dict(relations)

    def relation(self, gi, gj):
        """f with [Xi, Xj] = f, for any order of the two generators."""
        i = self.pres.gen_index(gi)
        j = self.pres.gen_index(gj)
        if i == j:
            return self.pres.ring.zero
        if i > j:
            return self.relations[(gi, gj)]
        return -self.relations[(gj, gi)]

    def nonzero(self):
        gens = self.pres.ring.generators
        return [(gi, gj, f) for i, gi in enumerate(gens) for gj in gens[:i]
                if not (f := self.relations[(gi, gj)]).is_zero()]

    def lines(self):
        return ["[%s,%s] = %s" % (a, b, render_poly(f)) for a, b, f in self.nonzero()]


def ihoe_presentation(ctx):
    """The derivation-type Ore presentation of the two-sided deformation.

    Cross-checks each generator product, in both orders, against the Delta^2
    closed form, verifies the pairing identity on every generator pair,
    checks that each f_ij only involves generators strictly below max(i,j)
    with zero constant term, and that primitive generators commute.  Any
    failure raises TwistConsistencyError: it indicates invalid cocycle data.
    The checked table is the context's own `commutators()`.
    """
    if not ctx.two_sided:
        raise ValueError("ihoe presentation requires the two-sided context")
    pres = ctx.pres
    table = ctx.commutators()
    rel = table.relations
    for (gi, gj), direct in rel.items():
        for a, b in ((gi, gj), (gj, gi)):
            if ctx.mul(pres.ring.var(a), pres.ring.var(b)) != ctx.generator_product_formula(a, b):
                raise TwistConsistencyError("product routes disagree on %s.%s" % (a, b))
        if not ctx.pairing_identity_defect(gi, gj).is_zero():
            raise TwistConsistencyError(
                "pairing identity fails on (%s,%s)" % (gi, gj))
        if direct.counit() != 0 or not direct.constant_term().is_zero():
            raise TwistConsistencyError(
                "[%s,%s] has a constant term" % (gi, gj))
        if direct.max_generator_index() >= max(pres.gen_index(gi), pres.gen_index(gj)):
            raise TwistConsistencyError(
                "[%s,%s] leaves the lower chain subalgebra" % (gi, gj))
    primitives = [g for g in pres.ring.generators if g not in pres.q]
    for a in primitives:
        for b in primitives:
            if pres.gen_index(a) > pres.gen_index(b) and not rel[(a, b)].is_zero():
                raise TwistConsistencyError("primitive generators %s,%s fail to commute" % (a, b))
    return table


# -- R-form ------------------------------------------------------------------

class RFormReport:
    def __init__(self, ok, bound, failures, from_generators=False):
        self.ok = ok
        self.bound = bound
        self.failures = failures
        # identity (2) was certified from generator pairs, not checked per pair
        self.from_generators = from_generators

    def lines(self):
        if self.ok:
            return ["r-form axioms PASS at bound %d" % self.bound]
        return ["r-form axioms FAIL at bound %d: %s" % (self.bound, f) for f in self.failures]


def rform_axiom_check(ctx, degree_bound):
    """Definition-level checks of the R-form of `ctx` on monomials within bound.

    (1) the two convolution-splitting identities, with the products taken in
        the deformed algebra: R(h, l.g) = sum R(h1,g) R(h2,l) (split-right)
        and R(g.h, l) = sum R(g,l1) R(h,l2) (split-left);
    (2) R(h1,g1) h2.g2 = g1.h1 R(h2,g2) with deformed products on both sides;
    (3) cotriangularity: R * R21 = eps.eps.

    The monomials and the triples of (1) come from the one walk,
    `WeightIndex(rform, degree_bound)`, over the sum monoid M of R's
    support, which holds J's and J^{-1}'s (with no support that covers the
    bound, every triple).  R * R21 (h, g) is 0 unless w(h) + w(g) lies in M,
    so (3) is read on the partners of each h (`WeightIndex.partners`).
    The keys of l.g have weight w(l) + w(g) less a point of M, and
    w(h1) + w(h2) = w(h), so both sides of R(h, l.g) = sum R(h1,g) R(h2,l),
    and of its mirror, are 0 unless w(h) + w(l) + w(g) lies in M.

    Identity (2) from generator pairs.  Let C(h, g) be (2)'s left side less
    its right side, bilinear and 0 when h or g is 1.  Theorem: C = 0 on
    every pair with deg h + deg g <= d, the bound, once C = 0 on the n^2
    generator pairs and
      (a) R's support covers the bound (`support_within`) and
          `pres.leg_degree` is at most 1, so no leg of Delta(m) outgrows m
          and every leg, pair and triple read below lies within the bound;
      (b) no nonconstant monomial within the bound has weight 0;
      (c) R(m, 1) = R(1, m) = eps(m), which `Cocycle.pair` answers itself;
      (d) J passes `verify_cocycle_identity` at the bound, so the deformed
          product is associative on triples within it;
      (e) every split triple of the walk passes, so (1) holds within it.
    Proof, by induction on (deg h + deg g, height w(h), height w(g)) in
    lexicographic order (`WeightGrading.height`), well founded on the
    finitely many pairs within the bound.  Delta is an algebra map for the
    deformed product, so split-left and (d) give C(a.b, y) = 0 from C = 0
    on (a, y') and (b, y'), y' the legs of y; split-right gives C(x, a.b)
    = 0 likewise.  If deg h >= 2, write h = X_i m: the deformed X_i.m is h
    plus terms c_n n of degree <= deg h, each from a value of J or J^{-1}
    on a pair of legs not both 1, whose weights lie in the support, by (b)
    not at (0, 0), so at a level >= 1: height w(n) <= height w(h) - step.
    Then C(h, g) = C(X_i.m, g) - sum c_n C(n, g), where C(X_i.m, g) reads
    pairs of lower total degree and each (n, g) is lower in the order.  If
    h is a generator and deg g >= 2, do the same in the second slot; the
    legs of a generator are 1 and generators.

    So when (a), (b), (d) and (e) hold, (2) is checked on the generator
    pairs and (3) on the partner pairs.  Otherwise, or if one of those
    fails, the per-pair loop checks every pair within the bound (the g
    paired with h are a prefix of `mons`, sorted by degree,
    `WeightIndex.upto`) and its failures lead, the split failures after
    them.  Without a covering support the loop runs first, so a bounded J
    that leaves its range raises the bound error it meets there.  (2)'s
    left side and (3) read R of the first legs and share one walk of R's
    support (`Support.term_pairs`), built once per pair; its right side
    reads the walk of the second legs.
    """
    pres = ctx.pres
    rform = ctx.rform()
    R = rform.pair
    index = WeightIndex(rform, degree_bound)
    mons = index.mons

    def delta(m):
        return pres.coproduct_monomial(m).terms.items()

    def swapped(x, y):
        return R(y, x)

    def products(x, y):
        return ctx.mul_monomials(x, y).terms

    def first_legs(h, g):
        return pres.term_groups(h, g, rform.support_within(h.degree + g.degree), True)

    def commutes(h, g, first):
        # (2) on (h, g); the scalar of the right side sits in the second
        # legs, so that side is summed here over their groups
        num, den = {}, {}
        for d1, d2 in pres.term_groups(h, g, rform.support_within(h.degree + g.degree), False):
            for (h1, h2), c1 in d1:
                for (g1, g2), c2 in d2:
                    v = R(h2, g2)
                    if v:
                        c = c1 * c2
                        n, d = v.numerator * c.numerator, v.denominator * c.denominator
                        for k, w in products(g1, h1).items():
                            accumulate(num, den, k, n * w.numerator, d * w.denominator)
        return pres.contract_groups(first, R, products) == settle(num, den)

    def split_failures():
        # (1) R(h, l.g) = sum R(h1,g) R(h2,l) and R(g.h, l) = sum R(g,l1) R(h,l2)
        out = []
        for x, y, z in index.triples():
            h, l, g = mons[x], mons[y], mons[z]
            if sum((c * R(h, k) for k, c in products(l, g).items()), ZERO) != \
                    sum((c * v * R(h2, l) for (h1, h2), c in delta(h) if (v := R(h1, g))), ZERO):
                out.append(("split-right", h, l, g))
            if sum((c * R(k, l) for k, c in products(g, h).items()), ZERO) != \
                    sum((c * v * R(h, l2) for (l1, l2), c in delta(l) if (v := R(g, l1))), ZERO):
                out.append(("split-left", h, l, g))
        return out

    split = None
    support = index.support
    if support is not None and pres.leg_degree <= 1 \
            and all(any(support.grading.weight(m)) for m in mons) \
            and verify_cocycle_identity(ctx.right, degree_bound).ok:
        split = split_failures()
        gens = mons[:index.upto(1)] if degree_bound > 1 else ()
        if not split and all(commutes(h, g, first_legs(h, g)) for h in gens for g in gens) \
                and not any(pres.contract_groups(first_legs(h, mons[y]), R, swapped)
                            for x, h in enumerate(mons)
                            for y in index.partners((x,), index.upto(degree_bound - h.degree))):
            return RFormReport(True, degree_bound, [], True)

    failures = []
    for x, h in enumerate(mons):
        end = index.upto(degree_bound - h.degree)
        near = set(index.partners((x,), end))
        for y, g in enumerate(mons[:end]):
            # (3) cotriangularity and (2)'s left side read R of the first legs
            first = first_legs(h, g)
            if y in near and pres.contract_groups(first, R, swapped):
                failures.append(("cotriangular", h, g))
            if not commutes(h, g, first):
                failures.append(("commutation", h, g))
    failures += split_failures() if split is None else split
    return RFormReport(not failures, degree_bound, failures)


# -- twisted antipode ---------------------------------------------------------

def twisted_antipode(ctx, f):
    """S^J(a) = sum J^{-1}(a1, S a2) S(a3) J(S a4, a5), summed over Delta^2(a).

    Coassociativity gives Delta^4 = (Delta (x) id (x) Delta) Delta^2, so the
    sum is the convolution of u, S and v over Delta^2(a), with
    u(x) = sum J^{-1}(x1, S x2) and v(z) = sum J(S z1, z2), each memoized on
    the context per monomial; v(z) is evaluated only where u(x) != 0.
    """
    if not ctx.two_sided:
        raise ValueError("the twisted antipode belongs to the two-sided context")
    pres = ctx.pres
    ring = pres.ring
    S = pres.antipode_monomial

    def half(memo, j, left):
        def value(x):
            val = memo.get(x)
            if val is None:
                val = memo[x] = ring.combination(
                    (j.eval(x1.as_poly(), S(x2)) if left else j.eval(S(x1), x2.as_poly()), c)
                    for (x1, x2), c in pres.coproduct_monomial(x).terms.items())
            return val
        return value

    u_memo, v_memo = ctx._antipode_halves
    return pres.convolve((half(u_memo, ctx.right_inv, True), S, half(v_memo, ctx.right, False)),
                         f, ring)
