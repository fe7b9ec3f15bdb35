"""Deformed multiplication, commutator presentations, R-forms.

A `TwistedContext` carries a group presentation together with a left
cocycle K and a right cocycle J; its product is

    a . b  =  sum K^{-1}(a1,b1) a2 b2 J(a3,b3),

returned through the commutative representative of the shared underlying
vector space.  The two-sided case K = J is the Hopf-algebra deformation;
one-sided and mixed contexts (K = eps.eps, or K = J^g) are first class
because coset-stratum isomorphism checks need them.

Generator commutators are computed twice, through the deformed product
and through the closed-form expansion in the q-tensors, and the two
routes are compared exactly before a presentation is returned.
"""

from __future__ import annotations

from .cocycle import Convolution, CounitPair
from .poly import Poly, render_poly


class TwistConsistencyError(AssertionError):
    """A cross-checked identity failed; the cocycle data is not valid."""


class TwistedContext:
    def __init__(self, pres, left, right):
        self.pres = pres
        self.left = left
        self.right = right
        self.left_inv = left.cached_inverse()
        self.right_inv = right.cached_inverse()
        self.two_sided = left is right
        self._mul_cache = {}
        self._right_products = {}

    @classmethod
    def hopf(cls, pres, j):
        """The two-sided context; the result is again a Hopf algebra."""
        return cls(pres, j, j)

    @classmethod
    def one_sided_right(cls, pres, j):
        return cls(pres, CounitPair(pres), j)

    # -- products ----------------------------------------------------------
    def _right_product(self, x, y):
        """The one-sided product x ._J y = sum x1 y1 J(x2,y2), memoized."""
        hit = self._right_products.get((x, y))
        if hit is None:
            hit = self._right_products[(x, y)] = self.pres.contract(x, y, None, self.right.pair)
        return hit

    def mul_monomials(self, m1, m2):
        """Product of two parameter-free monomials, as a Poly.

        a . b = sum K^{-1}(a1,b1) (a2 ._J b2): the (id (x) Delta) Delta terms
        of the defining sum, with the inner sums shared between products.
        """
        key = (m1, m2)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._mul_cache[key] = Poly(self.pres.ring, self.pres.contract(
                m1, m2, self.left_inv.pair, self._right_product))
        return hit

    def mul(self, f, g):
        out = self.pres.ring.zero
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                out = out + self.mul_monomials(m1.gen_part, m2.gen_part) \
                    * m1.param_part.mul(m2.param_part).as_poly() * (c1 * c2)
        return out

    def commutator(self, f, g):
        return self.mul(f, g) - self.mul(g, f)

    # -- closed forms on generator pairs ------------------------------------
    def _q_terms(self, gen):
        q = self.pres.q.get(gen)
        return list(q.terms.items()) if q is not None else []

    def _q_expanded(self, gen):
        """(id (x) Delta) q(X) as monomial triples with coefficients."""
        out = []
        for (m1, m2), c in self._q_terms(gen):
            for (n1, n2), c2 in self.pres.coproduct_monomial(m2).terms.items():
                out.append(((m1, n1, n2), c * c2))
        return out

    def generator_product_formula(self, gi, gj):
        """Closed-form Xi . Xj for the two-sided context."""
        if not self.two_sided:
            raise ValueError("closed form applies to the two-sided context")
        pres = self.pres
        ring = pres.ring
        j = self.right
        jinv = self.right_inv
        xi = ring.var(gi)
        xj = ring.var(gj)
        total = xi * xj
        for (m1, m2), c in self._q_terms(gj):
            total = total + jinv.eval(xi, m1.as_poly()) * m2.as_poly() * c
            total = total + m1.as_poly() * j.eval(xi, m2.as_poly()) * c
        for (m1, m2), c in self._q_terms(gi):
            total = total + m1.as_poly() * j.eval(m2.as_poly(), xj) * c
            total = total + jinv.eval(m1.as_poly(), xj) * m2.as_poly() * c
        for (m1, m2), c in self._q_terms(gi):
            for (n1, n2), c2 in self._q_terms(gj):
                total = total + m1.as_poly() * n1.as_poly() * j.eval(m2.as_poly(), n2.as_poly()) * (c * c2)
        for (a1, a21, a22), c in self._q_expanded(gi):
            for (b1, b21, b22), c2 in self._q_expanded(gj):
                if a21.is_one and b21.is_one:
                    continue
                head = jinv.eval(a1.as_poly(), b1.as_poly())
                if head.is_zero():
                    continue
                tail = j.eval(a22.as_poly(), b22.as_poly())
                if tail.is_zero():
                    continue
                total = total + head * tail * a21.mul(b21).as_poly() * (c * c2)
        return total

    def generator_commutator_formula(self, gi, gj):
        """Closed-form [Xi, Xj] via Q = J - J21 and Qbar = J^{-1} - (J^{-1})21."""
        if not self.two_sided:
            raise ValueError("closed form applies to the two-sided context")
        pres = self.pres
        ring = pres.ring
        j = self.right
        jinv = self.right_inv

        def q_form(f, g):
            return j.eval(f, g) - j.eval(g, f)

        def qbar_form(f, g):
            return jinv.eval(f, g) - jinv.eval(g, f)

        xi = ring.var(gi)
        xj = ring.var(gj)
        total = ring.zero
        for (m1, m2), c in self._q_terms(gi):
            total = total + m1.as_poly() * q_form(m2.as_poly(), xj) * c
            total = total + m2.as_poly() * qbar_form(m1.as_poly(), xj) * c
        for (m1, m2), c in self._q_terms(gj):
            total = total + m1.as_poly() * q_form(xi, m2.as_poly()) * c
            total = total + m2.as_poly() * qbar_form(xi, m1.as_poly()) * c
        for (m1, m2), c in self._q_terms(gi):
            for (n1, n2), c2 in self._q_terms(gj):
                total = total + m1.as_poly() * n1.as_poly() * q_form(m2.as_poly(), n2.as_poly()) * (c * c2)
        for (a1, a21, a22), c in self._q_expanded(gi):
            for (b1, b21, b22), c2 in self._q_expanded(gj):
                if a21.is_one and b21.is_one:
                    continue
                coef = (jinv.eval(a1.as_poly(), b1.as_poly()) * j.eval(a22.as_poly(), b22.as_poly())
                        - jinv.eval(b1.as_poly(), a1.as_poly()) * j.eval(b22.as_poly(), a22.as_poly()))
                if coef.is_zero():
                    continue
                total = total + coef * a21.mul(b21).as_poly() * (c * c2)
        return total

    def pairing_identity_defect(self, gi, gj):
        """J(Xi,Xj) + J^{-1}(Xi,Xj) + sum J(x^i_1,x^j_1) J^{-1}(x^i_2,x^j_2)."""
        ring = self.pres.ring
        xi = ring.var(gi)
        xj = ring.var(gj)
        total = self.right.eval(xi, xj) + self.right_inv.eval(xi, xj)
        for (m1, m2), c in self._q_terms(gi):
            for (n1, n2), c2 in self._q_terms(gj):
                total = total + self.right.eval(m1.as_poly(), n1.as_poly()) \
                    * self.right_inv.eval(m2.as_poly(), n2.as_poly()) * (c * c2)
        return total


class TwistedPresentation:
    """Pairwise generator commutators [Xi, Xj] = f_ij (i > j in chain order)."""

    def __init__(self, pres, relations):
        self.pres = pres
        self.relations = dict(relations)
        self.chain_degrees = {k: f.max_generator_index()
                              for k, f in self.relations.items() if not f.is_zero()}

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
        out = []
        gens = self.pres.ring.generators
        for i, gi in enumerate(gens):
            for j in range(i):
                f = self.relations[(gi, gens[j])]
                if not f.is_zero():
                    out.append((gi, gens[j], f))
        return out

    def lines(self):
        return ["[%s,%s] = %s" % (a, b, render_poly(f)) for a, b, f in self.nonzero()]

    def is_commutative(self):
        return not self.nonzero()


def pairwise_commutators(ctx):
    """All generator commutators of the context, without Hopf-chain checks."""
    gens = ctx.pres.ring.generators
    rel = {}
    for i, gi in enumerate(gens):
        xi = ctx.pres.ring.var(gi)
        for j in range(i):
            xj = ctx.pres.ring.var(gens[j])
            rel[(gi, gens[j])] = ctx.commutator(xi, xj)
    return TwistedPresentation(ctx.pres, rel)


def ihoe_presentation(ctx):
    """The derivation-type Ore presentation of the two-sided deformation.

    Cross-checks the direct commutators against the closed-form expansion,
    verifies the pairing identity on every generator pair, checks that each
    f_ij only involves generators strictly below max(i,j) with zero constant
    term, and that primitive generators commute.  Any failure raises
    TwistConsistencyError: it indicates invalid cocycle data.
    """
    if not ctx.two_sided:
        raise ValueError("ihoe presentation requires the two-sided context")
    pres = ctx.pres
    gens = pres.ring.generators
    rel = {}
    for i, gi in enumerate(gens):
        xi = pres.ring.var(gi)
        for j in range(i):
            gj = gens[j]
            xj = pres.ring.var(gj)
            direct = ctx.commutator(xi, xj)
            closed = ctx.generator_commutator_formula(gi, gj)
            if direct != closed:
                raise TwistConsistencyError(
                    "commutator routes disagree on [%s,%s]: %s vs %s"
                    % (gi, gj, render_poly(direct), render_poly(closed)))
            prod_direct = ctx.mul(xi, xj)
            prod_closed = ctx.generator_product_formula(gi, gj)
            if prod_direct != prod_closed:
                raise TwistConsistencyError(
                    "product routes disagree on %s.%s" % (gi, gj))
            if not ctx.pairing_identity_defect(gi, gj).is_zero():
                raise TwistConsistencyError(
                    "pairing identity fails on (%s,%s)" % (gi, gj))
            if direct.counit() != 0 or not direct.constant_term().is_zero():
                raise TwistConsistencyError(
                    "[%s,%s] has a constant term" % (gi, gj))
            if direct.max_generator_index() >= max(pres.gen_index(gi), pres.gen_index(gj)):
                raise TwistConsistencyError(
                    "[%s,%s] leaves the lower chain subalgebra" % (gi, gj))
            rel[(gi, gj)] = direct
    primitives = [g for g in gens if g not in pres.q]
    for a in primitives:
        for b in primitives:
            if pres.gen_index(a) > pres.gen_index(b) and not rel[(a, b)].is_zero():
                raise TwistConsistencyError("primitive generators %s,%s fail to commute" % (a, b))
    return TwistedPresentation(pres, rel)


# -- R-form ------------------------------------------------------------------

class RForm:
    """R^J = (J21)^{-1} * J, the cotriangular form of the deformation."""

    def __init__(self, ctx):
        if not ctx.two_sided:
            raise ValueError("the R-form belongs to the two-sided context")
        self.ctx = ctx
        self.pres = ctx.pres
        self._ev = Convolution(ctx.right_inv.swap(), ctx.right)

    def eval(self, f, g):
        return self._ev.eval(f, g)

    def scalar(self, f, g):
        return self._ev.scalar(f, g)

    def evaluator(self):
        return self._ev


class RFormReport:
    def __init__(self, ok, bound, failures):
        self.ok = ok
        self.bound = bound
        self.failures = failures

    def lines(self):
        if self.ok:
            return ["r-form axioms PASS at bound %d" % self.bound]
        return ["r-form axioms FAIL at bound %d: %s" % (self.bound, f) for f in self.failures]


def rform_axiom_check(r, degree_bound):
    """Definition-level checks of the R-form on monomials within bound.

    (1) the two convolution-splitting identities, with the products taken in
        the deformed algebra;
    (2) R(h1,g1) h2.g2 = g1.h1 R(h2,g2) with deformed products on both sides;
    (3) cotriangularity: R * R21 = eps.eps.
    """
    ctx = r.ctx
    pres = ctx.pres
    ring = pres.ring
    mons = ring.monomials_up_to(degree_bound, include_one=False)
    failures = []

    def poly_pairs(m):
        return pres.coproduct_monomial(m).terms.items()

    ev = r.evaluator()

    def swapped(x, y):
        return ev.pair(y, x)

    for h in mons:
        for g in mons:
            if h.degree + g.degree > degree_bound:
                continue
            # (3) cotriangularity
            if pres.contract(h, g, ev.pair, swapped):
                failures.append(("cotriangular", h, g))
            # (2) commutation identity
            lhs = ring.zero
            rhs = ring.zero
            for (h1, h2), c1 in poly_pairs(h):
                for (g1, g2), c2 in poly_pairs(g):
                    v = r.eval(h1.as_poly(), g1.as_poly())
                    if not v.is_zero():
                        lhs = lhs + v * ctx.mul(h2.as_poly(), g2.as_poly()) * (c1 * c2)
                    v = r.eval(h2.as_poly(), g2.as_poly())
                    if not v.is_zero():
                        rhs = rhs + ctx.mul(g1.as_poly(), h1.as_poly()) * v * (c1 * c2)
            if lhs != rhs:
                failures.append(("commutation", h, g))

    by_degree = {}
    for m in mons:
        by_degree.setdefault(m.degree, []).append(m)
    degs = sorted(by_degree)
    for dh in degs:
        for dl in degs:
            for dg in degs:
                if dh + dl + dg > degree_bound:
                    continue
                for h in by_degree[dh]:
                    for l in by_degree[dl]:
                        for g in by_degree[dg]:
                            lg = ctx.mul(l.as_poly(), g.as_poly())
                            lhs = r.eval(h.as_poly(), lg)
                            rhs = ring.zero
                            for (h1, h2), c in poly_pairs(h):
                                v1 = r.eval(h1.as_poly(), g.as_poly())
                                if v1.is_zero():
                                    continue
                                v2 = r.eval(h2.as_poly(), l.as_poly())
                                if v2.is_zero():
                                    continue
                                rhs = rhs + v1 * v2 * c
                            if lhs != rhs:
                                failures.append(("split-right", h, l, g))
                            gh = ctx.mul(g.as_poly(), h.as_poly())
                            lhs = r.eval(gh, l.as_poly())
                            rhs = ring.zero
                            for (l1, l2), c in poly_pairs(l):
                                v1 = r.eval(g.as_poly(), l1.as_poly())
                                if v1.is_zero():
                                    continue
                                v2 = r.eval(h.as_poly(), l2.as_poly())
                                if v2.is_zero():
                                    continue
                                rhs = rhs + v1 * v2 * c
                            if lhs != rhs:
                                failures.append(("split-left", h, l, g))

    return RFormReport(not failures, degree_bound, failures)


# -- twisted antipode ---------------------------------------------------------

def twisted_antipode(ctx, f):
    """S^J(a) = sum J^{-1}(a1, S(a2)) S(a3) J(S(a4), a5)."""
    if not ctx.two_sided:
        raise ValueError("the twisted antipode belongs to the two-sided context")
    pres = ctx.pres
    ring = pres.ring
    out = ring.zero
    for m, c in f.terms.items():
        for (a1, a2, a3, a4, a5), c2 in pres.iterated_coproduct_monomial(m.gen_part, 4).terms.items():
            head = ctx.right_inv.eval(a1.as_poly(), pres.antipode_monomial(a2))
            if head.is_zero():
                continue
            tail = ctx.right.eval(pres.antipode_monomial(a4), a5.as_poly())
            if tail.is_zero():
                continue
            out = out + head * tail * pres.antipode_monomial(a3) * (c * c2) * m.param_part.as_poly()
    return out


# -- Psi functionals ------------------------------------------------------------

class PsiFunctional:
    """The functional R^J(-, a) tabulated on monomials up to a bound."""

    def __init__(self, rform, source, bound):
        self.rform = rform
        self.source = source
        self.bound = bound
        ring = rform.pres.ring
        self.table = {}
        for m in ring.monomials_up_to(bound):
            v = rform.eval(m.as_poly(), source)
            if not v.is_zero():
                self.table[m] = v

    def value(self, m):
        return self.table.get(m, self.rform.pres.ring.zero)

    def vanishing_degree(self):
        """Least N <= bound+1 with the table zero on all monomials of degree >= N."""
        top = 0
        for m in self.table:
            top = max(top, m.degree)
        return top + 1

    def convolve(self, other):
        """Table of Psi(a) * Psi(b) up to the shared bound (for cross-checks)."""
        pres = self.rform.pres
        bound = min(self.bound, other.bound)
        out = {}
        for m in pres.ring.monomials_up_to(bound):
            acc = pres.ring.zero
            for (m1, m2), c in pres.coproduct_monomial(m).terms.items():
                v1 = self.value(m1.gen_part)
                if v1.is_zero():
                    continue
                v2 = other.value(m2.gen_part)
                if v2.is_zero():
                    continue
                acc = acc + v1 * v2 * c
            if not acc.is_zero():
                out[m] = acc
        return out
