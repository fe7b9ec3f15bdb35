"""Bilinear 2-cocycles on a group presentation and their calculus.

A cocycle J is an evaluator on pairs of polynomials, bilinear over
Q[parameters], unital (J(f,1) = eps(f) = J(1,f)) and convolution
invertible.  Evaluators are built from:

  * the pair of counits (the trivial cocycle),
  * an antisymmetric r-matrix via the exponential recipe
        J(f,g) = sum_k (1/ (k! 2^k)) < r-words of length k, f (x) g >,
    where tangent functionals pair with functions through iterated
    coproducts,
  * pullback along a coalgebra-compatible algebra surjection,
  * a gauge transformation by an invertible functional; conjugation by a
    rational point g is the gauge by evaluation at g,
  * an explicit value table on monomial pairs up to a degree bound.

The exponential sum truncates at the coradical degree of its arguments
(not their polynomial degree: q-corrections let length-k words pair
nontrivially with low-degree functions).  Convolution inverses are exact:
the exponential kind negates its r-matrix, the other kinds use the
terminating geometric series of (eps (x) eps) - J.  Every sum over
Delta(a) x Delta(b) goes through `GroupPresentation.contract`.

Zeros known ahead of time.  Give each generator X_i an integer weight
vector w_i with w(m1) + w(m2) = w_i on every term m1 (x) m2 of q(X_i), and
say w(m) for the weight of a monomial.  Delta is then homogeneous, and so is
every word table: X_{u1} ... X_{uk} has a nonzero coefficient in the table
of m only if w_{u1} + ... + w_{uk} = w(m).  `WeightGrading.of` holds such
weights, solved from Delta alone, for one presentation and r-matrix.

The k-th term of exp(r/2) on a (x) b sums c(u) c'(v) r_{u1 v1} ... r_{uk vk}
over the words u of a's table and v of b's, and a product is nonzero only if
every r_{ui vi} is.  So it is 0 unless (w(a), w(b)) lies in S_k, the set of
sums of k letters (w_u, w_v) with r_uv != 0: the support of J on the
subgroup T whose Lie algebra the letters of r span, read on weights.  The
exponential evaluator reads only the lengths k whose S_k holds the pair.

Each evaluator kind has its `Support`: the monoid of its generators, a set
of weight pairs holding every pair where the evaluator can be nonzero.  J_r,
its inverse exp(-r/2) and its swap have M_r, the monoid of the letters, S_0
= {(0, 0)} included (J(1, 1) = 1); r is antisymmetric, so the letters come
in both orientations.  A corrected J = J_r + table adds each key's pair to
the generators, as T is closed under products.  The swap reverses every
pair.  (F * G)(a, b) sums F(a1, b1) G(a2, b2), so a convolution lies in the
monoid of both factors' generators, and the Neumann inverse, a sum of
convolution powers of J, in J's.  The pivot form, a linear map c with
c(w_a + w_b) = step > 0 on every letter, gives each pair its level
c(w(x) + w(y)) / step.

An evaluator's `support` is set only where this proof holds, a pivot form
exists and every correction key has an integral level k >= 1:
`ExponentialCocycle` and its inverse, `NeumannInverse`, `SwappedCocycle`,
`CorrectedCocycle`, and a `Convolution` whose factors share grading and bound.
Every other evaluator has None.  The identity check, the R-form check and
the correction solver take their monomial triples from one walk, a per-call
`WeightIndex`, which skips a triple unless its weights sum into the sum
monoid of a support, the sums w(x) + w(y) of its pairs (`Support.sums`);
with no support it is the full sweep.  `contract` reads only the Delta term
pairs whose legs J (in `right_product` and `c0_solver`), K (in the deformed
product), the inner cocycle (in `NeumannInverse`), the left factor (in
`Convolution`) or R (in the R-form check) can pair nonzero
(`Support.term_pairs`).  Past a bounded evaluator's range
(`support_within`) the full path runs.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub

from . import linalg
from .poly import ONE, ZERO, TensorPoly, grlex_key, rational


class CocycleBoundError(ValueError):
    """A table-backed evaluator was asked for a pair beyond its bound."""


class CocycleInputError(ValueError):
    pass


class RMatrix:
    """Antisymmetric rational matrix over the Lie basis dual to the generators.

    Represents r = sum_{k<l} r[k][l] (u_k (x) u_l - u_l (x) u_k).  The
    constructor builds the stored forms once, as tuples that no consumer can
    change: `matrix`, every entry through `rational`, and `support`, the
    (a, b, r[a][b]) with r[a][b] != 0 in row order.
    """

    def __init__(self, n, entries):
        self.n = n
        mat = [[ZERO] * n for _ in range(n)]
        for (i, j), val in entries.items():
            mat[i][j] += val
            mat[j][i] -= val
        self.matrix = tuple(tuple(rational(v) for v in row) for row in mat)
        self.support = tuple((a, b, v) for a, row in enumerate(self.matrix)
                             for b, v in enumerate(row) if v)


def _homogeneity_rows(pres):
    """The equations w(m1) + w(m2) - w_i = 0 in the generator weights, one per term of q(X_i)."""
    n = pres.ring.ngens
    rows = []
    for i, gen in enumerate(pres.ring.generators):
        q = pres.q.get(gen)
        for m1, m2 in (q.terms if q is not None else ()):
            row = dict(enumerate(a + b for a, b in zip(m1.exps[:n], m2.exps[:n])))
            row[i] -= 1
            rows.append(row)
    return rows


def _integral_nullspace(rows, ncols):
    """A basis of the rational nullspace of `rows`, each vector scaled to integers."""
    return [[int(x * math.lcm(*(y.denominator for y in v))) for x in v]
            for v in linalg.nullspace(rows, ncols)]


class WeightGrading:
    """Integer weights on the generators, and the zeros they prove for one r-matrix.

    `weights[i]` is X_i's weight from Delta alone; `weight` memoizes w(m).
    `monoid` is the `Support` of r's `letters` (w_a, w_b), one per entry of
    r's support, and `lengths` reads its S_k.  The pivot `form` c, or None,
    has c . (w_a + w_b) = `step` > 0 on every letter; a support's levels
    read `height(v)` = c . v.  A grading belongs to one presentation and
    keeps no other fact of q: the legs' degree is `pres.leg_degree`.  It
    memoizes `weight` and `leg_groups` per monomial of its ring.
    """

    def __init__(self, weights, lattice, letters=()):
        rank = len(weights[0])
        # the first basis vector (c, s) with s != 0, signed so that s > 0
        v = next((v if v[rank] > 0 else [-x for x in v] for v in lattice if v[rank]), None)
        self.weights = weights
        self.rank = rank
        self.form = None if v is None else tuple(v[:rank])
        self.step = 1 if v is None else v[rank]
        self._weight_memo = {}
        self._groups = ({}, {})  # leg_groups's, by leg
        self.monoid = Support(self, frozenset((1, u, v) for u, v in letters))

    @classmethod
    def of(cls, pres, rmatrix):
        """The grading of `rmatrix` on `pres`, memoized on the presentation.

        Each grading solves the weights, which depend on q only, as the
        integral nullspace of the homogeneity equations.  The pivot form is
        solved over them from the letters alone: of the integral (c, s) with
        c . (w_a + w_b) = s for each letter, in rank + 1 unknowns, the first
        basis vector with s != 0 is kept, as `form` c and `step` |s|.
        """
        memo = pres._gradings
        hit = memo.get(rmatrix)
        if hit is None:
            n = pres.ring.ngens
            basis = _integral_nullspace(_homogeneity_rows(pres), n)
            weights = tuple(tuple(v[i] for v in basis) for i in range(n))
            rank = len(weights[0])
            letters = sorted({(weights[a], weights[b]) for a, b, _ in rmatrix.support})
            rows = [dict(enumerate(map(add, u, v))) | {rank: -1} for u, v in letters]
            hit = memo[rmatrix] = cls(weights, _integral_nullspace(rows, rank + 1), letters)
        return hit

    def weight(self, m):
        hit = self._weight_memo.get(m)
        if hit is None:
            # the exponents of m times the generator weights
            out = [0] * self.rank
            for e, w in zip(m.exps, self.weights):
                if e:
                    for t, x in enumerate(w):
                        out[t] += e * x
            hit = self._weight_memo[m] = tuple(out)
        return hit

    def lengths(self, m1, m2, kmax):
        """The k in 1..kmax with (w(m1), w(m2)) in S_k, increasing."""
        u, v = self.weight(m1), self.weight(m2)
        return tuple(k for k in range(1, kmax + 1) if v in self.monoid.level(k).get(u, ()))

    def height(self, v):
        return sum(map(mul, self.form, v))

    def leg_groups(self, pres, m, leg):
        """(top, groups): Delta(m)'s terms as {weight of leg `leg`: terms}, and
        the largest `height` of those weights.

        The two legs' weights sum to w(m), so leg 1's groups are leg 0's term
        tuples, in the same order, under w(m) less leg 0's weights.
        """
        memo = self._groups[leg]
        hit = memo.get(m)
        if hit is None:
            if leg:
                w = self.weight(m)
                groups = {tuple(map(sub, w, u)): terms
                          for u, terms in self.leg_groups(pres, m, 0)[1].items()}
            else:
                groups = {}
                for t in pres.coproduct_monomial(m).terms.items():
                    groups.setdefault(self.weight(t[0][0]), []).append(t)
                groups = {u: tuple(terms) for u, terms in groups.items()}
            hit = memo[m] = (max(map(self.height, groups)), groups)
        return hit


class Support:
    """The monoid of weight pairs (w(x), w(y)) that `gens` generate, holding
    every pair where one evaluator can be nonzero.

    Its pairs are the sums of `gens`, a set of (level, w(x), w(y)), the empty
    sum (0, 0) included.  A pair's level is the `height` of w(x) + w(y) over
    `step` in `grading`: 1 on a letter (the letters' monoid counts letters
    even with no pivot).  Every generator has a level >= 1, so `level(k)`,
    the pairs of level k as {w(x): {w(y)}}, are those of level k - l plus a
    generator of level l.  The levels are built bottom-up on first use.
    `term_pairs` memoizes the partners of a left weight up to a level cap.
    A bounded evaluator's support also carries its `total_bound`, beyond
    which it raises instead of answering.
    """

    def __init__(self, grading, gens, total_bound=None):
        self.grading = grading
        self.gens = gens
        self.total_bound = total_bound
        zero = (0,) * grading.rank
        self._levels = [{zero: {zero}}]
        self._partners = {}
        self._sums = [{zero}]

    def level(self, k):
        levels = self._levels
        while len(levels) <= k:
            n = len(levels)
            out = {}
            for lg, gu, gv in self.gens:
                for u, vs in levels[n - lg].items() if lg <= n else ():
                    out.setdefault(tuple(map(add, u, gu)), set()).update(
                        tuple(map(add, v, gv)) for v in vs)
            levels.append(out)
        return levels[k]

    def sums(self, k):
        """The sums w(x) + w(y) of the pairs of level k, built bottom-up like `level`."""
        sums = self._sums
        while len(sums) <= k:
            n = len(sums)
            gens = {(lg, tuple(map(add, u, v))) for lg, u, v in self.gens if lg <= n}
            sums.append({tuple(map(add, t, g)) for lg, g in gens for t in sums[n - lg]})
        return sums[k]

    def swapped(self):
        """The swap's support: every pair reversed."""
        gens = frozenset((k, v, u) for k, u, v in self.gens)
        return self if gens == self.gens else Support(self.grading, gens, self.total_bound)

    def term_pairs(self, pres, m1, m2, first):
        """The (term group, term group) pairs of Delta(m1) and Delta(m2) where a
        slot with this support can be nonzero.

        The slot reads the first legs when `first`, else the second legs.
        Their weights (x, y) lie in the support at a level at most
        (top(m1) + top(m2)) // step, top(m) being the largest `height` of a
        leg weight of Delta(m) (`WeightGrading.leg_groups`).  The list is new
        on each call; the groups are the memo's.
        """
        leg = 0 if first else 1
        grading = self.grading
        top1, groups1 = grading.leg_groups(pres, m1, leg)
        top2, groups2 = grading.leg_groups(pres, m2, leg)
        cap = (top1 + top2) // grading.step
        memo = self._partners.setdefault(cap, {})
        get = groups2.get
        out = []
        for u, ta in groups1.items():
            partners = memo.get(u)
            if partners is None:
                partners = memo[u] = tuple(
                    {v for k in range(cap + 1) for v in self.level(k).get(u, ())})
            for v in partners:
                tb = get(v)
                if tb is not None:
                    out.append((ta, tb))
        return out


class WeightIndex:
    """A check's nonconstant monomials within `degree_bound`, bucketed by weight.

    This is the one walk of the identity check, the R-form check and the
    correction solver.  `mons` lists the monomials in grlex order, which
    sorts them by degree.  The index reads the support of the evaluator `j`
    within the bound, `j.support_within(degree_bound)`.

    `partners(idx, end)` lists, in increasing order, the indices k < end
    for which w(mons[k]) plus the weights s of the monomials indexed by
    `idx` is a sum w(x) + w(y) over the support's monoid (`Support.sums`).
    Heights add like weights, so only the levels whose height lies within
    h(s) plus the least and the greatest height of a monomial are read,
    each translated by -s and looked up among the monomials' weights,
    memoized per s.  With no support, every k < end is a partner, and
    `triples()` is the full sweep.
    """

    def __init__(self, j, degree_bound):
        self.support = j.support_within(degree_bound)
        self.bound = degree_bound
        self.mons = j.pres.ring.monomials_up_to(degree_bound, include_one=False)
        self._degs = [m.degree for m in self.mons]
        self._memo = {}
        self._by_weight = {}
        if self.support is not None:
            self._weights = list(map(self.support.grading.weight, self.mons))
            for k, w in enumerate(self._weights):
                self._by_weight.setdefault(w, []).append(k)
            heights = list(map(self.support.grading.height, self._by_weight))
            self._heights = min(heights, default=0), max(heights, default=0)

    def upto(self, d):
        """How many of `mons` have degree <= d: they are the first that many."""
        return bisect.bisect_right(self._degs, d)

    def partners(self, idx, end):
        if self.support is None:
            return range(end)
        s = tuple(map(sum, zip(*(self._weights[k] for k in idx))))
        hit = self._memo.get(s)
        if hit is None:
            step, h = self.support.grading.step, self.support.grading.height(s)
            lo, hi = self._heights
            get = self._by_weight.get
            hit = self._memo[s] = sorted(
                k for level in range(max(0, -(-(h + lo) // step)), (h + hi) // step + 1)
                for t in self.support.sums(level) for k in get(tuple(map(sub, t, s)), ()))
        return hit[:bisect.bisect_left(hit, end)]

    def pairs(self):
        """The full sweep's (x, y), grlex in each slot, with the number `end` of z it takes.

        (mons[x], mons[y], mons[z]) has total degree within the bound
        exactly when z < end; pairs with no such z are left out.
        """
        for x, dx in enumerate(self._degs):
            for y in range(self.upto(self.bound - 1 - dx)):
                yield x, y, self.upto(self.bound - dx - self._degs[y])

    def sweep_size(self):
        """The number of triples in the full sweep, the sum of `pairs()`' ends,
        counted from the degree histogram of `mons`."""
        hist = Counter(self._degs)
        return sum(hist[a] * hist[b] * self.upto(self.bound - a - b)
                   for a in hist for b in hist if a + b < self.bound)

    def triples(self):
        """The (x, y, z) of the full sweep with z among the partners of (x, y), in its order."""
        for x, y, end in self.pairs():
            for z in self.partners((x, y), end):
                yield x, y, z


def cybe_check(lie, r):
    """True iff [r12,r13] + [r12,r23] + [r13,r23] = 0 exactly.

    Each pair of terms r_ab u_a (x) u_b and r_cd u_c (x) u_d of r adds its
    three brackets, read from the Lie table, by basis triple.
    """
    table = lie.table
    total = {}

    def add(key, c):
        total[key] = total.get(key, ZERO) + c

    for a, b, rab in r.support:
        for c, d, rcd in r.support:
            coef = rab * rcd
            for e, (ac, bc, bd) in enumerate(zip(table[a][c], table[b][c], table[b][d])):
                add((e, b, d), coef * ac)
                add((a, e, d), coef * bc)
                add((a, c, e), coef * bd)
    return not any(total.values())


class Cocycle:
    """Base evaluator.  Subclasses implement `_pair` on generator monomials.

    `support` is the `Support` of the evaluator's zeros, or None.  Kinds
    where the proof in the module docstring holds find it on first use.
    """

    kind = "abstract"
    support = None

    def __init__(self, pres):
        self.pres = pres
        self._cache = {}
        self._products = {}

    def support_within(self, degree_bound):
        """`support` where a check within `degree_bound` stays inside the
        evaluator's bound, else None: what `contract` and `WeightIndex` read.

        With `pres.leg_degree` at most 1, no leg of Delta(m) outgrows m, so
        every pair the checks ask for, directly or through coproduct legs,
        has total degree at most `degree_bound`.  Decided from the bound
        alone, so a check that could meet the bound error takes its full
        path and reports the error the full path reports.
        """
        s = self.support
        if s is None or s.total_bound is None:
            return s
        return s if self.pres.leg_degree <= 1 and degree_bound <= s.total_bound else None

    # -- core -------------------------------------------------------------
    def _pair(self, m1, m2):
        raise NotImplementedError

    def pair(self, m1, m2):
        """Value on a pair of parameter-free monomials, cached.  Every evaluator
        is unital by this rule: where one argument is 1, the other's counit."""
        if m1.is_one:
            return ONE if m2.is_one else ZERO
        if m2.is_one:
            return ZERO
        key = (m1, m2)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = rational(self._pair(m1, m2))
        return hit

    def right_product(self, x, y):
        """The one-sided product x ._J y = {x1 y1: sum J(x2, y2)}, memoized.

        x and y are parameter-free monomials.  The dict is shared by every
        caller asking for the same pair, so callers must not change it.
        """
        hit = self._products.get((x, y))
        if hit is None:
            hit = self._products[(x, y)] = self.pres.contract(
                x, y, None, self.pair, self.support_within(x.degree + y.degree))
        return hit

    def eval(self, f, g):
        """Bilinear extension; returns a Poly (scalar when parameter-free)."""
        one = self.pres.ring.one_monomial
        return self.pres.ring.bilinear(f, g, lambda a, b: {one: self.pair(a, b)})

    def _sum(self, m1, m2, f, g, support=None):
        """The scalar sum f(a1,b1) g(a2,b2) over Delta(m1) x Delta(m2); f has `support`."""
        return self.pres.contract(m1, m2, f, g, support).get(self.pres.ring.one_monomial, ZERO)

    # -- derived evaluators -------------------------------------------------
    def inverse(self):
        return NeumannInverse(self)

    def conjugate(self, point):
        """J^g = (g (x) g) * J * (g^{-1} (x) g^{-1}) for a rational point g."""
        return GaugeCocycle(self.pres, self, PointFunctional(self.pres, point))

    def swap(self):
        return SwappedCocycle(self)


class CounitPair(Cocycle):
    kind = "counit_pair"

    def _pair(self, m1, m2):
        return ZERO  # both arguments nonconstant here

    def inverse(self):
        return self

    def swap(self):
        return self


class ExponentialCocycle(Cocycle):
    """J = (eps (x) eps) o exp(r/2) through iterated-coproduct word pairing.

    The k-th term pairs the length-k word tables of its arguments through
    r, for k up to their coradical degree.  A miss reads only the lengths k
    whose letter sums S_k hold the pair of weights (`WeightGrading.lengths`,
    proof in the module docstring), and is 0 before any word table when
    there is none.  J and J^{-1} = exp(-r/2) share one `WeightGrading`
    through the presentation's memo, and so do the evaluators built on
    them: the R-form's factors and a `CorrectedCocycle`'s base.  Where its
    grading has a pivot form, `support` is its letters' monoid, whose S_k
    `lengths` reads.
    """

    kind = "exponential"

    def __init__(self, pres, rmatrix, negate=False):
        super().__init__(pres)
        self.rmatrix = rmatrix
        self.negate = negate

    def _pair(self, m1, m2):
        # The sum truncates at the coradical degree: length-k words pair as
        # degree-k distributions, which kill the k-th coradical filtration
        # layer.  Of the lengths up to there, only those whose letter sums
        # hold the pair's weights are read.
        pres = self.pres
        kmax = min(pres.corad_degree_monomial(m1), pres.corad_degree_monomial(m2))
        total = ZERO
        scale_base = Fraction(-1, 2) if self.negate else Fraction(1, 2)
        for k in WeightGrading.of(pres, self.rmatrix).lengths(m1, m2, kmax):
            left = pres.word_table(m1, k)
            if not left:
                continue
            right = pres.word_table(m2, k)
            if not right:
                continue
            contrib = self._contract(left, right)
            if contrib:
                total += contrib * scale_base ** k / math.factorial(k)
        return total

    def _contract(self, left, right):
        """sum of c(w) c'(w') prod_i r[w_i][w'_i] over left x right words,
        each product taken letter by letter up to its first zero."""
        mat = self.rmatrix.matrix
        total = ZERO
        for w, cw in left.items():
            for u, cu in right.items():
                v = cw * cu
                for a, b in zip(w, u):
                    v *= mat[a][b]
                    if not v:
                        break
                total += v
        return total

    @cached_property
    def support(self):
        # shared with the inverse through the presentation's memo; a grading
        # with no pivot form bounds no walk
        g = WeightGrading.of(self.pres, self.rmatrix)
        return None if g.form is None else g.monoid

    def inverse(self):
        return ExponentialCocycle(self.pres, self.rmatrix, not self.negate)


class PullbackCocycle(Cocycle):
    """J_G(f,g) = J_T(pi f, pi g) along a coalgebra-compatible surjection."""

    kind = "pullback"

    def __init__(self, pres, inner, images, check=True):
        super().__init__(pres)
        self.inner = inner
        self.images = {k: v for k, v in images.items()}
        if check:
            self._check_bialgebra_map()

    def _check_bialgebra_map(self):
        tp = self.inner.pres
        for g in self.pres.ring.generators:
            img = self.images.get(g, tp.ring.zero)
            lhs = tp.coproduct(img)
            rhs = TensorPoly.zero(tp.ring, 2)
            for (m1, m2), c in self.pres.coproduct_gen(g).terms.items():
                rhs = rhs + TensorPoly.from_polys([self._push(m1.as_poly()),
                                                   self._push(m2.as_poly())], c)
            if lhs != rhs:
                raise CocycleInputError(
                    "images do not define a coalgebra map (fails on %s)" % g)

    def _push(self, f):
        target = self.inner.pres.ring
        images = dict(self.images)
        for p in self.pres.ring.parameters:
            if p in target.index:
                images.setdefault(p, target.var(p))
        return f.substitute(images, target)

    def _pair(self, m1, m2):
        v = self.inner.eval(self._push(m1.as_poly()), self._push(m2.as_poly()))
        if v.is_zero():
            return ZERO
        if v.degree() > 0:
            raise ValueError("pullback produced a non-scalar value")
        return v.counit()

    def inverse(self):
        return PullbackCocycle(self.pres, self.inner.inverse(), self.images, check=False)


class TableCocycle(Cocycle):
    """Explicit values on monomial pairs up to a declared degree bound."""

    kind = "table"

    def __init__(self, pres, table, bound):
        super().__init__(pres)
        self.table = dict(table)
        self.bound = bound

    def _pair(self, m1, m2):
        if m1.degree > self.bound or m2.degree > self.bound:
            raise CocycleBoundError(
                "pair (%r, %r) exceeds the declared bound %d" % (m1, m2, self.bound))
        return self.table.get((m1, m2), ZERO)


class CorrectedCocycle(Cocycle):
    """An evaluator plus a sparse correction table, total-degree bounded.

    Used to upgrade the exponential evaluator of a nonabelian r-matrix to a
    genuine bounded cocycle: the corrections are solved so that the cocycle
    identity holds on every monomial triple whose referenced pairs stay
    within the solved range.  Out-of-range pairs raise rather than silently
    extrapolate.
    """

    kind = "corrected"

    def __init__(self, base, corrections, total_bound):
        super().__init__(base.pres)
        self.base = base
        self.corrections = dict(corrections)
        self.total_bound = total_bound

    def _pair(self, m1, m2):
        if m1.degree + m2.degree > self.total_bound:
            raise CocycleBoundError(
                "pair (%r, %r) exceeds the solved total degree %d"
                % (m1, m2, self.total_bound))
        return self.base.pair(m1, m2) + self.corrections.get((m1, m2), ZERO)

    @cached_property
    def support(self):
        # J_r + table: the base's generators and each key's pair, at its level
        # k, where height(w(a) + w(b)) is k step with k >= 1
        base = self.base.support
        if base is None:
            return None
        g = base.grading
        keys = [(divmod(g.height(u) + g.height(v), g.step), u, v) for u, v in
                ((g.weight(a), g.weight(b)) for a, b in self.corrections)]
        if not all(rest == 0 and k >= 1 for (k, rest), _, _ in keys):
            return None
        bound = self.total_bound
        if base.total_bound is not None:
            bound = min(bound, base.total_bound)
        return Support(g, base.gens | {(k, u, v) for (k, _), u, v in keys}, bound)


def solve_cocycle_corrections(pres, base, total_bound):
    """Corrections making `base` satisfy the cocycle identity within bound.

    Requires `pres.leg_degree` <= 1 (true for coordinate rings presented
    in matrix coordinates): then identity instances with total degree
    within the bound only reference pairs within the bound.  Instances are
    processed by increasing coradical level; at a given level an instance
    is linear in exactly the two top corrections x(ab, c) and x(a, bc), a
    difference-constraint graph solved by breadth-first propagation.  Roots
    keep the base value, so the result is deterministic.  Raises if the
    constraints are inconsistent.

    u = (ab, c) and v = (a, bc) have the same weight, so the constraint
    graph splits by w(a) + w(b) + w(c).  Where `base` has a support, a
    weight off its sum monoid has only zero defects (by induction over the
    levels, the keys found so far have their w(a) + w(b) in it), its roots
    assign 0, and it is skipped: the instances are the one walk's triples,
    `WeightIndex(base, total_bound)`.
    """
    if pres.leg_degree > 1:
        raise CocycleInputError("correction solving needs coproduct corrections of degree "
                                "at most 1")
    index = WeightIndex(base, total_bound)
    mons = index.mons
    by_level = {}
    for x, y, z in index.triples():
        a, b, c = mons[x], mons[y], mons[z]
        lvl = (pres.corad_degree_monomial(a) + pres.corad_degree_monomial(b)
               + pres.corad_degree_monomial(c))
        by_level.setdefault(lvl, []).append((a, b, c))

    corrections = {}
    for level in sorted(by_level):
        # difference constraints: x(ab, c) - x(a, bc) = -defect(a, b, c);
        # values change only between levels, so each level has its cocycle
        j = CorrectedCocycle(base, corrections, total_bound)
        adjacency = {}
        nodes = set()
        for a, b, c in by_level[level]:
            d = _identity_defect(j, a, b, c)
            u = (a.mul(b), c)
            v = (a, b.mul(c))
            if u == v:
                if d != 0:
                    raise CocycleInputError(
                        "inconsistent self-constraint at level %d" % level)
                continue
            nodes.add(u)
            nodes.add(v)
            adjacency.setdefault(u, []).append((v, d))
            adjacency.setdefault(v, []).append((u, -d))
        assign = {}
        for root in sorted(nodes, key=lambda p: (grlex_key(p[0]), grlex_key(p[1]))):
            if root in assign:
                continue
            assign[root] = ZERO
            queue = [root]
            while queue:
                cur = queue.pop(0)
                for nxt, diff in adjacency.get(cur, []):
                    want = assign[cur] + diff
                    if nxt in assign:
                        if assign[nxt] != want:
                            raise CocycleInputError(
                                "inconsistent correction constraints at level %d" % level)
                    else:
                        assign[nxt] = want
                        queue.append(nxt)
        for key in sorted(assign, key=lambda p: (grlex_key(p[0]), grlex_key(p[1]))):
            x = assign[key]
            if x != 0:
                corrections[key] = corrections.get(key, ZERO) + x
    return corrections


class SwappedCocycle(Cocycle):
    kind = "swap"

    def __init__(self, inner):
        super().__init__(inner.pres)
        self.inner = inner

    def _pair(self, m1, m2):
        return self.inner.pair(m2, m1)

    @cached_property
    def support(self):
        s = self.inner.support
        return None if s is None else s.swapped()

    def inverse(self):
        return SwappedCocycle(self.inner.inverse())

    def swap(self):
        return self.inner


class NeumannInverse(Cocycle):
    """Convolution inverse via J^{-1} = eps.eps + (eps.eps - J) * J^{-1}.

    Terminates on every pair because (eps.eps - J) vanishes whenever either
    argument is scalar, so the recursion strictly reduces total degree.
    """

    kind = "inverse"

    def __init__(self, inner):
        super().__init__(inner.pres)
        self.inner = inner

    def _n(self, a1, b1):
        # N = eps.eps - J vanishes unless both arguments are nonconstant,
        # where it is -J; the sign is applied once, in `_pair`
        return ZERO if a1.is_one else self.inner.pair(a1, b1)

    def _pair(self, m1, m2):
        # J^{-1}(a,b) = eps(a)eps(b) + sum N(a1,b1) J^{-1}(a2,b2)
        return -self._sum(m1, m2, self._n, self.pair,
                          self.inner.support_within(m1.degree + m2.degree))

    @property
    def support(self):
        # J's monoid holds every sum of its pairs, so J^{-1} shares it and its memos
        return self.inner.support

    def inverse(self):
        return self.inner


class PointFunctional:
    """Evaluation at a rational point g; its convolution inverse is evaluation at g^{-1}.

    Each monomial's value is read off `Point.restriction` into the group
    ring, which memoizes it when first asked for.
    """

    def __init__(self, pres, point):
        self.pres = pres
        self.point = point
        self._at = self._evaluator(point)
        self._at_inv = self._evaluator(pres.point_inv(point))

    def _evaluator(self, point):
        ring = self.pres.ring
        if any(not m.is_one for g in ring.generators for m in point.coord(g).terms):
            raise CocycleInputError("conjugation point must have scalar coordinates")
        image = point.restriction(ring)
        return lambda m: image(m).counit()

    def __call__(self, m):
        return self._at(m)

    def inv(self, m):
        return self._at_inv(m)


class GaugeCocycle(Cocycle):
    """J^chi(a,b) = sum chi(a1 b1) J(a2,b2) chi^{-1}(a3) chi^{-1}(b3).

    The sum runs over Delta(a) x Delta(b) with the tail
    T(x,y) = sum J(x1,y1) chi^{-1}(x2) chi^{-1}(y2) in the second legs.  T is
    not unital, so it is memoized in a plain dict, never through `pair`.
    """

    kind = "gauge"

    def __init__(self, pres, inner, chi):
        super().__init__(pres)
        self.inner = inner
        self.chi = chi
        self._tails = {}

    def _tail(self, x, y):
        v = self._tails.get((x, y))
        if v is None:
            inv = self.chi.inv
            v = self._tails[(x, y)] = self._sum(x, y, self.inner.pair,
                                                lambda u, w: inv(u) * inv(w))
        return v

    def _pair(self, m1, m2):
        chi = self.chi
        return sum((chi(k) * v for k, v in self.pres.contract(m1, m2, None, self._tail).items()),
                   ZERO)

    def inverse(self):
        return GaugeCocycle(self.pres, self.inner.inverse(), self.chi)


class Convolution(Cocycle):
    """(F * G)(f,g) = sum F(f1,g1) G(f2,g2) as a plain evaluator."""

    kind = "convolution"

    def __init__(self, left, right):
        super().__init__(left.pres)
        self.left = left
        self.right = right

    def _pair(self, m1, m2):
        return self._sum(m1, m2, self.left.pair, self.right.pair,
                         self.left.support_within(m1.degree + m2.degree))

    @cached_property
    def support(self):
        # one grading object (the presentation memoizes it) and one bound
        left, right = self.left.support, self.right.support
        if left is None or right is None or (left.grading, left.total_bound) != (
                right.grading, right.total_bound):
            return None
        gens = left.gens | right.gens
        return left if gens == left.gens else Support(left.grading, gens, left.total_bound)


class CocycleIdentityReport:
    def __init__(self, ok, bound, checked, failure=None):
        self.ok = ok
        self.bound = bound
        self.checked = checked
        self.failure = failure

    def __repr__(self):
        if self.ok:
            return "cocycle identity PASS at bound %d (%d instances)" % (self.bound, self.checked)
        return "cocycle identity FAIL at bound %d on %r" % (self.bound, self.failure)


def _identity_defect(j, a, b, c):
    """sum J(a1 b1, c) J(a2, b2) - sum J(a, b1 c1) J(b2, c2)."""
    lhs = sum((w * v for m, v in j.right_product(a, b).items() if (w := j.pair(m, c))), ZERO)
    rhs = sum((w * v for m, v in j.right_product(b, c).items() if (w := j.pair(a, m))), ZERO)
    return lhs - rhs


def verify_cocycle_identity(j, degree_bound):
    """Check the 2-cocycle identity on monomials within bound.

    The identity sum J(a1 b1, c) J(a2, b2) = sum J(a, b1 c1) J(b2, c2) is
    checked on nonconstant monomial triples with total degree at most
    `degree_bound`.  Unitality, J(m, 1) = eps(m) = J(1, m), is no check here
    but `Cocycle.pair`'s rule: it answers eps itself where an argument is 1.

    The triples come from the one walk, `WeightIndex(j, degree_bound)`.
    With R(x, y) the one-sided product {x1 y1: sum J(x2, y2)},
    `j.right_product`, the sides are sum_m J(m, c) R(a, b)[m] and
    sum_m J(a, m) R(b, c)[m].  A key m of R(a, b) has w(m) = w(a) + w(b)
    less w(a2) + w(b2) with J(a2, b2) != 0, and J(m, c) needs (w(m), w(c))
    in J's support; so both sides are 0 unless w(a) + w(b) + w(c) lies in
    the support's sum monoid (`Support.sums`), and the walk visits just the
    c of each (a, b) that reach it.  A pair with none never builds R(a, b).
    An evaluator with no support that covers the bound is walked over every
    triple.

    `checked` counts triples in the full sweep's order (grlex in each
    slot): all on success, else up to the first failing one, `failure`.
    A support that does not cover the bound gives way to the full sweep up
    front, so a bounded evaluator that leaves its range reports what the
    full sweep meets first: a failing triple, or the bound error it raises.
    """
    index = WeightIndex(j, degree_bound)
    mons = index.mons
    for x, y, z in index.triples():
        if _identity_defect(j, mons[x], mons[y], mons[z]):
            # the triples the full sweep visits before reaching the pair (x, y)
            visited = sum(end for p, q, end in index.pairs() if (p, q) < (x, y))
            return CocycleIdentityReport(False, degree_bound, visited + z + 1,
                                         (mons[x], mons[y], mons[z]))
    return CocycleIdentityReport(True, degree_bound, index.sweep_size())
