"""Commutative Groebner bases over Q: Buchberger, normal forms, elimination.

Desk-scale by design (few variables, low degree), and deterministic: every
S-pair gets its rank (lcm degree, lcm key, i, j) once, when the pair is
created, and pairs are popped from a heap in increasing rank.  A pair with
coprime leading monomials is settled when it is created (Buchberger's
product criterion): it never enters the heap, and its lcm is never formed.
Reduced bases are inter-reduced, made monic and sorted, so a basis is a
canonical artifact suitable for golden comparisons.

Inside, coefficients are integers (`{monomial: int}` dicts); only the entry
and the exit convert.  Inputs are cleared of denominators and made
primitive, division is pseudo-division, a remainder joining the basis is
made primitive, and the reduced basis is made monic at the end.  Each
integer work polynomial is a nonzero multiple of its `Fraction` counterpart,
so leading monomials, divisor choices and the S-pair sequence (which reads
only leading monomials) are those of a `Fraction` Buchberger, and a reduced
basis is unique: the bytes are the same by construction.  `normal_form`
divides by the scale it tracked and returns the exact remainder.

Parameters of the ring always sort below the generators and are excluded
from staircase dimension counts; leading monomials are taken with respect
to the generator block, which makes dimensions those of the generic
parameter fiber.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from .poly import Poly, grlex_key, render_poly


class TermOrder:
    """Graded lex on the generator block, or a block elimination order.

    Memoizes the elimination key per monomial (graded lex is the monomial's
    `grlex` slot) and `divisor` per polynomial, by identity; each entry
    holds its polynomial, so no id is reused while cached.
    """

    def __init__(self, ring, eliminate=()):
        self.ring = ring
        self.eliminate = tuple(eliminate)
        self._elim = [ring.index[n] for n in self.eliminate]
        self._keys = {}
        self._divisors = {}
        if not self._elim:
            self.key = grlex_key

    def key(self, m):
        k = self._keys.get(m)
        if k is None:
            block = tuple(m.exps[i] for i in self._elim)
            k = self._keys[m] = (sum(block), block[::-1]) + m.grlex
        return k

    def leading(self, f):
        if f.is_zero():
            raise ValueError("zero polynomial has no leading term")
        m = max(f.terms, key=self.key)
        return m, f.terms[m]

    def divisor(self, g):
        """g as a divisor: `_primitive` of its integral form."""
        hit = self._divisors.get(id(g))
        if hit is None:
            hit = self._divisors[id(g)] = (g, _primitive(_integral(g)[0], self))
        return hit[1]


def _primitive(terms, order):
    """(leading monomial, leading coefficient, terms) of an integer polynomial
    divided by its content, with the leading coefficient made positive."""
    lm = max(terms, key=order.key)
    content = gcd(*terms.values())
    if terms[lm] < 0:
        content = -content
    if content != 1:
        terms = {m: c // content for m, c in terms.items()}
    return lm, terms[lm], terms


def _integral(f):
    """(terms, den): integer coefficients with f = terms / den."""
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}, den


def _reduce(work, divisors, order, den=1):
    """Pseudo-divide work / den by the integer divisors; consumes `work`.

    Returns (remainder, den), where remainder / den is the remainder of the
    full division of the input work / den.  A term c*m against a lead
    lc*lm, with d = gcd(c, lc), scales the work, the partial remainder and
    den by lc/d and subtracts (c/d) (m/lm) g, which cancels the term.
    """
    remainder = {}
    while work:
        m = max(work, key=order.key)
        c = work[m]
        for lm, lc, g in divisors:
            if lm.divides(m):
                break
        else:
            remainder[m] = work.pop(m)
            continue
        d = gcd(c, lc)
        scale, c = lc // d, c // d
        if scale != 1:
            den *= scale
            for k in work:
                work[k] *= scale
            for k in remainder:
                remainder[k] *= scale
        _add_multiple(work, -c, m.divide(lm), g)
    return remainder, den


def _add_multiple(work, c, factor, g):
    """work += c * factor * g in place, for an integer c != 0 and a monomial factor."""
    for gm, gc in g.items():
        mm = gm.mul(factor)
        v = work.get(mm, 0) + c * gc
        if v:
            work[mm] = v
        else:
            del work[mm]


def buchberger(gens, order):
    """Reduced Groebner basis (monic, inter-reduced, sorted by leading term).

    Deterministic: pairs are handled in increasing (lcm-degree, lcm-key)
    order.  A pair with coprime leads is settled when it is made and never
    queued; the chain criterion prunes the queue.
    """
    basis = [_primitive(_integral(g)[0], order) for g in gens if not g.is_zero()]
    basis.sort(key=lambda d: order.key(d[0]))
    if not basis:
        return []
    leads = [lm for lm, _, _ in basis]
    pairs = []
    done = set()

    def add_pairs(i):
        li = leads[i]
        for j in range(i):
            lj = leads[j]
            if li.coprime(lj):  # the product criterion: S(f_i, f_j) reduces to 0
                done.add((i, j))
            else:
                l = li.lcm(lj)
                heapq.heappush(pairs, (l.total_degree(), order.key(l), i, j, l))

    for i in range(len(basis)):
        add_pairs(i)
    while pairs:
        _, _, i, j, l = heapq.heappop(pairs)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        # Buchberger's chain criterion, conservative form: only pairs already
        # settled (treated earlier, or coprime) may justify skipping this one.
        if any(k not in (i, j) and lk.divides(l) and (max(i, k), min(i, k)) in done
               and (max(j, k), min(j, k)) in done for k, lk in enumerate(leads)):
            continue
        # S = (lc_j/d) (l/l_i) f_i - (lc_i/d) (l/l_j) f_j with d = gcd(lc_i, lc_j)
        _, ci, fi = basis[i]
        _, cj, fj = basis[j]
        d = gcd(ci, cj)
        s = {}
        _add_multiple(s, cj // d, l.divide(li), fi)
        _add_multiple(s, -(ci // d), l.divide(lj), fj)
        r, _ = _reduce(s, basis, order)
        if r:
            basis.append(_primitive(r, order))
            leads.append(basis[-1][0])
            add_pairs(len(basis) - 1)

    # prune to a minimal basis, then inter-reduce tails (a lead that no
    # other lead divides stays, so no tail reduces to 0) and make it monic
    minimal = [basis[i] for i, lg in enumerate(leads)
               if not any(k != i and lh.divides(lg) and (lh is not lg or k < i)
                          for k, lh in enumerate(leads))]
    reduced = []
    for i, (lm, _, g) in enumerate(minimal):
        r, _ = _reduce(dict(g), minimal[:i] + minimal[i + 1:], order)
        reduced.append((order.key(lm), Poly(order.ring, {m: Fraction(c, r[lm])
                                                         for m, c in r.items()})))
    reduced.sort(key=lambda t: t[0], reverse=True)
    return [g for _, g in reduced]


def normal_form(f, basis, order):
    """The exact remainder of f on division by `basis` (a list of Polys)."""
    work, den = _integral(f)
    r, den = _reduce(work, [order.divisor(g) for g in basis if not g.is_zero()], order, den)
    return Poly(f.ring, {m: Fraction(c, den) for m, c in r.items()})


class Ideal:
    """An ideal of a ring, with the graded-lex `TermOrder` it owns (`order`).

    The reduced basis under that order is computed once; `reduce` is the
    normal form against it.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if not g.is_zero()]
        self.order = TermOrder(ring)
        self._gb = None

    def groebner(self):
        if self._gb is None:
            self._gb = buchberger(self.gens, self.order)
        return self._gb

    def reduce(self, f):
        """The normal form of f against the reduced basis."""
        return normal_form(f, self.groebner(), self.order)

    def contains(self, f):
        return self.reduce(f).is_zero()

    def is_zero(self):
        return not self.gens

    def __eq__(self, other):
        if not isinstance(other, Ideal) or other.ring is not self.ring:
            return NotImplemented
        return self.groebner() == other.groebner()

    def __add__(self, other):
        return Ideal(self.ring, self.gens + other.gens)

    def render(self):
        gb = self.groebner()
        if not gb:
            return "<0>"
        return "<" + ", ".join(render_poly(g) for g in gb) + ">"


def eliminate(ideal, order):
    """Intersection with the subring omitting `order.eliminate`, for a block
    `TermOrder` of the ideal's ring (whose key memo serves every call given it)."""
    if not order.eliminate:
        return Ideal(ideal.ring, list(ideal.gens))
    gb = buchberger(ideal.gens, order)
    kept = [g for g in gb if all(all(m.exps[i] == 0 for i in order._elim) for m in g.terms)]
    return Ideal(ideal.ring, kept)


def krull_dimension(ideal):
    """Dimension of the quotient on the generic parameter fiber.

    Computed as the maximal number of generator variables that avoid every
    leading generator-monomial of the reduced basis; the unit ideal reports
    -1 (empty variety).
    """
    ring = ideal.ring
    lead_supports = []
    for g in ideal.groebner():
        m, _ = ideal.order.leading(g)
        support = frozenset(i for i in range(ring.ngens) if m.exps[i] > 0)
        if not support:
            return -1
        lead_supports.append(support)
    n = ring.ngens
    best = 0
    for mask in range(1 << n):
        subset = {i for i in range(n) if mask >> i & 1}
        if len(subset) <= best:
            continue
        if all(not s <= subset for s in lead_supports):
            best = len(subset)
    return best

