"""Commutative Groebner bases over Q: Buchberger, normal forms, elimination.

Desk-scale by design (few variables, low degree), and deterministic: every
S-pair gets its rank (lcm degree, lcm key, i, j) once, when the pair is
created, and pairs are popped from a heap in increasing rank.  Leading
monomials are computed once per basis element.  Reduced bases are
inter-reduced, made monic and sorted, so a basis is a canonical artifact
suitable for golden comparisons.

Parameters of the ring always sort below the generators and are excluded
from staircase dimension counts; leading monomials are taken with respect
to the generator block, which makes dimensions those of the generic
parameter fiber.
"""

from __future__ import annotations

import heapq

from .poly import ONE, ZERO, Poly, render_poly


class TermOrder:
    """Graded lex on the generator block, or a block elimination order."""

    def __init__(self, ring, eliminate=()):
        self.ring = ring
        self.eliminate = tuple(eliminate)
        elim_idx = [ring.index[n] for n in self.eliminate]
        self._elim = elim_idx

    def key(self, m):
        if not self._elim:
            return m.grlex
        block = tuple(m.exps[i] for i in self._elim)
        return (sum(block), block[::-1]) + m.grlex

    def leading(self, f):
        if f.is_zero():
            raise ValueError("zero polynomial has no leading term")
        m = max(f.terms, key=self.key)
        return m, f.terms[m]


def _reduce(f, basis, order):
    """Full multivariate division; returns the unique remainder."""
    if f.is_zero():
        return f
    ring = f.ring
    leads = [order.leading(g) + (g,) for g in basis if not g.is_zero()]
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work[m]
        hit = None
        for lm, lc, g in leads:
            if lm.divides(m):
                hit = (lm, lc, g)
                break
        if hit is None:
            del work[m]
            remainder[m] = remainder.get(m, ZERO) + c
            continue
        lm, lc, g = hit
        factor = m.divide(lm)
        scale = c / lc
        for gm, gc in g.terms.items():
            mm = gm.mul(factor)
            v = work.get(mm, ZERO) - scale * gc
            if v == 0:
                work.pop(mm, None)
            else:
                work[mm] = v
    return Poly(ring, {m: c for m, c in remainder.items() if c != 0})


def buchberger(gens, order):
    """Reduced Groebner basis (monic, inter-reduced, sorted by leading term).

    Deterministic: pairs are handled in increasing (lcm-degree, lcm-key)
    order; the coprime and chain criteria prune the queue.
    """
    basis = []
    for g in gens:
        if not g.is_zero():
            _, lc = order.leading(g)
            basis.append(g * (ONE / lc))
    basis = sorted(basis, key=lambda g: order.key(order.leading(g)[0]))
    if not basis:
        return []

    leads = [order.leading(g)[0] for g in basis]
    pairs = []

    def add_pairs(i):
        li = leads[i]
        for j in range(i):
            l = li.lcm(leads[j])
            heapq.heappush(pairs, (l.total_degree(), order.key(l), i, j))

    for i in range(len(basis)):
        add_pairs(i)
    done = set()
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        l = li.lcm(lj)
        if li.coprime(lj):
            continue
        # Buchberger's chain criterion, conservative form: only pairs that
        # were actually treated earlier may justify skipping this one.
        chain = False
        for k, lk in enumerate(leads):
            if k in (i, j):
                continue
            if lk.divides(l) and \
               (max(i, k), min(i, k)) in done and (max(j, k), min(j, k)) in done:
                chain = True
                break
        if chain:
            continue
        fi, fj = basis[i], basis[j]
        s = fi * l.divide(li).as_poly() - fj * l.divide(lj).as_poly()
        r = _reduce(s, basis, order)
        if not r.is_zero():
            lm, lc = order.leading(r)
            basis.append(r * (ONE / lc))
            leads.append(lm)
            add_pairs(len(basis) - 1)

    # prune to a minimal basis, then inter-reduce tails
    minimal = []
    for i, g in enumerate(basis):
        lg = leads[i]
        redundant = False
        for k, lh in enumerate(leads):
            if k == i:
                continue
            if lh.divides(lg) and (lh is not lg or k < i):
                redundant = True
                break
        if not redundant:
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = _reduce(g, others, order) if others else g
        if not r.is_zero():
            _, lc = order.leading(r)
            reduced.append(r * (ONE / lc))
    reduced.sort(key=lambda g: order.key(order.leading(g)[0]), reverse=True)
    return reduced


def normal_form(f, basis, order):
    return _reduce(f, basis, order)


class Ideal:
    """An ideal with cached reduced bases per term order."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [g for g in gens if not g.is_zero()]
        self._gb = {}

    def groebner(self, order=None):
        order = order or TermOrder(self.ring)
        key = (order.eliminate,)
        if key not in self._gb:
            self._gb[key] = buchberger(self.gens, order)
        return self._gb[key]

    def contains(self, f):
        return normal_form(f, self.groebner(), TermOrder(self.ring)).is_zero()

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


def eliminate(ideal, drop_names):
    """Intersection with the subring omitting `drop_names`, via a block order."""
    drop = tuple(drop_names)
    if not drop:
        return Ideal(ideal.ring, list(ideal.gens))
    order = TermOrder(ideal.ring, eliminate=drop)
    gb = buchberger(ideal.gens, order)
    drop_idx = [ideal.ring.index[n] for n in drop]
    kept = [g for g in gb if all(all(m.exps[i] == 0 for i in drop_idx) for m in g.terms)]
    return Ideal(ideal.ring, kept)


def krull_dimension(ideal):
    """Dimension of the quotient on the generic parameter fiber.

    Computed as the maximal number of generator variables that avoid every
    leading generator-monomial of the reduced basis; the unit ideal reports
    -1 (empty variety).
    """
    ring = ideal.ring
    gb = ideal.groebner()
    lead_supports = []
    order = TermOrder(ring)
    for g in gb:
        m, _ = order.leading(g)
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

