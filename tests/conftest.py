import functools
from fractions import Fraction
from operator import add, sub

import pytest

from unitwist import catalog
from unitwist.cli import build_context
from unitwist.cocycle import CounitPair, WeightGrading
from unitwist.poly import Monomial
from unitwist.twist import TwistedContext, ihoe_presentation


class Loaded:
    def __init__(self, entry):
        self.entry = entry
        self.data = entry.load()
        self.pres = self.data.presentation
        self.ctx = build_context(self.data)
        self._ihoe = None

    @property
    def ihoe(self):
        if self._ihoe is None:
            self._ihoe = ihoe_presentation(self.ctx)
        return self._ihoe


_cache = {}


def load(cid):
    if cid not in _cache:
        _cache[cid] = Loaded(catalog.get(cid))
    return _cache[cid]


@pytest.fixture(scope="session")
def examples():
    return load


@pytest.fixture(scope="session", params=catalog.ids())
def each_example(request):
    return load(request.param)


@pytest.fixture(scope="session")
def support_of():
    """Builds `leg_support` of an evaluator."""
    return leg_support


@pytest.fixture(scope="session")
def sum_support_of():
    """Builds `sum_support` of an evaluator."""
    return sum_support


@pytest.fixture(scope="session")
def point_mul():
    """The group law on points: the coordinates of p.q in the group g are
    sum p(x1) q(x2) over Delta(x)."""
    def mul(g, p, q):
        ring = g.ring
        left, right = p.restriction(ring), q.restriction(ring)
        return g.point({x: g.convolve((left, right), ring.var(x), ring) for x in ring.generators})
    return mul


@pytest.fixture(scope="session")
def winding_left():
    """The left winding map tau^l_p : f -> sum f1(p) f2 of the group g."""
    def wind(g, p, f):
        return g.convolve((p.restriction(g.ring), Monomial.as_poly), f, g.ring)
    return wind


@pytest.fixture(scope="session")
def one_sided_right():
    """Builds the one-sided context of a cocycle J: K = eps.eps, so only J twists."""
    def build(pres, j):
        return TwistedContext(pres, CounitPair(pres), j)
    return build


def _support_generators(j):
    """(grading, gens) of the evaluator j: its leg-weight support is the
    monoid of the sums of gens, (0, 0) included.

    The exponential kind has r's letters (w_a, w_b), r_ab != 0, as gens.  A
    corrected J = J_r + table adds each key's pair.  The swap reverses every
    pair.  The Neumann inverse and a convolution sum their factors' values
    over Delta, so their gens are all of their factors' gens.
    """
    if j.kind == "exponential":
        g = WeightGrading.of(j.pres, j.rmatrix)
        w = [g.weight(j.pres.ring.var_monomial(x)) for x in j.pres.ring.generators]
        return g, {(w[a], w[b]) for a, b, _ in j.rmatrix.support}
    if j.kind == "corrected":
        g, gens = _support_generators(j.base)
        return g, gens | {(g.weight(a), g.weight(b)) for a, b in j.corrections}
    if j.kind == "swap":
        g, gens = _support_generators(j.inner)
        return g, {(v, u) for u, v in gens}
    found = [_support_generators(p) for p in ([j.inner] if j.kind == "inverse"
                                               else [j.left, j.right])]
    return found[0][0], set().union(*(gens for _, gens in found))


def leg_support(j):
    """Whether (x, y) lies in the support of the evaluator j: (w(x), w(y)) is a
    sum of its gens (`_support_generators`).

    Built here by level, with no engine walk: a pair's level is the
    grading's `height` of w(x) + w(y) over its `step`, 1 on each letter, and
    the sums of level l are those of level l - l(g) plus a generator g.
    Every generator must have a positive integral level.
    """
    g, gens = _support_generators(j)
    zero = (0,) * g.rank

    def level(u, v):
        return Fraction(g.height(u) + g.height(v), g.step)

    by_level = {}
    for u, v in gens:
        by_level.setdefault(level(u, v), set()).add((u, v))
    assert all(lv >= 1 and lv.denominator == 1 for lv in by_level), by_level
    sums = [{(zero, zero)}]

    @functools.cache
    def member(u, v):
        lv = level(u, v)
        if lv < 0 or lv.denominator != 1:
            return False
        while len(sums) <= lv:
            k = len(sums)
            sums.append({(tuple(map(add, a, gu)), tuple(map(add, b, gv)))
                         for gl, pairs in by_level.items() if gl <= k
                         for a, b in sums[k - int(gl)] for gu, gv in pairs})
        return (u, v) in sums[int(lv)]

    return lambda x, y: member(g.weight(x), g.weight(y))


def sum_support(j):
    """Whether the weights of some monomials sum into the sum monoid of the
    evaluator j's support: the sums of the w(x) + w(y) of its gens
    (`_support_generators`), 0 included.

    Decided by brute force, with no engine table: a weight s is in the
    monoid when it is 0, or when s - t is for some generator sum t.  Every t
    has a positive `height`, so the recursion ends where the height of s is
    not positive.
    """
    g, gens = _support_generators(j)
    sums = {tuple(map(add, u, v)) for u, v in gens}
    assert all(g.height(t) > 0 for t in sums), sums
    zero = (0,) * g.rank

    @functools.cache
    def member(s):
        if s == zero:
            return True
        return g.height(s) > 0 and any(member(tuple(map(sub, s, t))) for t in sums)

    return lambda *ms: member(tuple(map(sum, zip(*map(g.weight, ms)))))
