import functools
import random
import zlib
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from unitwist import catalog
from unitwist.cli import build_context
from unitwist.cocycle import (Cocycle, CocycleBoundError, CounitPair, ExponentialCocycle,
                              RMatrix, TableCocycle, WeightIndex, verify_cocycle_identity)
from unitwist.poly import ZERO, Monomial, Poly, accumulate, render_poly, settle
from unitwist.strata import stratum_presentation, weyl_detect
from unitwist.twist import (TwistConsistencyError, TwistedContext, ihoe_presentation,
                            rform_axiom_check, twisted_antipode)


def rnd_polys(ring, rng, count, degree=2, terms=3):
    mons = ring.monomials_up_to(degree, include_one=False)
    out = []
    for _ in range(count):
        p = ring.zero
        for m in rng.sample(mons, min(terms, len(mons))):
            p = p + m.as_poly() * Fraction(rng.randint(-3, 3))
        out.append(p)
    return out


def test_twisted_mul_examples(examples):
    ex = examples("jordan4-abelian")
    R = ex.pres.ring
    X, Y, V, W = (R.var(n) for n in "XYVW")
    assert ex.ctx.mul(W, X) == W * X + Y * Fraction(1, 2)
    assert ex.ctx.mul(W, V) == W * V + Y * Y * Fraction(1, 4)
    f = 3 * W * V - X + 1
    assert ex.ctx.mul(f, R.one) == f
    assert ex.ctx.mul(R.one, f) == f


def test_twisted_commutator_examples(examples):
    ex3 = examples("jordan4-abelian")
    R = ex3.pres.ring
    X, Y, V, W = (R.var(n) for n in "XYVW")
    assert ex3.ctx.commutator(W, V) == Y * Y * Fraction(1, 2)
    assert ex3.ctx.commutator(X, Y) == R.zero
    ex4 = examples("jordan4-minimal")
    R4 = ex4.pres.ring
    X4, V4, W4 = R4.var("X"), R4.var("V"), R4.var("W")
    assert ex4.ctx.commutator(W4, V4) == R4.var("Y") ** 2 * Fraction(1, 2) + X4


def test_ihoe_relations_match_manifest(each_example):
    assert each_example.ihoe.lines() == each_example.entry.expected["relations"]


def test_commutator_table_two_routes(each_example):
    # the context's memoized table against per-pair commutators computed on
    # a freshly loaded context; the checked presentation is that same table
    ctx = each_example.ctx
    fresh = build_context(each_example.entry.load())
    ring = fresh.pres.ring
    gens = ring.generators
    expect = [((gi, gj), render_poly(fresh.commutator(ring.var(gi), ring.var(gj))))
              for i, gi in enumerate(gens) for gj in gens[:i]]
    assert [(key, render_poly(f)) for key, f in ctx.commutators().relations.items()] == expect
    assert ihoe_presentation(ctx) is ctx.commutators()


def test_strata_share_the_commutator_table(examples, monkeypatch):
    # two strata on one context compute the generator commutators once
    ctx = build_context(examples("u4-ex5").entry.load())
    group = ctx.pres
    calls = []
    commutator = TwistedContext.commutator

    def spy(self, f, g):
        calls.append((f, g))
        return commutator(self, f, g)

    monkeypatch.setattr(TwistedContext, "commutator", spy)
    for name in ("caseII", "caseI1"):
        stratum_presentation(group, ctx, group.named_subgroups["T"], group.named_points[name],
                             name)
    n = len(group.ring.generators)
    assert len(calls) == n * (n - 1) // 2


def test_ihoe_trivial_cocycle(examples):
    ex = examples("jordan4-minimal")
    ctx = TwistedContext.hopf(ex.pres, CounitPair(ex.pres))
    pres = ihoe_presentation(ctx)
    assert not pres.nonzero()


def test_ihoe_chain_containment(each_example):
    pres = each_example.ihoe
    g = each_example.pres
    for (a, b), f in pres.relations.items():
        if f.is_zero():
            continue
        assert f.counit() == 0
        assert f.max_generator_index() < max(g.gen_index(a), g.gen_index(b))


def test_primitive_generators_commute(each_example):
    pres = each_example.ihoe
    g = each_example.pres
    prims = [n for n in g.ring.generators if n not in g.q]
    for a in prims:
        for b in prims:
            if g.gen_index(a) > g.gen_index(b):
                assert pres.relations[(a, b)].is_zero()


def test_pairing_identity_all_pairs(each_example):
    ctx = each_example.ctx
    gens = ctx.pres.ring.generators
    for a in gens:
        for b in gens:
            assert ctx.pairing_identity_defect(a, b).is_zero()


def test_formula_vs_direct(each_example):
    ctx = each_example.ctx
    gens = ctx.pres.ring.generators
    for a in gens:
        for b in gens:
            xa, xb = ctx.pres.ring.var(a), ctx.pres.ring.var(b)
            assert ctx.generator_product_formula(a, b) == ctx.mul(xa, xb)
            assert ctx.generator_product_formula(a, b) - ctx.generator_product_formula(b, a) \
                == ctx.commutator(xa, xb)


@pytest.mark.parametrize("pair", [("F14", "F12"), ("F12", "F14")], ids=["F14.F12", "F12.F14"])
def test_closed_product_route_guard(examples, monkeypatch, pair):
    # a closed product that is wrong in either order of one generator pair
    # must stop the presentation
    ctx = examples("u4-ex6").ctx
    closed = TwistedContext.generator_product_formula

    def tampered(self, gi, gj):
        out = closed(self, gi, gj)
        return out + self.pres.ring.var("F12") if (gi, gj) == pair else out

    monkeypatch.setattr(TwistedContext, "generator_product_formula", tampered)
    with pytest.raises(TwistConsistencyError):
        ihoe_presentation(ctx)


@pytest.mark.parametrize("cid", catalog.ids())
def test_closed_product_is_independent_of_the_one_sided_product(monkeypatch, cid):
    # with K = J the direct route is J^{-1} applied to whatever one-sided
    # product it is given, so a closed route built on that product would
    # agree with a wrong one; each half loads the entry afresh, so no cache
    # carries a product across
    ctx = build_context(catalog.get(cid).load())
    ring = ctx.pres.ring
    pairs = [(a, b) for a in ring.generators for b in ring.generators]
    direct = {(a, b): render_poly(ctx.mul(ring.var(a), ring.var(b))) for a, b in pairs}

    def forbidden(*args):
        raise AssertionError("the closed route read a deformed or one-sided product")

    fresh = build_context(catalog.get(cid).load())
    monkeypatch.setattr(Cocycle, "right_product", forbidden)
    monkeypatch.setattr(TwistedContext, "mul_monomials", forbidden)
    assert {(a, b): render_poly(fresh.generator_product_formula(a, b))
            for a, b in pairs} == direct
    monkeypatch.undo()

    right_product = Cocycle.right_product

    def perturbed(self, x, y):
        out = right_product(self, x, y)
        if x.degree == y.degree == 1:
            out = dict(out)
            out[x.mul(y)] = out.get(x.mul(y), 0) + 1
        return out

    fresh = build_context(catalog.get(cid).load())
    monkeypatch.setattr(Cocycle, "right_product", perturbed)
    with pytest.raises(TwistConsistencyError):
        ihoe_presentation(fresh)


def test_associativity_generators(each_example):
    ctx = each_example.ctx
    gens = [ctx.pres.ring.var(n) for n in ctx.pres.ring.generators]
    for a in gens:
        for b in gens:
            for c in gens:
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_associativity_random(each_example):
    ctx = each_example.ctx
    rng = random.Random(zlib.crc32(each_example.entry.id.encode()) & 0xffff)
    for _ in range(50):
        a, b, c = rnd_polys(ctx.pres.ring, rng, 3)
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_mixed_context_associativity(examples, one_sided_right):
    # the one-sided deformation of the abelian plane is associative
    ex = examples("u3")
    one = one_sided_right(ex.pres, ex.ctx.right)
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = rnd_polys(ex.pres.ring, rng, 3)
        assert one.mul(one.mul(a, b), c) == one.mul(a, one.mul(b, c))


def test_mul_matches_the_term_pair_sum(each_example):
    # polynomials in the generators and parameters: the product's one dict
    # against the fold of mul_monomials over the term pairs, each scaled by
    # its parameter monomial
    ctx = each_example.ctx
    ring = ctx.pres.ring
    rng = random.Random(5)
    mons = ring.monomials_up_to(2, names=ring.names)
    for _ in range(10):
        f, g = (ring.combination((m.as_poly(), Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                                 for m in rng.sample(mons, 4)) for _ in range(2))
        want = ring.zero
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                want = want + ctx.mul_monomials(m1.gen_part, m2.gen_part) \
                    * m1.param_part.mul(m2.param_part).as_poly() * (c1 * c2)
        assert ctx.mul(f, g) == want, (f, g)


def _mul_loop(ctx, f, g):
    """`TwistedContext.mul` as its own loop over term pairs, each key's sum
    kept as a numerator over a denominator."""
    num, den = {}, {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            c, p = c1 * c2, m1.param_part.mul(m2.param_part)
            n, d = c.numerator, c.denominator
            for k, v in ctx.mul_monomials(m1.gen_part, m2.gen_part).terms.items():
                accumulate(num, den, k if p.is_one else k.mul(p), n * v.numerator,
                           d * v.denominator)
    return Poly(ctx.pres.ring, settle(num, den))


def _eval_loop(j, f, g):
    """`Cocycle.eval` as its own loop over term pairs, keyed by parameter part."""
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            v = j.pair(m1.gen_part, m2.gen_part)
            if v:
                k = m1.param_part.mul(m2.param_part)
                terms[k] = terms.get(k, ZERO) + c1 * c2 * v
    return Poly(j.pres.ring, terms)


def test_mul_and_eval_match_their_term_pair_loops(examples):
    # on heisenberg3, whose ring has the parameters x0, v0 and y0: the
    # product and the bilinear extension of J, J^-1 and R against the loops
    # they replaced, in value and in term order
    ctx = examples("heisenberg3").ctx
    ring = ctx.pres.ring
    mons = ring.monomials_up_to(2, names=ring.names)
    assert any(m.param_degree() for m in mons)
    term = st.tuples(st.sampled_from(mons), st.integers(-4, 4), st.integers(1, 3))
    poly = st.lists(term, min_size=1, max_size=5).map(
        lambda ts: ring.combination((m.as_poly(), Fraction(a, b)) for m, a, b in ts))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(poly, poly)
    def check(f, g):
        for got, want in [(ctx.mul(f, g), _mul_loop(ctx, f, g))] + [
                (j.eval(f, g), _eval_loop(j, f, g))
                for j in (ctx.right, ctx.right_inv, ctx.rform())]:
            assert list(got.terms.items()) == list(want.terms.items()), (f, g)

    check()


def test_one_sided_weyl(examples, one_sided_right):
    # the Weyl type of the one-sided twist is the manifest's, on every entry
    # that records one
    named = [cid for cid in catalog.ids() if "one_sided_weyl" in catalog.get(cid).expected]
    assert "u3" in named
    for cid in named:
        ex = examples(cid)
        one = one_sided_right(ex.pres, ex.ctx.right)
        report = weyl_detect(one.commutators().relation, ex.pres.ring)
        assert report.verdict == ex.entry.expected["one_sided_weyl"], cid
    ex = examples("u3")
    one = one_sided_right(ex.pres, ex.ctx.right)
    X, V = ex.pres.ring.var("X"), ex.pres.ring.var("V")
    assert one.mul(X, V) - one.mul(V, X) == ex.pres.ring.one


def test_rform_values(examples):
    ex = examples("u3")
    r = ex.ctx.rform()
    R = ex.pres.ring
    X, V = R.var("X"), R.var("V")
    assert r.eval(X, V) == 1
    assert r.eval(V, X) == -1
    augmentation = X * V - 2 * X
    assert r.eval(augmentation, R.one).is_zero()
    assert r.eval(R.one, augmentation).is_zero()
    # independent oracle: on a primitive first argument the form equals
    # the antisymmetrized cocycle
    j = ex.ctx.right
    for alpha in [V, X * V, V * V - X]:
        assert r.eval(X, alpha) == j.eval(X, alpha) - j.eval(alpha, X)


def test_rform_primitive_oracle_all(each_example):
    ctx = each_example.ctx
    r = ctx.rform()
    j = ctx.right
    g = ctx.pres
    rng = random.Random(4)
    prims = [n for n in g.ring.generators if n not in g.q]
    alphas = rnd_polys(g.ring, rng, 4, degree=3)
    for p in prims:
        xp = g.ring.var(p)
        for alpha in alphas:
            assert r.eval(xp, alpha) == j.eval(xp, alpha) - j.eval(alpha, xp)


def test_rform_axioms_bound3(each_example):
    rep = rform_axiom_check(each_example.ctx, 3)
    assert rep.ok, rep.failures[:3]


def test_rform_built_once_per_context():
    # R is built once per context, so each R-form check on it reads the
    # pair cache and the support levels the earlier checks filled
    data = catalog.get("u4-ex6").load()
    ctx = build_context(data)
    assert ctx.rform() is ctx.rform()
    rform_axiom_check(ctx, 4)
    assert len(ctx.rform().support._levels) > 1


def test_cotriangularity_deg3(each_example):
    ctx = each_example.ctx
    r = ctx.rform()
    g = ctx.pres
    for m1 in g.ring.monomials_up_to(2, include_one=False):
        for m2 in g.ring.monomials_up_to(1, include_one=False):
            total = Fraction(0)
            for (a1, a2), c1 in g.coproduct_monomial(m1).terms.items():
                for (b1, b2), c2 in g.coproduct_monomial(m2).terms.items():
                    v1 = r.pair(a1, b1)
                    if v1 == 0:
                        continue
                    v2 = r.pair(b2, a2)
                    if v2 == 0:
                        continue
                    total += c1 * c2 * v1 * v2
            assert total == 0


def test_twisted_antipode(each_example):
    ctx = each_example.ctx
    g = ctx.pres
    for name in g.ring.generators:
        x = g.ring.var(name)
        s = twisted_antipode(ctx, x)
        assert twisted_antipode(ctx, s) == x
        if name not in g.q:
            assert s == -x
    assert twisted_antipode(ctx, g.ring.one) == g.ring.one


def _twisted_antipode_reference(ctx, f):
    """sum J^{-1}(a1, S a2) S(a3) J(S a4, a5), written out over Delta^4."""
    pres = ctx.pres
    S = pres.antipode_monomial
    out = pres.ring.zero
    for m, c in f.terms.items():
        delta4 = pres.iterated_coproduct_monomial(m.gen_part, 4)
        for (a1, a2, a3, a4, a5), c2 in delta4.terms.items():
            head = ctx.right_inv.eval(a1.as_poly(), S(a2))
            if head.is_zero():
                continue
            tail = ctx.right.eval(S(a4), a5.as_poly())
            if tail.is_zero():
                continue
            out = out + head * tail * S(a3) * (c * c2) * m.param_part.as_poly()
    return out


def test_twisted_antipode_matches_delta4_reference(each_example):
    # every monomial of degree <= 2 in the generators and parameters, and a
    # sum of them, against the rank-5 formula
    ctx = each_example.ctx
    ring = ctx.pres.ring
    mons = ring.monomials_up_to(2, names=ring.names)
    for m in mons:
        f = m.as_poly()
        assert twisted_antipode(ctx, f) == _twisted_antipode_reference(ctx, f), m
    f = ring.combination((m.as_poly(), Fraction(k - 3, 2)) for k, m in enumerate(mons))
    assert twisted_antipode(ctx, f) == _twisted_antipode_reference(ctx, f)


@pytest.mark.parametrize("cid", ["heisenberg3", "u4-ex5"])
def test_twisted_antipode_matches_delta4_reference_on_a_random_table(cid):
    # the Delta^2 form rests on coassociativity alone, so it holds for any
    # unital functional: here a random table, neither a cocycle nor equal to
    # the inverse of its swap, so J and J^{-1} cannot stand in for each other
    pres = catalog.get(cid).load().presentation
    rng = random.Random(3)
    mons = pres.ring.monomials_up_to(2, include_one=False)
    table = {(a, b): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for a in mons for b in mons}
    ctx = TwistedContext.hopf(pres, TableCocycle(pres, table, 6))
    for m in pres.ring.monomials_up_to(2):
        f = m.as_poly()
        assert twisted_antipode(ctx, f) == _twisted_antipode_reference(ctx, f), m


def test_twisted_antipode_beyond_the_solved_degree():
    # on u4-ex6's degree-3 monomials both routes raise the bound error on the
    # same nine inputs and agree on the rest; the Delta^2 route evaluates in
    # another order, so three of the nine name another pair
    outcomes, messages = [], []
    for route in (twisted_antipode, _twisted_antipode_reference):
        ctx = build_context(catalog.get("u4-ex6").load())
        outcomes.append([])
        messages.append([])
        for m in ctx.pres.ring.monomials_up_to(3):
            try:
                outcomes[-1].append(render_poly(route(ctx, m.as_poly())))
            except CocycleBoundError as err:
                outcomes[-1].append(CocycleBoundError)
                messages[-1].append(str(err))
    assert outcomes[0] == outcomes[1]
    assert len(messages[0]) == 9
    assert all(text.endswith("exceeds the solved total degree 6") for text in messages[0])
    assert sum(a != b for a, b in zip(*messages)) == 3


def test_twisted_antipode_axiom(examples):
    # m_J (S^J (x) id) Delta = eps on low-degree monomials
    ex = examples("jordan4-abelian")
    ctx = ex.ctx
    g = ex.pres
    for m in g.ring.monomials_up_to(2):
        total = g.ring.zero
        for (m1, m2), c in g.coproduct_monomial(m).terms.items():
            total = total + ctx.mul(twisted_antipode(ctx, m1.as_poly()), m2.as_poly()) * c
        assert total == g.ring.one * (1 if m.is_one else 0)


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


def _convolve(psi, other):
    """Table of psi(a) * other(b) up to the shared bound (for cross-checks)."""
    pres = psi.rform.pres
    out = {}
    for m in pres.ring.monomials_up_to(min(psi.bound, other.bound)):
        acc = pres.ring.zero
        for (m1, m2), c in pres.coproduct_monomial(m).terms.items():
            v1 = psi.value(m1.gen_part)
            if v1.is_zero():
                continue
            v2 = other.value(m2.gen_part)
            if v2.is_zero():
                continue
            acc = acc + v1 * v2 * c
        if not acc.is_zero():
            out[m] = acc
    return out


def test_psi_examples(examples):
    ex = examples("u3")
    ctx = ex.ctx
    r = ctx.rform()
    g = ex.pres
    X, V = g.ring.var("X"), g.ring.var("V")
    psi1 = PsiFunctional(r, g.ring.one, 3)
    for m in g.ring.monomials_up_to(3):
        want = g.ring.one * (1 if m.is_one else 0)
        assert psi1.value(m) == want

    psiX = PsiFunctional(r, X, 3)
    assert psiX.value(next(iter(V.terms))) == g.ring.const(-1)
    assert psiX.value(next(iter(X.terms))) == g.ring.zero
    assert psiX.value(g.ring.one_monomial) == g.ring.zero

    # multiplicativity against the deformed product
    psiV = PsiFunctional(r, V, 3)
    prod = PsiFunctional(r, ctx.mul(X, V), 3)
    conv = _convolve(psiX, psiV)
    for m in g.ring.monomials_up_to(3):
        assert prod.value(m) == conv.get(m, g.ring.zero)

    # distribution-at-identity evidence: the whole table is Psi_X(V) = -1,
    # so it vanishes above degree 1
    assert psiX.table == {next(iter(V.terms)): g.ring.const(-1)}


def test_winding_examples(examples, winding_left):
    ex = examples("heisenberg3")
    g = ex.pres
    p = g.point({"X": 2, "Y": -1, "V": 3})
    X, V, Y = g.ring.var("X"), g.ring.var("V"), g.ring.var("Y")
    assert winding_left(g, p, X) == X + 2
    assert winding_left(g, p, V) == V + 2 * Y + 3


def test_winding_mixed_homomorphism(examples, winding_left):
    # tau^l_g intertwines the deformation with a conjugate on the left;
    # unwinding the convolutions shows the left cocycle is the conjugate by
    # the *inverse* point: J^{-1} * (g (x) g) = (g (x) g) * K^{-1} forces
    # K = (g^{-1} (x) g^{-1}) * J * (g (x) g)
    ex = examples("jordan4-abelian")
    g = ex.pres
    j = ex.ctx.right
    pt = g.point({"X": 1, "Y": 2, "V": Fraction(1, 3), "W": -1})
    jg = j.conjugate(g.point_inv(pt))
    mixed = TwistedContext(g, jg, j)
    gens = [g.ring.var(n) for n in g.ring.generators]
    for a in gens:
        for b in gens:
            lhs = winding_left(g, pt, ex.ctx.mul(a, b))
            rhs = mixed.mul(winding_left(g, pt, a), winding_left(g, pt, b))
            assert lhs == rhs


def test_coalgebra_unchanged(each_example):
    # the deformation touches only multiplication: coproduct and counit of
    # the context's presentation render identically to a fresh parse
    fresh = each_example.entry.load().presentation
    g = each_example.pres
    for name in g.ring.generators:
        a = repr(g.coproduct_gen(name))
        b = repr(fresh.coproduct_gen(name))
        assert a == b
        assert g.ring.var(name).counit() == fresh.ring.var(name).counit()


def test_change_of_variable_minimal(examples):
    # substituting X' = X + Y^2/2 turns the minimal relations into
    # [W,X'] = Y and [W,V] = X'
    ex = examples("jordan4-minimal")
    g = ex.pres
    X, Y, V, W = (g.ring.var(n) for n in "XYVW")
    xprime = X + Y * Y * Fraction(1, 2)
    assert ex.ctx.commutator(W, xprime) == Y
    assert ex.ctx.commutator(W, V) == xprime
    assert ex.ctx.commutator(xprime, V) == g.ring.zero
    assert ex.ctx.commutator(xprime, Y) == g.ring.zero


@functools.cache
def _inverse(k):
    """K^{-1}, one evaluator per K, so its pair cache serves every reference call."""
    return k.inverse()


def _mul_monomials_reference(ctx, m1, m2):
    """sum K^{-1}(a1,b1) a2 b2 J(a3,b3), written out over Delta^2 x Delta^2."""
    kinv = _inverse(ctx.left).pair
    acc = {}
    for (a1, a2, a3), c1 in ctx.pres.iterated_coproduct_monomial(m1, 2).terms.items():
        for (b1, b2, b3), c2 in ctx.pres.iterated_coproduct_monomial(m2, 2).terms.items():
            head = kinv(a1, b1)
            if not head:
                continue
            v = head * ctx.right.pair(a3, b3)
            if v:
                m = a2.mul(b2)
                acc[m] = acc.get(m, 0) + v * c1 * c2
    return Poly(ctx.pres.ring, acc)


def test_mul_monomials_matches_delta2_reference(examples):
    # monomials up to degree 3, pairs up to total degree 4 (1,568 pairs, about
    # 2 s; all 7,056 pairs up to degree 3 each take the reference ~100 s)
    ctx = examples("u4-ex6").ctx
    mons = ctx.pres.ring.monomials_up_to(3)
    for m1 in mons:
        for m2 in mons:
            if m1.degree + m2.degree <= 4:
                assert ctx.mul_monomials(m1, m2) == _mul_monomials_reference(ctx, m1, m2), \
                    (m1, m2)


MIXED_POINTS = {
    "heisenberg3": {"X": 2, "Y": -1, "V": Fraction(1, 3)},
    "u4-ex5": {"F12": 1, "F23": -2, "F34": Fraction(1, 2), "F13": 3, "F24": -1, "F14": 2},
}


@pytest.mark.parametrize("side", ["one-sided", "mixed"])
@pytest.mark.parametrize("cid", sorted(MIXED_POINTS))
def test_mul_monomials_reference_one_sided_and_mixed(examples, cid, side, one_sided_right):
    # K = eps.eps (one-sided) and K = J^g (mixed) against the Delta^2
    # reference, on every pair of monomials up to total degree 3
    ex = examples(cid)
    g, j = ex.pres, ex.ctx.right
    if side == "one-sided":
        ctx = one_sided_right(g, j)
    else:
        ctx = TwistedContext(g, j.conjugate(g.point(MIXED_POINTS[cid])), j)
    mons = g.ring.monomials_up_to(3)
    pairs = [(m1, m2) for m1 in mons for m2 in mons if m1.degree + m2.degree <= 3]
    for m1, m2 in pairs:
        assert ctx.mul_monomials(m1, m2) == _mul_monomials_reference(ctx, m1, m2), (m1, m2)
    # the left cocycle matters: the context differs from the two-sided one,
    # except that heisenberg3's r = u_X ^ u_V is Ad-invariant (V is central),
    # so there J^g = J
    differs = any(ctx.mul_monomials(m1, m2) != ex.ctx.mul_monomials(m1, m2) for m1, m2 in pairs)
    assert differs == ((cid, side) != ("heisenberg3", "mixed"))


def test_mul_monomials_reference_drawn_pairs(examples):
    # hypothesis-drawn pairs of total degree 5 or 6 on the corrected
    # cocycle, beyond the exhaustive check above and within its solved bound
    ctx = examples("u4-ex6").ctx
    mons = ctx.pres.ring.monomials_up_to(4, include_one=False)
    pair = st.tuples(st.sampled_from(mons), st.sampled_from(mons)).filter(
        lambda p: 5 <= p[0].degree + p[1].degree <= 6)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(pair)
    def check(p):
        assert ctx.mul_monomials(*p) == _mul_monomials_reference(ctx, *p), p

    check()


def test_products_never_evaluate_the_left_inverse():
    # a fresh context, so that no closed form or R-form has touched J^{-1}
    ctx = build_context(catalog.get("u4-ex6").load())
    ring = ctx.pres.ring
    mons = ring.monomials_up_to(2)
    for m1 in mons:
        for m2 in mons:
            ctx.mul_monomials(m1, m2)
    gens = [ring.var(n) for n in ring.generators]
    ctx.commutators()
    ctx.mul(ctx.mul(gens[0], gens[5]), gens[3] * gens[4] - 2)
    assert ctx.right_inv._cache == {}


def test_graded_product_matches_ungraded_product():
    # u4-ex6's product reads only the in-class Delta terms of its cocycle K;
    # a new load whose cocycle has no support reads them all, with the same
    # products on every pair of monomials of degree <= 3 (total degree <= 6)
    products = []
    for graded in (True, False):
        data = catalog.get("u4-ex6").load()
        if not graded:
            data.cocycle.support = None
        ctx = build_context(data)
        assert (ctx.left.support_within(6) is not None) == graded
        mons = ctx.pres.ring.monomials_up_to(3, include_one=False)
        products.append([render_poly(ctx.mul_monomials(a, b)) for a in mons for b in mons])
    assert products[0] == products[1]


def test_product_beyond_the_solved_degree():
    # past the frozen table's total degree 6 a product raises the bound
    # error on the first pair it needs there
    ctx = build_context(catalog.get("u4-ex6").load())
    f14 = ctx.pres.ring.var("F14")
    with pytest.raises(CocycleBoundError) as err:
        ctx.mul(f14 ** 4, f14 ** 3)
    assert str(err.value) == "pair (F14^4, F14^3) exceeds the solved total degree 6"


def rform_failures(cid, graded, r_entries=None):
    """rform_axiom_check's failures at bound 4 on a new load, rendered.

    `r_entries` replaces the entry's r-matrix by one that breaks CYBE.
    """
    data = catalog.get(cid).load()
    j = data.cocycle
    if r_entries is not None:
        j = ExponentialCocycle(data.presentation, RMatrix(data.rmatrix.n, r_entries))
    if not graded:
        j.support = None
    ctx = TwistedContext.hopf(data.presentation, j)
    assert (ctx.rform().support is not None) == graded
    return repr(rform_axiom_check(ctx, 4).failures)


def commutation_right_side(ctx, R, groups):
    """Identity (2)'s right side sum R(h2,g2) g1.h1 over the given groups of Delta terms."""
    rhs = {}
    for d1, d2 in groups:
        for (h1, h2), c1 in d1:
            for (g1, g2), c2 in d2:
                v = R(h2, g2)
                if v:
                    for k, w in ctx.mul_monomials(g1, h1).terms.items():
                        rhs[k] = rhs.get(k, 0) + c1 * c2 * v * w
    return {k: v for k, v in rhs.items() if v}


@pytest.mark.parametrize("cid,r_entries,bound",
                         [(cid, None, 5) for cid in catalog.ids()]
                         + [("heisenberg3", {(0, 1): 1}, 4), ("u4-ex5", {(0, 1): 1}, 4)])
def test_rform_right_side_graded_matches_every_term(cid, r_entries, bound):
    # the right side of identity (2) summed over the graded walk's groups
    # for R of the second legs equals the sum over all of Delta(h) x Delta(g)
    data = catalog.get(cid).load()
    pres, j = data.presentation, data.cocycle
    if r_entries is not None:
        j = ExponentialCocycle(pres, RMatrix(data.rmatrix.n, r_entries))
    ctx = TwistedContext.hopf(pres, j)
    rform = ctx.rform()
    mons = pres.ring.monomials_up_to(bound - 1, include_one=False)
    skipped = 0
    for h in mons:
        for g in mons:
            if h.degree + g.degree > bound:
                continue
            full = [(pres.coproduct_monomial(h).terms.items(),
                     pres.coproduct_monomial(g).terms.items())]
            groups = pres.term_groups(h, g, rform.support_within(h.degree + g.degree), False)
            assert commutation_right_side(ctx, rform.pair, groups) \
                == commutation_right_side(ctx, rform.pair, full), (h, g)
            skipped += len(full[0][0]) * len(full[0][1]) - sum(len(a) * len(b) for a, b in groups)
    assert skipped > 0


@pytest.mark.parametrize("cid,r_entries", [(cid, None) for cid in catalog.ids()]
                         + [("heisenberg3", {(0, 1): 1}), ("u4-ex5", {(0, 1): 1})])
def test_rform_check_graded_route_matches_full_route(cid, r_entries):
    # the same failure list in the same order on both routes; the two
    # r-matrices off CYBE fail, and so does jordan4-minimal's J_r, which
    # is not a cocycle
    got = [rform_failures(cid, graded, r_entries) for graded in (True, False)]
    assert got[0] == got[1]
    assert (got[0] != "[]") == (r_entries is not None or cid == "jordan4-minimal")


def _memo_monomials(obj):
    # the monomial keys of obj's dict attributes (or tuples of dicts), and of
    # the dicts they hold
    out = set()
    for attr in vars(obj).values():
        for memo in (attr if isinstance(attr, tuple) else (attr,)):
            if not isinstance(memo, dict):
                continue
            for key, val in memo.items():
                out.update(x for x in (key, *(key if isinstance(key, tuple) else ()))
                           if isinstance(x, Monomial))
                if isinstance(val, dict):
                    out.update(x for x in val if isinstance(x, Monomial))
    return out


def test_grading_memos_stay_with_their_presentation():
    # two fresh loads of u4-ex6 multiply alike, and no memo of one load's
    # grading, or of the presentation it belongs to, holds a monomial of the
    # other load's ring
    loads = [build_context(catalog.get("u4-ex6").load()) for _ in range(2)]
    renders = []
    for ctx in loads:
        fs = rnd_polys(ctx.pres.ring, random.Random(25), 12, degree=3)
        renders.append([render_poly(ctx.mul(f, g)) for f in fs for g in fs[:4]])
    assert renders[0] == renders[1]
    gradings = [ctx.right.support.grading for ctx in loads]
    assert gradings[0] is not gradings[1] and None not in gradings
    for ctx, grading in zip(loads, gradings):
        own = _memo_monomials(grading)
        seen = own | _memo_monomials(ctx.pres)
        assert own and all(m.ring is ctx.pres.ring for m in seen)


def doubled(r):
    """2r: with J = exp(r/2) and r antisymmetric, J21 = J^-1, so R = (J21)^-1 * J = exp(r)."""
    return RMatrix(r.n, {(a, b): 2 * v for a, b, v in r.support if a < b})


def rform_against_exp_r(pres, r, bound):
    """Asserts that R and exp(r) agree within total degree `bound`; the number of nonzero values."""
    rform = TwistedContext.hopf(pres, ExponentialCocycle(pres, r)).rform()
    closed = ExponentialCocycle(pres, doubled(r))
    mons = pres.ring.monomials_up_to(bound - 1, include_one=False)
    pairs = [(a, b) for a in mons for b in mons if a.degree + b.degree <= bound]
    assert [rform.pair(a, b) for a, b in pairs] == [closed.pair(a, b) for a, b in pairs]
    return sum(1 for a, b in pairs if closed.pair(a, b))


@pytest.mark.parametrize("cid,r_entries", [(cid, None) for cid in catalog.ids() if cid != "u4-ex6"]
                         + [("heisenberg3", {(0, 1): 1}), ("u4-ex5", {(0, 1): 1})])
def test_rform_is_the_exponential_of_r(cid, r_entries):
    # the convolution R and exp(r) agree on every nonconstant pair within
    # total degree 6; the identity is algebraic, so it holds off CYBE too.
    # u4-ex6's corrections have no closed form and are left out
    data = catalog.get(cid).load()
    r = data.rmatrix if r_entries is None else RMatrix(data.rmatrix.n, r_entries)
    assert rform_against_exp_r(data.presentation, r, 6)


@pytest.mark.parametrize("cid", catalog.ids())
def test_rform_is_the_exponential_of_each_single_pair_r(cid):
    # every r with one pair u_a ^ u_b of the entry's Lie algebra, within
    # total degree 4
    pres = catalog.get(cid).load().presentation
    n = pres.ring.ngens
    for a in range(n):
        for b in range(a + 1, n):
            assert rform_against_exp_r(pres, RMatrix(n, {(a, b): 1}), 4)


# -- identity (2) from generator pairs against the per-pair sweep ---------------

OFF_CYBE = [("heisenberg3", {(0, 1): 1}), ("u4-ex5", {(0, 1): 1})]


def rform_commutation_sweep(ctx, bound):
    """Identities (3) and (2) of `rform_axiom_check` on every pair (h, g) of
    nonconstant monomials with total degree <= `bound`: the check's per-pair
    loop, the second route of its generator-pair certificate.

    The failures, in the loop's order: h, then g, grlex in each slot, and
    ("cotriangular", h, g) before ("commutation", h, g) on one pair.  (3) is
    read on the partners of h, as every other pair has both sides 0.
    """
    pres = ctx.pres
    rform = ctx.rform()
    R = rform.pair
    index = WeightIndex(rform, bound)
    mons = index.mons
    failures = []
    for x, h in enumerate(mons):
        end = index.upto(bound - h.degree)
        near = set(index.partners((x,), end))
        for y, g in enumerate(mons[:end]):
            support = rform.support_within(h.degree + g.degree)
            first = pres.term_groups(h, g, support, True)
            if y in near and pres.contract_groups(first, R, lambda a, b: R(b, a)):
                failures.append(("cotriangular", h, g))
            lhs = pres.contract_groups(first, R, lambda a, b: ctx.mul_monomials(a, b).terms)
            if lhs != commutation_right_side(ctx, R, pres.term_groups(h, g, support, False)):
                failures.append(("commutation", h, g))
    return failures


def exponential_context(cid, r_entries=None):
    """The two-sided context of J = exp(r/2) on the entry's presentation, with
    no corrections: r from `r_entries`, or the entry's own r."""
    data = catalog.get(cid).load()
    pres = data.presentation
    r = data.rmatrix if r_entries is None else RMatrix(data.rmatrix.n, r_entries)
    return TwistedContext.hopf(pres, ExponentialCocycle(pres, r))


def assert_routes_agree(ctx, bounds):
    # the check's (2) and (3) failures, in order, are the sweep's; its split
    # failures follow them
    for bound in bounds:
        failures = rform_axiom_check(ctx, bound).failures
        kept = [f for f in failures if not f[0].startswith("split")]
        assert kept == rform_commutation_sweep(ctx, bound), bound
        assert failures[:len(kept)] == kept


@pytest.mark.parametrize("cid", catalog.ids())
def test_rform_check_matches_the_pair_sweep(cid):
    assert_routes_agree(build_context(catalog.get(cid).load()), (3, 4, 5, 6))


@pytest.mark.parametrize("cid,r_entries", OFF_CYBE)
def test_rform_check_matches_the_pair_sweep_off_cybe(cid, r_entries):
    assert_routes_agree(exponential_context(cid, r_entries), (3, 4, 5, 6))


@pytest.mark.parametrize("cid", catalog.ids())
def test_rform_check_matches_the_pair_sweep_for_each_single_pair_r(cid):
    n = catalog.get(cid).load().rmatrix.n
    for a in range(n):
        for b in range(a + 1, n):
            assert_routes_agree(exponential_context(cid, {(a, b): 1}), (4,))


# the entries whose q has legs of degree <= 1 and whose J is a cocycle
GENERATOR_ROUTE = {"heisenberg3", "u3", "u4-ex5", "u4-ex6"}


@pytest.mark.parametrize("cid", catalog.ids())
def test_rform_check_route_by_entry(examples, cid):
    # the unit-leg entries certify (2) from generator pairs at every bound
    # 3-6; the jordan4 entries, whose q has a leg of degree 2, take the loop
    ctx = examples(cid).ctx
    assert [rform_axiom_check(ctx, b).from_generators for b in (3, 4, 5, 6)] == \
        [cid in GENERATOR_ROUTE] * 4


@pytest.mark.parametrize("cid", catalog.ids())
def test_rform_check_route_for_each_single_pair_r(cid):
    # generator pairs exactly where the legs are unit and J = exp(r/2) is a
    # cocycle at the bound; both happen on every entry
    n = catalog.get(cid).load().rmatrix.n
    routes = set()
    for a in range(n):
        for b in range(a + 1, n):
            ctx = exponential_context(cid, {(a, b): 1})
            fast = ctx.pres.leg_degree <= 1 and verify_cocycle_identity(ctx.right, 4).ok
            assert rform_axiom_check(ctx, 4).from_generators == fast, (a, b)
            routes.add(fast)
    assert routes == ({True} if cid == "u3" else {False} if cid.startswith("jordan4")
                      else {True, False})


@pytest.mark.parametrize("cid,r_entries,bound",
                         [(cid, e, b) for cid, e in OFF_CYBE + [("u4-ex5", {(0, 3): 1, (1, 5): 1})]
                          for b in (3, 4)] + [("u4-ex6", None, 3)],
                         ids=lambda v: "r" + "+".join("%d%d" % k for k in v)
                         if isinstance(v, dict) else None)
def test_rform_check_takes_the_loop_when_j_is_no_cocycle(cid, r_entries, bound):
    # unit legs and a J that fails the cocycle identity.  Off CYBE the split
    # triples fail too; with r = u_1^u_4 + u_2^u_6 on u4-ex5, and with
    # u4-ex6's J before its corrections, every triple passes and so does
    # every pair, and only the identity condition keeps the loop
    ctx = exponential_context(cid, r_entries)
    assert ctx.pres.leg_degree <= 1
    assert not verify_cocycle_identity(ctx.right, bound).ok
    rep = rform_axiom_check(ctx, bound)
    assert not rep.from_generators
    assert rep.ok == ((cid, r_entries) not in OFF_CYBE)
