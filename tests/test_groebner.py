import heapq
import json
import os
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitwist import catalog, cli, groebner, strata
from unitwist.groebner import (Ideal, TermOrder, buchberger, eliminate,
                               krull_dimension, normal_form)
from unitwist.poly import ZERO, Poly, PolyRing, parse_poly


def R(*gens, params=()):
    return PolyRing(gens, params)


def test_buchberger_examples():
    ring = R("X", "Y", "Z")
    order = TermOrder(ring)
    X = ring.var("X")
    assert buchberger([X], order) == [X]
    assert buchberger([X, X + 1], order) == [ring.one]
    # twisted cubic: eliminate X from <Y - X^2, Z - X^3>
    ideal = Ideal(ring, [ring.var("Y") - X ** 2, ring.var("Z") - X ** 3])
    kept = eliminate(ideal, TermOrder(ring, eliminate=["X"]))
    target = ring.var("Z") ** 2 - ring.var("Y") ** 3
    assert kept.contains(target)
    # the eliminant vanishes under the parametrization (substitution oracle)
    sub = PolyRing(("t",))
    for g in kept.groebner():
        img = g.substitute({"X": sub.var("t"), "Y": sub.var("t") ** 2,
                            "Z": sub.var("t") ** 3}, sub)
        assert img.is_zero()


def test_normal_form_examples():
    ring = R("X", "Y")
    order = TermOrder(ring)
    X, Y = ring.var("X"), ring.var("Y")
    gb = buchberger([X], order)
    assert normal_form(X * X, gb, order).is_zero()
    assert normal_form(X + Y, gb, order) == Y
    ring2 = R("F13", "F23", params=("a",))
    o2 = TermOrder(ring2)
    gb2 = buchberger([ring2.var("F23") - ring2.var("a")], o2)
    got = normal_form(ring2.var("F13") * ring2.var("F23"), gb2, o2)
    assert got == ring2.var("a") * ring2.var("F13")
    # the remainder itself, not a multiple: Y^2 goes to the remainder before
    # X meets the lead 10*X of 10*X - 3 and the scale becomes 20
    gb3 = buchberger([parse_poly("2/3*X - 1/5", ring)], order)
    assert [str(g) for g in gb3] == ["X - 3/10"]
    got = normal_form(parse_poly("Y^2 + 1/2*X", ring), gb3, order)
    assert got == parse_poly("Y^2 + 3/20", ring)


def test_eliminate_trivial_cases():
    ring = R("x", "y")
    ideal = Ideal(ring, [ring.var("y") - ring.var("x") ** 2])
    assert eliminate(ideal, TermOrder(ring, eliminate=["x"])).groebner() == []
    same = eliminate(ideal, TermOrder(ring))
    assert same == ideal


def test_krull_dimension_examples():
    ring6 = R("a", "b", "c", "d", "e", "f")
    assert krull_dimension(Ideal(ring6, [])) == 6
    ring2 = R("X", "Y")
    assert krull_dimension(Ideal(ring2, [ring2.var("X") * ring2.var("Y")])) == 1
    ring4 = R("X", "V", "W", "Y", params=("w0",))
    ideal = Ideal(ring4, [ring4.var("Y"), ring4.var("W") - ring4.var("w0")])
    assert krull_dimension(ideal) == 2
    unit = Ideal(ring2, [ring2.one])
    assert krull_dimension(unit) == -1


def test_gb_idempotence_and_uniqueness():
    rng = random.Random(17)
    ring = R("X", "Y", "Z")
    order = TermOrder(ring)
    mons = ring.monomials_up_to(3)
    for _ in range(8):
        gens = []
        for _ in range(3):
            p = ring.zero
            for m in rng.sample(mons, 3):
                p = p + m.as_poly() * Fraction(rng.randint(-4, 4))
            gens.append(p)
        gb = buchberger(gens, order)
        assert buchberger(gb, order) == gb
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, order) == gb


def test_membership_soundness():
    rng = random.Random(23)
    ring = R("X", "Y", "Z")
    order = TermOrder(ring)
    X, Y, Z = (ring.var(n) for n in "XYZ")
    gens = [X * Y - Z, Y ** 2 - 1]
    ideal = Ideal(ring, gens)
    mons = ring.monomials_up_to(2)
    for _ in range(10):
        combo = ring.zero
        for g in gens:
            coeff = ring.zero
            for m in rng.sample(mons, 2):
                coeff = coeff + m.as_poly() * Fraction(rng.randint(-3, 3))
            combo = combo + coeff * g
        assert ideal.contains(combo)
        # adding a standard monomial leaves the ideal
        nf_basis = [m for m in mons if not normal_form(m.as_poly(), ideal.groebner(), order).is_zero()]
        extra = nf_basis[rng.randrange(len(nf_basis))]
        assert not ideal.contains(combo + extra.as_poly())


def test_elimination_vs_substitution_parametrized():
    # a parametrized surface: every eliminant vanishes under substitution
    ring = R("s", "t", "X", "Y", "Z")
    X, Y, Z, s, t = (ring.var(n) for n in ("X", "Y", "Z", "s", "t"))
    ideal = Ideal(ring, [X - s * t, Y - s, Z - t * t])
    kept = eliminate(ideal, TermOrder(ring, eliminate=["s", "t"]))
    assert kept.groebner()
    sub = PolyRing(("u", "v"))
    for g in kept.groebner():
        img = g.substitute({"X": sub.var("u") * sub.var("v"), "Y": sub.var("u"),
                            "Z": sub.var("v") ** 2, "s": sub.var("u"),
                            "t": sub.var("v")}, sub)
        assert img.is_zero()


def test_dimension_order_independence():
    perm_a = R("X", "Y", "Z", params=("p",))
    perm_b = R("Z", "X", "Y", params=("p",))
    gens_a = [parse_poly("X*Y - p*Z", perm_a), parse_poly("Y^2 - Z", perm_a)]
    gens_b = [g.substitute({}, perm_b) for g in gens_a]
    assert krull_dimension(Ideal(perm_a, gens_a)) == krull_dimension(Ideal(perm_b, gens_b))


def test_ideal_equality_and_sum():
    ring = R("X", "Y")
    X, Y = ring.var("X"), ring.var("Y")
    a = Ideal(ring, [X + Y, Y])
    b = Ideal(ring, [X, Y])
    assert a == b
    c = Ideal(ring, [X]) + Ideal(ring, [Y])
    assert c == b
    assert Ideal(ring, [X, X + 1]).contains(ring.one)


# -- sympy as an independent oracle ------------------------------------------

def _random_ideal(rng, ring, ngens=3, nterms=3, bound=2):
    mons = ring.monomials_up_to(bound, names=ring.names)
    gens = []
    for _ in range(ngens):
        p = ring.zero
        for m in rng.sample(mons, nterms):
            p = p + m.as_poly() * Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                           rng.choice([1, 1, 2]))
        gens.append(p)
    return gens


def _to_sympy(p, symbols):
    sympy = pytest.importorskip("sympy")
    out = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in zip(p.ring.names, m.exps):
            term *= symbols[name] ** e
        out += term
    return sympy.expand(out)


def _sympy_basis(polys, gens_high_first, symbols, order):
    sympy = pytest.importorskip("sympy")
    exprs = [_to_sympy(p, symbols) for p in polys]
    gb = sympy.groebner(exprs, *[symbols[n] for n in gens_high_first],
                        order=order, domain="QQ")
    return {sympy.expand(g) for g in gb.exprs}


def test_buchberger_matches_sympy_grlex():
    # grlex_key compares the last generator first, so sympy's grlex with
    # the generators listed in reverse is the same order
    sympy = pytest.importorskip("sympy")
    ring = R("X", "Y", "Z")
    symbols = {n: sympy.Symbol(n) for n in ring.names}
    order = TermOrder(ring)
    for k in range(40):
        rng = random.Random(1000 + k)
        gens = _random_ideal(rng, ring, ngens=rng.choice([2, 3]))
        ours = {_to_sympy(g, symbols) for g in buchberger(gens, order)}
        assert ours == _sympy_basis(gens, ("Z", "Y", "X"), symbols, "grlex"), k


def test_parameter_block_matches_sympy_product_order():
    # parameters sort below every generator: a product order, generators first
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grlex
    ring = R("X", "Y", params=("a",))
    symbols = {n: sympy.Symbol(n) for n in ring.names}
    product = ProductOrder((grlex, lambda m: m[:2]), (grlex, lambda m: m[2:]))
    order = TermOrder(ring)
    for k in range(15):
        rng = random.Random(2000 + k)
        gens = _random_ideal(rng, ring, ngens=2)
        ours = {_to_sympy(g, symbols) for g in buchberger(gens, order)}
        assert ours == _sympy_basis(gens, ("Y", "X", "a"), symbols, product), k


def test_eliminate_matches_sympy_product_order():
    # the block order: the eliminated names (last one compared first) by
    # grlex, then grlex on the whole monomial, which on equal blocks is
    # grlex on the kept generators
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grlex
    ring = R("s", "X", "Y", "Z")
    symbols = {n: sympy.Symbol(n) for n in ring.names}
    product = ProductOrder((grlex, lambda m: m[:1]), (grlex, lambda m: m[1:]))
    block = TermOrder(ring, eliminate=("s",))
    for k in range(20):
        rng = random.Random(3000 + k)
        gens = _random_ideal(rng, ring, ngens=2)
        full = _sympy_basis(gens, ("s", "Z", "Y", "X"), symbols, product)
        assert {_to_sympy(g, symbols) for g in buchberger(gens, block)} == full, k
        s = symbols["s"]
        kept = [g for g in full if not g.has(s)]
        want = set()
        if kept:
            want = {sympy.expand(g) for g in sympy.groebner(
                kept, symbols["Z"], symbols["Y"], symbols["X"],
                order="grlex", domain="QQ").exprs}
        got = eliminate(Ideal(ring, gens), block).groebner()
        assert {_to_sympy(g, symbols) for g in got} == want, k


def _triangular_graph_ideal(rng):
    """A graph ideal X_i - f_i(s, X_<i) in 4 to 6 variables, with a parameter
    s to eliminate, or s and t in 5 variables (more keeps sympy slow): f_i is
    1 to 3 terms of degree <= 2 in the parameters or linear in an earlier X.
    Most pairs of its leads are coprime (about 70 %), as in the strata's graph
    ideals and unlike `_random_ideal`'s."""
    nvars = rng.choice([4, 5, 6])
    params = ("s", "t")[:rng.choice([1, 2]) if nvars == 5 else 1]
    kept = ("X", "Y", "Z", "W", "V")[:nvars - len(params)]
    ring = R(*(params + kept))
    gens = []
    for i, x in enumerate(kept):
        mons = ring.monomials_up_to(2, include_one=False, names=params) \
            + [ring.var_monomial(y) for y in kept[:i]]
        f = ring.zero
        for m in rng.sample(mons, min(len(mons), rng.choice([1, 2, 3]))):
            f = f + m.as_poly() * Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                           rng.choice([1, 1, 2]))
        gens.append(ring.var(x) - f)
    return ring, params, kept, gens


def test_triangular_graph_ideals_match_sympy_product_order():
    # the block basis and the eliminated ideal against sympy and against the
    # Fraction route, which settles a coprime pair only when it pops it
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grlex
    for k in range(30):
        rng = random.Random(4000 + k)
        ring, params, kept, gens = _triangular_graph_ideal(rng)
        symbols = {n: sympy.Symbol(n) for n in ring.names}
        n = len(params)
        product = ProductOrder((grlex, lambda m, n=n: m[:n]), (grlex, lambda m, n=n: m[n:]))
        block = TermOrder(ring, eliminate=params)
        gb = buchberger(gens, block)
        assert gb == _buchberger_reference(gens, block), k
        full = _sympy_basis(gens, params[::-1] + kept[::-1], symbols, product)
        assert {_to_sympy(g, symbols) for g in gb} == full, k
        below = [g for g in full if not any(g.has(symbols[p]) for p in params)]
        want = set()
        if below:
            want = {sympy.expand(g) for g in sympy.groebner(
                below, *[symbols[x] for x in kept[::-1]], order="grlex", domain="QQ").exprs}
        got = eliminate(Ideal(ring, gens), block).groebner()
        assert {_to_sympy(g, symbols) for g in got} == want, k


# -- the reference route: Buchberger and division over Fraction -------------

def _normal_form_reference(f, basis, order):
    """Full multivariate division over Fraction; the unique remainder."""
    if f.is_zero():
        return f
    leads = [order.leading(g) + (g,) for g in basis if not g.is_zero()]
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work[m]
        hit = next(((lm, lc, g) for lm, lc, g in leads if lm.divides(m)), None)
        if hit is None:
            del work[m]
            remainder[m] = remainder.get(m, ZERO) + c
            continue
        lm, lc, g = hit
        factor = m.divide(lm)
        scale = Fraction(c, lc)
        for gm, gc in g.terms.items():
            mm = gm.mul(factor)
            v = work.get(mm, ZERO) - scale * gc
            if v == 0:
                work.pop(mm, None)
            else:
                work[mm] = v
    return Poly(f.ring, remainder)


def _buchberger_reference(gens, order):
    """Reduced Groebner basis over Fraction, monic at every step."""
    basis = [g * Fraction(1, order.leading(g)[1]) for g in gens if not g.is_zero()]
    basis.sort(key=lambda g: order.key(order.leading(g)[0]))
    leads = [order.leading(g)[0] for g in basis]
    pairs = []

    def add_pairs(i):
        for j in range(i):
            l = leads[i].lcm(leads[j])
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
        if any(k not in (i, j) and lk.divides(l) and (max(i, k), min(i, k)) in done
               and (max(j, k), min(j, k)) in done for k, lk in enumerate(leads)):
            continue
        s = basis[i] * l.divide(li).as_poly() - basis[j] * l.divide(lj).as_poly()
        r = _normal_form_reference(s, basis, order)
        if not r.is_zero():
            lm, lc = order.leading(r)
            basis.append(r * Fraction(1, lc))
            leads.append(lm)
            add_pairs(len(basis) - 1)
    minimal = [g for i, g in enumerate(basis)
               if not any(k != i and lh.divides(leads[i]) and (lh is not leads[i] or k < i)
                          for k, lh in enumerate(leads))]
    reduced = []
    for i, g in enumerate(minimal):
        r = _normal_form_reference(g, minimal[:i] + minimal[i + 1:], order)
        reduced.append(r * Fraction(1, order.leading(r)[1]))
    reduced.sort(key=lambda g: order.key(order.leading(g)[0]), reverse=True)
    return reduced


# rings and orders for the two-route tests: graded lex, a parameter below the
# generators, and a block order eliminating s; `sympy` names the same order
ORDERS = {
    "grlex": (("X", "Y", "Z"), (), ()),
    "parameter": (("X", "Y"), ("a",), ()),
    "eliminate": (("s", "X", "Y"), (), ("s",)),
}


def _order(case):
    gens, params, drop = ORDERS[case]
    ring = R(*gens, params=params)
    return ring, TermOrder(ring, eliminate=drop)


def _sympy_order(case, symbols):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grlex
    if case == "grlex":
        return [symbols[n] for n in ("Z", "Y", "X")], "grlex"
    if case == "parameter":
        return [symbols[n] for n in ("Y", "X", "a")], ProductOrder(
            (grlex, lambda m: m[:2]), (grlex, lambda m: m[2:]))
    return [symbols[n] for n in ("s", "Y", "X")], ProductOrder(
        (grlex, lambda m: m[:1]), (grlex, lambda m: m[1:]))


def _polys(ring, max_terms, degree):
    # coefficients with coprime denominators, so leading coefficients are
    # rarely units once cleared (2/7*X - 3/5*Y)
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 5, 7]))
    mons = ring.monomials_up_to(degree, names=ring.names)
    return st.dictionaries(st.sampled_from(mons), coeff, min_size=1, max_size=max_terms) \
        .map(lambda terms: Poly(ring, terms))


@pytest.mark.parametrize("case", sorted(ORDERS))
def test_buchberger_matches_fraction_route(case):
    # equal lists, in order and monic, not only equal sets
    ring, order = _order(case)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.lists(_polys(ring, 3, 2), min_size=1, max_size=3))
    def check(gens):
        assert buchberger(gens, order) == _buchberger_reference(gens, order)

    check()


@pytest.mark.parametrize("case", sorted(ORDERS))
def test_normal_form_is_the_exact_remainder(case):
    # three routes to the remainder of f: the integer kernel, the Fraction
    # division and sympy's reduced; a kernel that drops its scale, or scales
    # the work without the partial remainder, returns another polynomial
    sympy = pytest.importorskip("sympy")
    ring, order = _order(case)
    symbols = {n: sympy.Symbol(n) for n in ring.names}
    variables, sympy_order = _sympy_order(case, symbols)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.lists(_polys(ring, 3, 2), min_size=1, max_size=3), _polys(ring, 6, 3))
    def check(gens, f):
        gb = buchberger(gens, order)
        got = normal_form(f, gb, order)
        assert got == _normal_form_reference(f, gb, order)
        _, want = sympy.reduced(_to_sympy(f, symbols), [_to_sympy(g, symbols) for g in gb],
                                *variables, order=sympy_order, domain="QQ")
        assert _to_sympy(got, symbols) == sympy.expand(want)

    check()


def test_kernel_divisors_are_primitive(monkeypatch):
    # every polynomial the kernel divides by, inputs and remainders that
    # joined the basis alike, has content 1 and a positive lead: dropping
    # the primitive part changes no output, only the size of the integers
    seen = []
    reduce = groebner._reduce

    def spy(work, divisors, order, den=1):
        seen.extend((order, d) for d in divisors)
        return reduce(work, divisors, order, den)

    monkeypatch.setattr(groebner, "_reduce", spy)
    for case in sorted(ORDERS):
        ring, order = _order(case)

        @settings(derandomize=True, database=None, max_examples=20, deadline=None)
        @given(st.lists(_polys(ring, 3, 2), min_size=2, max_size=3))
        def check(gens):
            # content 6 at least, so the entry has a content to remove
            buchberger([g * 6 for g in gens], order)

        check()
    assert seen
    for order, (lm, lc, terms) in seen:
        assert lm == max(terms, key=order.key) and terms[lm] == lc > 0
        assert gcd(*terms.values()) == 1


SWEEP_POOL = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs",
                          "strata-sweep.json")


def test_strata_graph_ideals_match_fraction_route(monkeypatch):
    # the graph ideals the double cosets and gTg^-1 eliminate from, at the
    # first variant of three strata-sweep slots per group: the block basis
    # and the kept ideal's basis against the Fraction route
    seen = []

    def spy(ideal, order):
        kept = eliminate(ideal, order)
        seen.append((ideal, order.eliminate, kept))
        return kept

    monkeypatch.setattr(strata, "eliminate", spy)
    with open(SWEEP_POOL) as fh:
        pool = json.load(fh)
    for group in ("u4-ex5", "u4-ex6"):
        data = catalog.get(group).load()
        pres, ctx = data.presentation, cli.build_context(data)
        for slot in pool["groups"][group][:3]:
            text = slot["variants"][0]["point"]
            coords = dict(part.split("=", 1) for part in text.split(","))
            point = pres.point({k: parse_poly(v, pres.ring) for k, v in coords.items()})
            strata.stratum_presentation(pres, ctx, pres.named_subgroups[pool["subgroup"]],
                                        point, name=text)
    assert len(seen) >= 12
    for ideal, drop, kept in seen:
        block = TermOrder(ideal.ring, eliminate=drop)
        assert buchberger(ideal.gens, block) == _buchberger_reference(ideal.gens, block)
        assert kept.groebner() == _buchberger_reference(kept.gens, TermOrder(ideal.ring))
        # the strata map `kept.gens` to the group ring without a new basis
        assert kept.gens == kept.groebner()
