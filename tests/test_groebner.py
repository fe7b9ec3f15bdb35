import random
from fractions import Fraction

import pytest

from unitwist.groebner import (Ideal, TermOrder, buchberger, eliminate,
                               krull_dimension, normal_form)
from unitwist.poly import PolyRing, parse_poly


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
    kept = eliminate(ideal, ["X"])
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


def test_eliminate_trivial_cases():
    ring = R("x", "y")
    ideal = Ideal(ring, [ring.var("y") - ring.var("x") ** 2])
    assert eliminate(ideal, ["x"]).groebner() == []
    same = eliminate(ideal, [])
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
    kept = eliminate(ideal, ["s", "t"])
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
        got = eliminate(Ideal(ring, gens), ["s"]).groebner()
        assert {_to_sympy(g, symbols) for g in got} == want, k
