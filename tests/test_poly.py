import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitwist import catalog
from unitwist.poly import (Monomial, Poly, PolyRing, RingContextError, TensorPoly, grlex_key,
                           parse_poly, render_poly)


def ring2():
    return PolyRing(["X", "V"])


def random_poly(ring, rng, degree=4, terms=5):
    mons = ring.monomials_up_to(degree)
    p = ring.zero
    for m in rng.sample(mons, min(terms, len(mons))):
        p = p + m.as_poly() * Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return p


def test_product_examples():
    R = ring2()
    X, V = R.var("X"), R.var("V")
    assert (X + 1) * (X - 1) == X * X - 1
    f = 3 * X * V + V - Fraction(1, 2)
    assert f * R.one == f
    assert (X * Fraction(1, 2)) * (2 * V) == X * V


def test_mismatched_rings_rejected():
    R1, R2 = ring2(), ring2()
    with pytest.raises(RingContextError):
        R1.var("X") + R2.var("V")


def test_ring_laws_random():
    rng = random.Random(20240811)
    R = PolyRing(["X", "V", "W"])
    for _ in range(25):
        f, g, h = (random_poly(R, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)


def test_degree_additivity():
    rng = random.Random(7)
    R = PolyRing(["X", "V"])
    for _ in range(20):
        f = random_poly(R, rng, degree=3)
        g = random_poly(R, rng, degree=3)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_render_parse_round_trip():
    rng = random.Random(99)
    R = PolyRing(["X", "Y", "V", "W"], parameters=("a",))
    for _ in range(40):
        f = random_poly(R, rng, degree=3, terms=6)
        assert parse_poly(render_poly(f), R) == f
    assert render_poly(R.zero) == "0"
    assert parse_poly("W*X + 1/2*Y", R) == R.var("W") * R.var("X") + R.var("Y") * Fraction(1, 2)


@pytest.mark.parametrize("cid", catalog.ids() + [None])
def test_render_parse_round_trip_property(examples, cid):
    # sparse polynomials over generators and parameters, with negative and
    # non-integral coefficients; None is a ring with parameters of its own
    R = PolyRing(["X", "Y", "V"], parameters=("a", "b")) if cid is None \
        else examples(cid).pres.ring
    mons = R.monomials_up_to(3, names=R.names)
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.dictionaries(st.sampled_from(mons), coeff, max_size=6))
    def check(terms):
        p = Poly(R, terms)
        assert parse_poly(render_poly(p), R) == p

    check()


def test_render_canonical_order():
    R = PolyRing(["X", "Y", "W"])
    f = R.var("W") * R.var("X") + R.var("Y") * Fraction(1, 2)
    assert render_poly(f) == "W*X + 1/2*Y"


def test_parse_juxtaposition():
    R = PolyRing(["X", "Y"])
    assert parse_poly("1/2 X Y^2", R) == R.var("X") * R.var("Y") ** 2 * Fraction(1, 2)


def test_tensor_normalization_idempotent():
    R = PolyRing(["X", "V"])
    X, V = R.var("X"), R.var("V")
    t = TensorPoly.from_polys([X + V, 2 * X - 1])
    # every slot entry of the normal form is a monomial
    for key in t.terms:
        for m in key:
            assert isinstance(m, Monomial)


def test_slot_contraction_examples():
    R = PolyRing(["X", "V", "Y"])
    X, V, Y = R.var("X"), R.var("V"), R.var("Y")
    eps = lambda p: p.counit()
    t = TensorPoly.from_polys([X, V])
    assert t.apply_linear_slot(1, eps).to_poly() == R.zero  # eps kills X
    one = TensorPoly.from_polys([R.one, V])
    assert one.apply_linear_slot(1, eps).to_poly() == V

    coeff_x = lambda p: p.coefficient_of_var("X")
    t2 = TensorPoly.from_polys([V, 2 * X + 1])
    assert t2.apply_linear_slot(2, coeff_x).to_poly() == 2 * V

    # direct expansion oracle: eps kills the augmentation-ideal slot entries,
    # so contracting the slot holding X and 1 keeps only the 1 (x) V term
    t3 = TensorPoly.from_polys([X, Y]) + TensorPoly.from_polys([R.one, V])
    assert t3.apply_linear_slot(1, eps).to_poly() == V
    assert t3.apply_linear_slot(2, eps).to_poly() == R.zero


def test_slot_contraction_linear():
    R = PolyRing(["X", "V"])
    X, V = R.var("X"), R.var("V")
    phi = lambda p: p.coefficient_of_var("V") + 2 * p.counit()
    a = TensorPoly.from_polys([X, V + 1])
    b = TensorPoly.from_polys([X * V, 3 * V])
    lhs = (a + b.scale(5)).apply_linear_slot(2, phi)
    rhs = a.apply_linear_slot(2, phi) + b.apply_linear_slot(2, phi).scale(5)
    assert lhs == rhs


def test_slot_out_of_range():
    R = PolyRing(["X", "V"])
    t = TensorPoly.from_polys([R.var("X"), R.var("V")])
    with pytest.raises(IndexError):
        t.apply_linear_slot(3, lambda p: p.counit())
    with pytest.raises(ValueError):
        TensorPoly.from_polys([R.var("X")]).apply_linear_slot(1, lambda p: p.counit())


def test_parameters_sort_below_generators():
    R = PolyRing(["X"], parameters=("a",))
    f = R.var("X") + R.var("a") ** 3
    # generator beats any parameter power in the term order
    assert render_poly(f) == "X + a^3"
    assert f.degree() == 1


# -- canonical monomials -------------------------------------------------------

def assert_canonical(m):
    assert m is m.ring.monomial(m.exps)


def test_monomials_are_canonical_on_every_path():
    from unitwist import catalog
    from unitwist.cli import build_context
    from unitwist.strata import c0_solver

    R = PolyRing(["X", "Y", "V"], parameters=("a", "b"))
    mons = R.monomials_up_to(3, names=R.names)
    for m in mons:
        assert_canonical(m)
        assert_canonical(m.gen_part)
        assert_canonical(m.param_part)
    for name in R.names:
        (m,) = R.var(name).terms
        assert_canonical(m)
    rng = random.Random(5)
    for _ in range(200):
        m1, m2 = rng.choice(mons), rng.choice(mons)
        for m in (m1.mul(m2), m1.lcm(m2), m1.mul(m2).divide(m2)):
            assert_canonical(m)
        assert m1.mul(m2).divide(m2) is m1
    for m in parse_poly("3*X^2*Y*a - 1/2*V*b^2 + 7", R).terms:
        assert_canonical(m)
    for m in parse_poly("2*X*a^2 + 4*Y*a*b", R).scale_down().terms:
        assert_canonical(m)

    data = catalog.get("u4-ex5").load()
    pres = data.presentation
    for m in pres.ring.monomials_up_to(3):
        for key in pres.coproduct_monomial(m).terms:
            for slot in key:
                assert_canonical(slot)
        for a in pres.antipode_monomial(m).terms:
            assert_canonical(a)
    ideal = c0_solver(pres, build_context(data).right, 2).ideal
    assert ideal.gens
    for p in ideal.gens:
        for m in p.terms:
            assert_canonical(m)


def test_equal_exponents_in_different_rings_differ():
    # the hash is the identity one: equal exponents in two rings are two keys
    R1, R2 = PolyRing(["X", "V"]), PolyRing(["X", "V"])
    for m1, m2 in zip(R1.monomials_up_to(2), R2.monomials_up_to(2)):
        assert m1.exps == m2.exps
        assert m1 != m2
        assert hash(m1) == hash(R1.monomial(m1.exps))
    assert len({m for R in (R1, R2) for m in R.monomials_up_to(2)}) \
        == 2 * len(R1.monomials_up_to(2))


def test_monomial_slots_match_their_definitions():
    R = PolyRing(["X", "Y", "V"], parameters=("a",))
    ng = R.ngens
    rng = random.Random(17)
    for _ in range(300):
        exps = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in R.names)
        m = R.monomial(exps)
        assert hash(m) == hash(R.monomial(exps))
        assert m.is_one == (not any(exps))
        assert m.degree == sum(exps[:ng])
        assert m.gen_part.exps == exps[:ng] + (0,) * (len(exps) - ng)
        assert m.param_part.exps == (0,) * ng + exps[ng:]
        assert m.gen_part.mul(m.param_part) is m


def test_substitute_matches_sympy():
    # an independent oracle for the one algebra map: images in a target ring
    # with variables of its own, some variables and parameters left to map
    # to their namesakes, images that are rational constants
    sympy = pytest.importorskip("sympy")
    R = PolyRing(["X", "Y", "V"], parameters=("a", "b"))
    S = PolyRing(["s", "X", "t"], parameters=("a", "b", "c"))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)

    def polys(ring, degree, size):
        mons = ring.monomials_up_to(degree, names=ring.names)
        return st.dictionaries(st.sampled_from(mons), coeff, max_size=size).map(
            lambda terms: Poly(ring, terms))

    image = st.one_of(polys(S, 2, 3), coeff)
    # Y and V have no namesake in S, so they always get an image
    images = st.fixed_dictionaries({"Y": image, "V": image},
                                   optional={"X": image, "a": image, "b": image})
    symbol = {n: sympy.Symbol(n) for n in R.names + S.names}

    def to_sympy(p):
        if not isinstance(p, Poly):
            return sympy.Rational(p.numerator, p.denominator)
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[symbol[n] ** e for n, e in zip(p.ring.names, m.exps)])
                    for m, c in p.terms.items()), sympy.Integer(0))

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(polys(R, 3, 5), images)
    def check(f, imgs):
        got = f.substitute(imgs, S)
        assert got.ring is S
        want = to_sympy(f).subs({symbol[n]: to_sympy(v) for n, v in imgs.items()},
                                simultaneous=True)
        assert sympy.expand(to_sympy(got) - want) == 0, (f, imgs)

    check()


@pytest.mark.parametrize("parameters", [(), ("a", "b")], ids=["plain", "parameters"])
def test_combination_matches_the_left_fold(parameters):
    # one dict against the fold out = out + p * c, over few monomials so that
    # terms collide; each drawn list is sent again with its negated pairs
    # appended, a sum that cancels to zero
    R = PolyRing(["X", "Y", "V"], parameters=parameters)
    mons = R.monomials_up_to(2, names=R.names)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    poly = st.dictionaries(st.sampled_from(mons), coeff.filter(bool), max_size=4).map(
        lambda terms: Poly(R, terms))

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.lists(st.tuples(poly, coeff | st.integers(-3, 3)), max_size=6))
    def check(pairs):
        fold = R.zero
        for p, c in pairs:
            fold = fold + p * c
        got = R.combination(pairs)
        assert got == fold and got.ring is R
        assert all(got.terms.values())
        assert R.combination(pairs + [(p, -c) for p, c in pairs]) == R.zero

    check()
    with pytest.raises(RingContextError):
        R.combination([(ring2().var("X"), 1)])


def test_monomials_up_to_matches_every_exponent_vector():
    # against a filter of every exponent vector, on a ring with a parameter;
    # each call returns a new list, so a caller's change does not reach the
    # next call
    R = PolyRing(["X", "Y", "Z"], ["a"])
    for names in (None, ("Z", "X"), R.names):
        idxs = [R.index[n] for n in (R.generators if names is None else names)]
        for bound in range(4):
            for include_one in (True, False):
                want = []
                for e in itertools.product(range(bound + 1), repeat=len(idxs)):
                    exps = [0] * len(R.names)
                    for i, x in zip(idxs, e):
                        exps[i] = x
                    if sum(e) <= bound and (include_one or any(e)):
                        want.append(R.monomial(exps))
                got = R.monomials_up_to(bound, include_one, names)
                assert got == sorted(want, key=grlex_key)
                got.append(R.one_monomial)
                assert R.monomials_up_to(bound, include_one, names) == sorted(want, key=grlex_key)
