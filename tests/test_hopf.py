import pathlib
import random
import re
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unitwist
from unitwist import linalg
from unitwist.cocycle import ExponentialCocycle, RMatrix, WeightGrading
from unitwist.groupfile import default_degree_bound
from unitwist.hopf import GroupPresentation, PresentationError, SubgroupParam
from unitwist.poly import Poly, PolyRing, TensorPoly, parse_poly, rational, render_poly
from unitwist.strata import subgroup_ideal


def heisenberg():
    g = GroupPresentation("heis", ["X", "Y", "V"])
    X, Y = g.ring.var("X"), g.ring.var("Y")
    g.set_q("V", TensorPoly.from_polys([X, Y]))
    return g


def restrict(T, f, target=None, rename=None):
    """Restriction O(G) -> Q[t1..tm] of a polynomial: substitute T's parametrization."""
    image = T.restriction(target, rename)
    return sum((image(m) * c for m, c in f.terms.items()), (target or T.param_ring).zero)


def winding_right(g, p, f):
    """tau^r_p : f -> sum f1 f2(p), beside the `winding_left` fixture."""
    out = g.ring.zero
    for m, c in f.terms.items():
        for (m1, m2), c2 in g.coproduct_monomial(m).terms.items():
            out = out + m1.as_poly() * g.evaluate(m2.as_poly(), p) * (c * c2)
    return out


def random_poly(ring, rng, degree=3, terms=4):
    mons = ring.monomials_up_to(degree, names=ring.generators)
    p = ring.zero
    for m in rng.sample(mons, min(terms, len(mons))):
        p = p + m.as_poly() * rng.randint(-4, 4)
    return p


def test_coproduct_examples():
    g = heisenberg()
    R = g.ring
    X, Y, V = R.var("X"), R.var("Y"), R.var("V")
    one = R.one
    assert g.coproduct(X) == TensorPoly.from_polys([X, one]) + TensorPoly.from_polys([one, X])
    assert g.coproduct(V) == (TensorPoly.from_polys([V, one]) + TensorPoly.from_polys([one, V])
                              + TensorPoly.from_polys([X, Y]))
    assert g.coproduct(X * X) == (TensorPoly.from_polys([X * X, one])
                                  + TensorPoly.from_polys([X, X]).scale(2)
                                  + TensorPoly.from_polys([one, X * X]))


def test_coproduct_is_algebra_map(each_example):
    g = each_example.pres
    rng = random.Random(13)
    for _ in range(4):
        f = random_poly(g.ring, rng, degree=2)
        h = random_poly(g.ring, rng, degree=1)
        assert g.coproduct(f * h) == g.coproduct(f).slotwise_mul(g.coproduct(h))


def test_iterated_coproduct_examples():
    g = heisenberg()
    R = g.ring
    X, Y, V = R.var("X"), R.var("Y"), R.var("V")
    one = R.one
    t = g.iterated_coproduct_monomial(R.var_monomial("X"), 2)
    assert t == (TensorPoly.from_polys([X, one, one]) + TensorPoly.from_polys([one, X, one])
                 + TensorPoly.from_polys([one, one, X]))
    # the five-group expansion: primitive spine, 1 (x) q, and (id (x) Delta) q
    tv = g.iterated_coproduct_monomial(R.var_monomial("V"), 2)
    expected = (TensorPoly.from_polys([V, one, one]) + TensorPoly.from_polys([one, V, one])
                + TensorPoly.from_polys([one, one, V]) + TensorPoly.from_polys([one, X, Y])
                + TensorPoly.from_polys([X, Y, one]) + TensorPoly.from_polys([X, one, Y]))
    assert tv == expected


def test_coassociativity_random(each_example):
    g = each_example.pres
    rng = random.Random(5)
    for _ in range(3):
        f = random_poly(g.ring, rng, degree=3)
        d = g.coproduct(f)
        assert d.map_slot(1, g.coproduct_monomial) == d.map_slot(2, g.coproduct_monomial)


def test_coassociativity_monomials_deg4(each_example):
    g = each_example.pres
    for m in g.ring.monomials_up_to(4 if g.ring.ngens <= 4 else 3):
        d = g.coproduct_monomial(m)
        assert d.map_slot(1, g.coproduct_monomial) == d.map_slot(2, g.coproduct_monomial)


def test_antipode_examples():
    g = heisenberg()
    R = g.ring
    X, Y, V = R.var("X"), R.var("Y"), R.var("V")
    assert g.antipode_monomial(R.var_monomial("X")) == -X
    assert g.antipode_monomial(R.var_monomial("V")) == -V + X * Y
    assert g.antipode_monomial(R.one_monomial) == R.one


def test_antipode_axiom(each_example):
    g = each_example.pres
    bound = 4 if g.ring.ngens <= 4 else 3
    for m in g.ring.monomials_up_to(bound):
        left = g.ring.zero
        right = g.ring.zero
        for (m1, m2), c in g.coproduct_monomial(m).terms.items():
            left = left + g.antipode_monomial(m1) * m2.as_poly() * c
            right = right + m1.as_poly() * g.antipode_monomial(m2) * c
        expected = g.ring.one * (1 if m.is_one else 0)
        assert left == expected and right == expected


def test_point_examples(point_mul):
    g = heisenberg()
    p = g.point({"X": 2, "Y": 3, "V": 5})
    q = g.point({"X": 7, "Y": Fraction(1, 2), "V": 11})
    prod = point_mul(g, p, q)
    # the V coordinate of a product is v_p + v_q + x_p y_q
    assert prod.coord("V") == g.ring.const(5 + 11 + 2 * Fraction(1, 2))
    e = g.identity_point()
    same = point_mul(g, p, e)
    for n in g.ring.generators:
        assert same.coord(n) == p.coord(n)
    inv_e = g.point_inv(e)
    for n in g.ring.generators:
        assert inv_e.coord(n) == g.ring.zero


def test_point_group_laws(each_example, point_mul):
    g = each_example.pres
    rng = random.Random(31)

    def random_point():
        return g.point({n: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for n in g.ring.generators})

    for _ in range(3):
        p, q, r = random_point(), random_point(), random_point()
        lhs = point_mul(g, point_mul(g, p, q), r)
        rhs = point_mul(g, p, point_mul(g, q, r))
        for n in g.ring.generators:
            assert lhs.coord(n) == rhs.coord(n)
        pinv = g.point_inv(p)
        back = point_mul(g, p, pinv)
        for n in g.ring.generators:
            assert back.coord(n) == g.ring.zero
        # evaluation is multiplicative
        f = random_poly(g.ring, rng, degree=2)
        h = random_poly(g.ring, rng, degree=2)
        assert g.evaluate(f * h, p) == g.evaluate(f, p) * g.evaluate(h, p)


def test_coinvariants_trivial_subgroup():
    g = heisenberg()
    t = g.add_subgroup("one", [], {})
    basis = g.coinvariants(t, 2)
    assert len(basis) == len(g.ring.monomials_up_to(2))


# Heisenberg coproduct corrections q(V), as factor names (none: abelian)
HEIS_Q = {"xy": ("X", "Y"), "yx": ("Y", "X"), "abelian": None}
# the X-axis, and the curve t -> (t, t, t^2/2), a subgroup for q(V) = X (x) Y
HEIS_SUBGROUPS = {"axis": {"X": "t"}, "curve": {"X": "t", "Y": "t", "V": "1/2*t^2"}}


def set_heis_q(g, q):
    factors = HEIS_Q[q]
    g.set_q("V", TensorPoly.from_polys([g.ring.var(f) for f in factors]) if factors
            else TensorPoly.zero(g.ring, 2))


def heis_subgroup(g, name):
    ring = PolyRing(("t",))
    return SubgroupParam(g, ("t",), {k: parse_poly(v, ring)
                                     for k, v in HEIS_SUBGROUPS[name].items()})


def memoized_results(g, subgroup):
    """The two memoized point-independent results, rendered ring-free."""
    return ([render_poly(p) for p in subgroup_ideal(g, subgroup).groebner()],
            [[render_poly(p) for p in g.coinvariants(subgroup, 2, side)]
             for side in ("left", "right", "double")])


def fresh_results(q, name):
    g = GroupPresentation("heis", ["X", "Y", "V"])
    set_heis_q(g, q)
    return memoized_results(g, heis_subgroup(g, name))


def test_presentation_takes_q_only_through_set_q():
    # set_q checks that a q-tensor lives over the group's own ring; the
    # constructor has no second way in that skips the check
    with pytest.raises(TypeError):
        GroupPresentation("heis", ["X", "Y", "V"], q_data={})
    g = GroupPresentation("heis", ["X", "Y", "V"])
    other = PolyRing(["X", "Y", "V"])
    foreign = TensorPoly.from_polys([other.var("X"), other.var("Y")])
    with pytest.raises(PresentationError, match="over the group ring"):
        g.set_q("V", foreign)


def test_subgroup_memos_seal_q():
    # the subgroup memos read q, so once they are filled set_q raises, and
    # they keep the values of a fresh presentation with that q
    seen = set()
    for q in HEIS_Q:
        g = GroupPresentation("heis", ["X", "Y", "V"])
        set_heis_q(g, q)
        subgroups = {name: heis_subgroup(g, name) for name in HEIS_SUBGROUPS}
        got = {name: memoized_results(g, subgroup) for name, subgroup in subgroups.items()}
        for other in HEIS_Q:
            with pytest.raises(PresentationError, match="fixed once read"):
                set_heis_q(g, other)
        for name, subgroup in subgroups.items():
            assert memoized_results(g, subgroup) == got[name] == fresh_results(q, name), (q, name)
            seen.add(repr((name, got[name])))
    # the results differ between the q's, so a refused set_q that got
    # through would show
    assert len(seen) == 6


SEALING_READS = {
    "coproduct_monomial": lambda g, V: g.coproduct_monomial(V),
    "antipode_monomial": lambda g, V: g.antipode_monomial(V),
    "word_table": lambda g, V: g.word_table(V, 2),
    "corad_degree_monomial": lambda g, V: g.corad_degree_monomial(V),
    "lie_data": lambda g, V: g.lie_data(),
    "coinvariants": lambda g, V: g.coinvariants(heis_subgroup(g, "axis"), 2),
    "validate": lambda g, V: g.validate(),
    "point_inv": lambda g, V: g.point_inv(g.point({"X": 1, "Y": 1})),
    # the Delta weights, read by both of the grading's rules, are solved from q
    "WeightGrading.of": lambda g, V: WeightGrading.of(g, RMatrix(3, {(0, 1): 1})),
    "Cocycle.conjugate": lambda g, V: ExponentialCocycle(g, RMatrix(3, {(0, 2): 1}))
    .conjugate(g.point({"X": 1})),
    "default_degree_bound": lambda g, V: default_degree_bound(g),
    "leg_degree": lambda g, V: g.leg_degree,
}


@pytest.mark.parametrize("read", sorted(SEALING_READS))
def test_reading_q_seals_it(read):
    g = heisenberg()
    q_v = TensorPoly.from_polys([g.ring.var("X"), g.ring.var("Y")])
    g.set_q("V", q_v)  # set_q still works: nothing has read q yet
    SEALING_READS[read](g, g.ring.var_monomial("V"))
    with pytest.raises(PresentationError, match="fixed once read"):
        g.set_q("V", q_v)


def test_leg_degree_is_the_largest_slot_degree(each_example):
    # against a scan of every slot entry of every q; the jordan4 entries have
    # slots of degree 2, and u3 has no q
    pres = each_example.pres
    scan = [m.degree for q in pres.q.values() for key in q.terms for m in key]
    assert pres.leg_degree == max(scan, default=0)
    assert pres.leg_degree == {"u3": 0, "jordan4-abelian": 2,
                               "jordan4-minimal": 2}.get(each_example.entry.id, 1)
    assert default_degree_bound(pres) == 2 * pres.leg_degree + 2


def test_q_is_a_read_only_view():
    g = heisenberg()
    with pytest.raises(TypeError):
        g.q["Y"] = g.q["V"]
    assert list(g.q) == ["V"]


def test_only_hopf_touches_the_q_store():
    # the seal lives in the `q` property; a module reading `_q` or
    # resetting `_q_read` directly would get round it
    src = pathlib.Path(unitwist.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py"))
            if p.name != "hopf.py" and re.search(r"\._q(\b|_read)", p.read_text())] == []


def test_memos_are_per_subgroup_object():
    g = GroupPresentation("heis", ["X", "Y", "V"])
    set_heis_q(g, "xy")
    want = {name: fresh_results("xy", name) for name in HEIS_SUBGROUPS}
    assert want["axis"] != want["curve"]
    for name in ("axis", "curve") * 8:
        # a new object each time, dropped right after: an entry keyed by
        # id() would be read back whenever a later object reuses the address
        assert memoized_results(g, heis_subgroup(g, name)) == want[name], name
    # equal parametrizations held side by side get equal, separate results
    a, b = heis_subgroup(g, "curve"), heis_subgroup(g, "curve")
    assert memoized_results(g, a) == memoized_results(g, b) == want["curve"]
    assert g.coinvariants(a, 2) is not g.coinvariants(a, 2)


def test_subgroup_closed_under_group_law(each_example):
    # the parametrized set is closed under multiplication: the coordinates
    # of point(s) . point(t) satisfy the subgroup's defining ideal
    g = each_example.pres
    T = g.named_subgroups["T"]
    ideal = subgroup_ideal(g, T)
    work = __import__("unitwist.poly", fromlist=["PolyRing"]).PolyRing(
        tuple("s_" + t for t in T.param_names) + tuple("t_" + t for t in T.param_names))

    def lift(m, prefix):
        return restrict(T, m.as_poly(), work, {t: prefix + t for t in T.param_names})

    coords = {}
    for name in g.ring.generators:
        gen_mono = next(iter(g.ring.var(name).terms))
        acc = work.zero
        for (m1, m2), c in g.coproduct_monomial(gen_mono).terms.items():
            a = lift(m1, "s_")
            if a.is_zero():
                continue
            b = lift(m2, "t_")
            if b.is_zero():
                continue
            acc = acc + a * b * c
        coords[name] = acc
    for p in ideal.groebner():
        image = p.substitute(coords, work)
        assert image.is_zero(), (each_example.entry.id, render_poly(p))


def _in_span(vecs_polys, p):
    from unitwist import linalg
    mons = sorted({m for q in vecs_polys + [p] for m in q.terms},
                  key=lambda m: m.exps)
    # p is in the span iff its column adds no pivot to the augmented matrix
    _, pivots = linalg.rref([[q.coefficient(m) for q in vecs_polys] + [p.coefficient(m)]
                             for m in mons])
    return len(vecs_polys) not in pivots


def test_coinvariants_u4_ex5(examples):
    ex = examples("u4-ex5")
    g = ex.pres
    basis = g.coinvariants(g.named_subgroups["T"], 2)
    R = g.ring
    for text in ex.entry.expected["coinvariants_deg2"]:
        assert _in_span(basis, parse_poly(text, R)), text


def test_coinvariants_u4_ex6(examples):
    ex = examples("u4-ex6")
    g = ex.pres
    basis = g.coinvariants(g.named_subgroups["T"], 2)
    R = g.ring
    for text in ex.entry.expected["coinvariants_deg2"]:
        assert _in_span(basis, parse_poly(text, R)), text
    # and X-like generators are not coset functions
    assert not _in_span(basis, R.var("F12"))


@pytest.mark.parametrize("bound", [2, 3])
def test_coinvariants_two_routes(each_example, bound, monkeypatch):
    # Route two: f is constant on left cosets iff f(x t) = f(x) for t in T,
    # and on right cosets iff f(t x) = f(x).  Substituting the product's
    # coordinates into f checks each basis element; the same substitution,
    # applied to each monomial, gives the linear system whose nullity sympy
    # computes.  Reversing the engine's rows must not change its basis.
    sympy = pytest.importorskip("sympy")
    from unitwist import linalg
    g = each_example.pres
    T = g.named_subgroups["T"]
    ring = PolyRing(g.ring.generators, g.ring.parameters + T.param_names)
    restrict = T.restriction(ring)

    def lift(p):
        return p.substitute({}, ring)

    coords = {}
    for side in ("left", "right"):
        coords[side] = {}
        for name in g.ring.generators:
            acc = ring.zero
            for (m1, m2), c in g.coproduct_monomial(g.ring.var_monomial(name)).terms.items():
                acc = acc + (lift(m1.as_poly()) * restrict(m2) if side == "left"
                             else restrict(m1) * lift(m2.as_poly())) * c
            coords[side][name] = acc
    mons = g.ring.monomials_up_to(bound)
    moved = {side: [m.as_poly().substitute(coords[side], ring) - lift(m.as_poly()) for m in mons]
             for side in coords}
    nullspace = linalg.nullspace
    for side in ("left", "right", "double"):
        sides = ["left", "right"] if side == "double" else [side]
        basis = g.coinvariants(T, bound, side)
        for f in basis:
            for s in sides:
                assert f.substitute(coords[s], ring) == lift(f), (side, render_poly(f))
        system = [[d.coefficient(t) for d in moved[s]]
                  for s in sides for t in sorted({t for d in moved[s] for t in d.terms},
                                                 key=lambda t: t.exps)]
        assert len(basis) == len(mons) - sympy.Matrix(system).to_DM().rank(), side
        monkeypatch.setattr(g, "_coinv", {})
        monkeypatch.setattr(linalg, "nullspace", lambda rows, n: nullspace(rows[::-1], n))
        assert g.coinvariants(T, bound, side) == basis, side
        monkeypatch.undo()


VALIDATE_PASS = ["PASS q-chain-containment", "PASS q-counit-free", "PASS coassociativity",
                 "PASS counit-axiom", "PASS antipode-axiom", "PASS lie-jacobi",
                 "PASS lie-nilpotent"]


def test_validate_catalog(each_example):
    rep = each_example.pres.validate()
    assert rep.ok, rep.lines()
    rep = each_example.pres.validate(strict=True)
    assert rep.lines() == VALIDATE_PASS + ["PASS strict-central-chain"]


def test_validate_chain_violation():
    g = GroupPresentation("bad", ["X", "Y"])
    X = g.ring.var("X")
    Y = g.ring.var("Y")
    g.set_q("Y", TensorPoly.from_polys([Y, X]))
    rep = g.validate()
    assert not rep.ok
    assert any("chain" in c.name for c in rep.checks if not c.ok)


def test_validate_counit_violation():
    g = GroupPresentation("bad2", ["X", "Y", "V"])
    X = g.ring.var("X")
    g.set_q("V", TensorPoly.from_polys([X, g.ring.one]))
    rep = g.validate()
    assert not rep.ok
    assert any("counit" in c.name for c in rep.checks if not c.ok)


def test_validate_coassociativity_violation():
    # q(W) = V (x) Y without the compensating X (x) Y^2/2 term fails, and
    # so does q(Z) = V (x) X; each check reports the first failing generator
    g = GroupPresentation("bad3", ["X", "Y", "V", "W", "Z"])
    X, Y, V = g.ring.var("X"), g.ring.var("Y"), g.ring.var("V")
    g.set_q("V", TensorPoly.from_polys([X, Y]))
    g.set_q("W", TensorPoly.from_polys([V, Y]))
    g.set_q("Z", TensorPoly.from_polys([V, X]))
    rep = g.validate()
    assert not rep.ok
    fail = "FAIL coassociativity: fails on W"
    assert rep.lines() == VALIDATE_PASS[:2] + [fail] + VALIDATE_PASS[3:]
    assert g.validate(strict=True).lines() == VALIDATE_PASS[:2] + [fail] + VALIDATE_PASS[3:] + [
        "FAIL strict-central-chain: conjugate of W shifts outside the lower chain"]


def test_validate_strict_conjugate_term_in_g_itself(monkeypatch):
    # a conjugate of g must shift g by terms in strictly lower generators.
    # The chain checks keep q(g) below g, so no parsed group gets a term in
    # g itself this far; the strict check is fed a conjugation map whose
    # image of V gains g_X V, a term whose largest generator is V
    g = heisenberg()
    assert g.validate(strict=True).lines() == VALIDATE_PASS + ["PASS strict-central-chain"]
    images_of = g.conjugation_images

    def tampered():
        ext, images = images_of()
        images["V"] = images["V"] + ext.var("g_X") * ext.var("V")
        return ext, images

    monkeypatch.setattr(g, "conjugation_images", tampered)
    assert g.validate().lines() == VALIDATE_PASS
    assert g.validate(strict=True).lines() == VALIDATE_PASS + [
        "FAIL strict-central-chain: conjugate of V shifts outside the lower chain"]


def test_lie_data_derivation():
    g = heisenberg()
    lie = g.lie_data()
    # [u_X, u_Y] = u_V and all other brackets vanish
    assert lie.bracket_basis(0, 1) == (0, 0, 1)
    assert lie.bracket_basis(1, 0) == (0, 0, -1)
    assert lie.bracket_basis(0, 2) == (0, 0, 0)
    ok, _ = lie.check_jacobi()
    assert ok and lie.check_nilpotent()


def is_subalgebra_per_pair(lie, vectors):
    """Whether the span of `vectors` is bracket-closed, one rank test per bracket."""
    red, _ = linalg.rref(vectors)
    for i, v in enumerate(vectors):
        for w in vectors[i + 1:]:
            b = lie.bracket(v, w)
            if any(b) and linalg.matrix_rank(red + [b]) > len(red):
                return False
    return True


def derived_dim_per_pair(lie, vectors):
    """dim of the span of the brackets of two of `vectors`."""
    brs = []
    for i, v in enumerate(vectors):
        for w in vectors[i + 1:]:
            b = lie.bracket(v, w)
            if any(b):
                brs.append(b)
    return linalg.matrix_rank(brs)


def test_subalgebra_and_derived_dim_match_the_per_pair_routes(each_example):
    lie = each_example.pres.lie_data()
    vector = st.lists(st.integers(-2, 2), min_size=lie.n, max_size=lie.n)
    closed = set()

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.lists(vector, min_size=1, max_size=3))
    def check(vectors):
        got = lie.is_subalgebra(vectors)
        assert got == is_subalgebra_per_pair(lie, vectors), vectors
        assert lie.derived_dim(sub_basis=vectors) == derived_dim_per_pair(lie, vectors), vectors
        closed.add(got)

    check()
    # a span in an abelian algebra is always closed
    assert closed == ({True, False} if lie.brackets else {True})


def test_winding_examples(winding_left):
    g = heisenberg()
    R = g.ring
    X, Y, V = R.var("X"), R.var("Y"), R.var("V")
    p = g.point({"X": 2, "Y": 3, "V": 5})
    assert winding_left(g, p, X) == X + 2
    assert winding_left(g, p, V) == V + 2 * Y + 5
    assert winding_right(g, p, V) == V + 3 * X + 5


def test_restriction_matches_substitution(examples):
    # the monomial map against a direct substitution of the parametrization
    g = examples("u4-ex6").pres
    T = g.named_subgroups["T"]
    rename = {t: "c_" + t for t in T.param_names}
    target = PolyRing(tuple(rename.values()), g.ring.parameters)
    image = T.restriction(target, rename)
    lifted = {t: target.var(rename[t]) for t in T.param_names}
    coords = {n: e.substitute(lifted, target) for n, e in T.coord_exprs.items()}
    mons = g.ring.monomials_up_to(3, names=g.ring.names)
    for m in mons:
        want = m.as_poly().substitute(coords, target)
        assert image(m) == want == restrict(T, m.as_poly(), target, rename), m
    plain = T.restriction()
    for m in g.ring.monomials_up_to(3):
        want = m.as_poly().substitute(T.coord_exprs, T.param_ring)
        assert plain(m) == want == restrict(T, m.as_poly()), m
    # multiplicative on monomials and on polynomials
    rng = random.Random(11)
    for _ in range(40):
        a, b = rng.choice(mons), rng.choice(mons)
        assert image(a.mul(b)) == image(a) * image(b)
        f, h = random_poly(g.ring, rng, degree=2), random_poly(g.ring, rng, degree=2)
        assert restrict(T, f * h, target, rename) == \
            restrict(T, f, target, rename) * restrict(T, h, target, rename)


# -- the Delta x Delta contraction kernel against a written-out double sum ----

def _values(seed, sign):
    """A deterministic scalar function on monomial pairs, zero on about 1 in 5."""
    def f(x, y):
        return Fraction(zlib.crc32(repr((seed, sign, x.exps, y.exps)).encode()) % 5 - 2)
    return f


def _contract_reference(pres, m1, m2, f, g):
    """sum c c' F(a1,b1) G(a2,b2) as a plain Fraction loop over the terms of
    Delta(m1) and Delta(m2): each slot value as a polynomial, None = x*y."""
    one = pres.ring.one_monomial

    def slot(h, x, y):
        if h is None:
            return {x.mul(y): Fraction(1)}
        v = h(x, y)
        return v if isinstance(v, dict) else {one: v}

    out = {}
    for (a1, a2), c1 in pres.coproduct_monomial(m1).terms.items():
        for (b1, b2), c2 in pres.coproduct_monomial(m2).terms.items():
            for k1, v1 in slot(f, a1, b1).items():
                for k2, v2 in slot(g, a2, b2).items():
                    k = k1.mul(k2)
                    out[k] = out.get(k, Fraction(0)) + c1 * c2 * v1 * v2
    return {k: v for k, v in out.items() if v}


def test_contract_matches_naive_double_sum(each_example, support_of):
    # all three slot shapes, rank-0 and graded; the graded slot (f, or g when
    # f is None) is masked to 0 off J's support (`conftest.leg_support`), as
    # a slot with that support is
    pres = each_example.pres
    mons = pres.ring.monomials_up_to(3)
    support = each_example.ctx.right.support_within(6)
    assert support is not None
    inside = support_of(each_example.ctx.right)
    fractional = [c for m in mons for c in pres.coproduct_monomial(m).terms.values()
                  if c.denominator != 1]
    assert bool(fractional) == each_example.entry.id.startswith("jordan4")

    def graded_values(seed, sign):
        h = _values(seed, sign)
        return lambda x, y: h(x, y) if inside(x, y) else Fraction(0)

    def dict_valued(x, y):
        # a dict-valued second slot: its keys key the result
        return {k: v for k, v in ((x.mul(y), _values(7, 0)(x, y)),
                                  (pres.ring.one_monomial, _values(7, 1)(y, x))) if v}

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.sampled_from(mons), st.sampled_from(mons), st.integers(0, 10 ** 6))
    def check(m1, m2, seed):
        f, g = _values(seed, 0), _values(seed, 1)
        gf, gg = graded_values(seed, 0), graded_values(seed, 1)
        for slots, graded in (((None, g), (None, gg)), ((f, g), (gf, g)),
                              ((f, dict_valued), (gf, dict_valued))):
            for got, shape in ((pres.contract(m1, m2, *slots), slots),
                               (pres.contract(m1, m2, *graded, support), graded)):
                assert got == _contract_reference(pres, m1, m2, *shape), (m1, m2, shape)
                # an int exactly when integral, never a float or an integral Fraction
                assert all(type(v) is int or type(v) is Fraction and v.denominator != 1
                           for v in got.values())

    check()


def test_contract_start_is_added_afterwards(each_example):
    # contract(..., start=s) equals the contraction plus s, key by key, on the
    # three slot shapes with J's and J^-1's values and the deformed products;
    # s holds Fractions, and cancels some keys of the contraction to 0
    ctx = each_example.ctx
    pres, j, jinv = ctx.pres, ctx.right, ctx.right_inv
    ring = pres.ring
    mons = ring.monomials_up_to(3)
    keys = ring.monomials_up_to(6)

    def products(a, b):
        return ctx.mul_monomials(a, b).terms

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.sampled_from(mons), st.sampled_from(mons),
           st.dictionaries(st.sampled_from(keys),
                           st.fractions(min_value=-5, max_value=5, max_denominator=6)
                           .filter(bool).map(rational), max_size=4),
           st.integers(0, 3))
    def check(m1, m2, extra, cancel):
        # each shape with the support of its first scalar slot
        for slots, graded in (((None, j.pair), j), ((j.pair, jinv.pair), j),
                              ((jinv.pair, products), jinv)):
            support = graded.support_within(6)
            plain = pres.contract(m1, m2, *slots, support)
            start = dict(extra)
            start.update((k, -v) for k, v in list(plain.items())[:cancel])
            got = pres.contract(m1, m2, *slots, support, start=start)
            assert got == (Poly(ring, plain) + Poly(ring, start)).terms, (m1, m2, slots)
            assert all(type(v) is int or type(v) is Fraction and v.denominator != 1
                       for v in got.values())

    check()


# -- the convolution kernel against a written-out sum over Delta^{k-1} --------

def _leg_map(seed, slot):
    """m -> v m, with an integer v that is 0 on about 1 in 5 monomials."""
    def phi(m):
        return m.as_poly() * (zlib.crc32(repr((seed, slot, m.exps)).encode()) % 5 - 2)
    return phi


@pytest.mark.parametrize("k", [2, 3])
def test_convolve_matches_naive_sum(each_example, k):
    # the sum, and how often each map is read: a term stops at its first zero factor
    pres = each_example.pres
    ring = pres.ring
    mons = ring.monomials_up_to(3)
    dropped = 0
    for seed, m in enumerate(mons):
        maps = [_leg_map(seed, i) for i in range(k)]
        want, want_calls = ring.zero, [0] * k
        for legs, c in pres.iterated_coproduct_monomial(m, k - 1).terms.items():
            values = [phi(leg) for phi, leg in zip(maps, legs)]
            read = next((i + 1 for i, v in enumerate(values) if v.is_zero()), k)
            dropped += read < k
            want_calls = [n + (i < read) for i, n in enumerate(want_calls)]
            prod = ring.one
            for v in values:
                prod = prod * v
            want = want + prod * c
        calls = [0] * k

        def counted(i):
            def phi(leg):
                calls[i] += 1
                return maps[i](leg)
            return phi

        f = m.as_poly() * Fraction(3, 2)
        assert pres.convolve([counted(i) for i in range(k)], f, ring) == want * Fraction(3, 2), m
        assert calls == want_calls, m
    # linear in f
    f = ring.combination((m.as_poly(), Fraction(i + 1, 3)) for i, m in enumerate(mons))
    maps = [_leg_map(0, i) for i in range(k)]
    assert pres.convolve(maps, f, ring) == ring.combination(
        (pres.convolve(maps, m.as_poly(), ring), Fraction(i + 1, 3)) for i, m in enumerate(mons))
    assert dropped  # some term stopped before its last factor
