"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Every check prints a single PASS line on success so the suite can be read
as a checklist: run `pytest tests/test_acceptance.py -v -s`.
"""

import random
from fractions import Fraction

import pytest

from unitwist import catalog
from unitwist.cli import run_c0
from unitwist.cocycle import ExponentialCocycle, verify_cocycle_identity
from unitwist.poly import parse_poly, render_poly
from unitwist.strata import (_free_variables, commutator_ideal_and_gamma,
                             hopf_ideal_check, polycentral_check,
                             stratum_presentation, subgroup_F, subgroup_ideal,
                             weyl_detect)
from unitwist.twist import rform_axiom_check, twisted_antipode

# read from each entry's manifest; test_support_split_matches_the_lie_data
# checks the key against the entry's own r-matrix and Lie brackets
ABELIAN_SUPPORT = tuple(cid for cid in catalog.ids()
                        if catalog.get(cid).expected["abelian_support"])
NONABELIAN_SUPPORT = tuple(cid for cid in catalog.ids()
                           if not catalog.get(cid).expected["abelian_support"])


def ok(msg):
    print("PASS: " + msg)


def gb_strings(ideal):
    return [render_poly(g) for g in ideal.groebner()]


def test_criterion_01_abelian_jordan_presentation(examples):
    ex = examples("jordan4-abelian")
    assert ex.ihoe.lines() == ["[W,X] = Y", "[W,V] = 1/2*Y^2"]
    assert len(ex.ihoe.nonzero()) == 2
    ok("criterion 1: four-dimensional abelian-support presentation "
       "[W,X]=Y, [W,V]=Y^2/2, all other commutators 0")


def test_criterion_02_minimal_jordan_presentation(examples):
    ex = examples("jordan4-minimal")
    g = ex.pres
    assert ex.ihoe.lines() == ["[W,X] = Y", "[W,V] = 1/2*Y^2 + X"]
    assert len(ex.ihoe.nonzero()) == 2
    X, Y, V, W = (g.ring.var(n) for n in "XYVW")
    xprime = X + Y * Y * Fraction(1, 2)
    assert ex.ctx.commutator(W, xprime) == Y
    assert ex.ctx.commutator(W, V) == xprime
    for other in (Y, V):
        assert ex.ctx.commutator(xprime, other).is_zero()
    ok("criterion 2: minimal presentation [W,X]=Y, [W,V]=Y^2/2+X; after "
       "X' = X + Y^2/2 the relations read [W,X']=Y, [W,V]=X'")


def test_criterion_03_u4_presentations(examples):
    ex5 = examples("u4-ex5")
    rel5 = ex5.ihoe
    expected5 = {("F12", "F24"): "F23", ("F12", "F14"): "F13",
                 ("F34", "F13"): "F23", ("F34", "F14"): "F24"}
    for (a, b), text in expected5.items():
        assert rel5.relation(a, b) == parse_poly(text, ex5.pres.ring)
    assert len(rel5.nonzero()) == 4

    ex6 = examples("u4-ex6")
    rel6 = ex6.ihoe
    R6 = ex6.pres.ring
    assert rel6.relation("F14", "F12") == parse_poly("F34", R6)
    assert rel6.relation("F14", "F24") == parse_poly("F23 - F34", R6)
    # the middle relation is pinned by two independent evaluation routes
    # (direct deformed product and the closed-form expansion, cross-checked
    # inside ihoe_presentation): F12 + F23*F34 - F24
    assert rel6.relation("F14", "F13") == parse_poly("F12 + F23*F34 - F24", R6)
    assert len(rel6.nonzero()) == 3
    ok("criterion 3: both U(4) presentations: four relations / three "
       "relations and no others")


def test_criterion_04_one_sided_weyl(examples, one_sided_right):
    ex = examples("u3")
    one = one_sided_right(ex.pres, ex.ctx.right)
    X, V = ex.pres.ring.var("X"), ex.pres.ring.var("V")
    assert one.mul(X, V) - one.mul(V, X) == ex.pres.ring.one
    report = weyl_detect(one.commutators().relation, ex.pres.ring, ex.pres.ring.generators)
    assert report.verdict == ex.entry.expected["one_sided_weyl"] == "A_1"
    ok("criterion 4: one-sided twist of the planar support gives X.V - V.X "
       "= 1 and the A_1 detection fires")


def test_support_split_matches_the_lie_data(each_example):
    # the generators r pairs span an abelian subalgebra exactly where the
    # manifest says so, and each split is a nonempty part of the catalog
    lie = each_example.pres.lie_data()
    support = [a for a, row in enumerate(each_example.data.rmatrix.matrix) if any(row)]
    abelian = all(not any(lie.bracket_basis(a, b)) for a in support for b in support)
    assert abelian == each_example.entry.expected["abelian_support"]
    assert ABELIAN_SUPPORT and NONABELIAN_SUPPORT


def test_criterion_05_cocycle_axioms(examples):
    for cid in ABELIAN_SUPPORT:
        ex = examples(cid)
        rep = verify_cocycle_identity(ex.ctx.right, 4)
        assert rep.ok, cid
    recorded = {}
    for cid in NONABELIAN_SUPPORT:
        ex = examples(cid)
        raw = ExponentialCocycle(ex.pres, ex.data.rmatrix)
        rep = verify_cocycle_identity(raw, 3)
        recorded[cid] = rep.ok
        assert rep.ok == ex.entry.expected["exponential_identity"][3]
        # downstream golden values still match: relations are re-checked here
        assert ex.ihoe.lines() == ex.entry.expected["relations"]
    ok("criterion 5: cocycle axioms pass at bound 4 on every abelian-support "
       "entry; nonabelian exponential verdicts at bound 3 recorded as %r "
       "with downstream goldens intact" % (recorded,))


def test_criterion_06_rform(each_example):
    ex = each_example
    rep = rform_axiom_check(ex.ctx, 3)
    assert rep.ok, rep.failures[:2]
    # R(p, alpha) = (J - J21)(p, alpha) for primitive p, deg(alpha) <= 3
    g = ex.pres
    r = ex.ctx.rform()
    j = ex.ctx.right
    rng = random.Random(len(ex.entry.id))
    mons = g.ring.monomials_up_to(3, include_one=False)
    alphas = []
    for _ in range(5):
        p = g.ring.zero
        for m in rng.sample(mons, 3):
            p = p + m.as_poly() * Fraction(rng.randint(-3, 3))
        alphas.append(p)
    prims = [n for n in g.ring.generators if n not in g.q]
    for pname in prims:
        xp = g.ring.var(pname)
        for alpha in alphas:
            assert r.eval(xp, alpha) == j.eval(xp, alpha) - j.eval(alpha, xp)
    ok("criterion 6 [%s]: cotriangular form axioms at bound 3 plus the "
       "primitive-pairing identity" % ex.entry.id)


def test_criterion_07_involutive_antipode(each_example):
    ex = each_example
    for name in ex.pres.ring.generators:
        x = ex.pres.ring.var(name)
        assert twisted_antipode(ex.ctx, twisted_antipode(ex.ctx, x)) == x
    ok("criterion 7 [%s]: (S^J)^2 = id on all generators" % ex.entry.id)


def test_criterion_08_gamma_reports(examples):
    ex5 = examples("u4-ex5")
    rep5 = commutator_ideal_and_gamma(ex5.ctx)
    assert gb_strings(rep5.commutator_ideal) == ["F24", "F13", "F23"]
    assert rep5.gamma_dim == 3
    g5 = ex5.pres
    nsub = g5.add_subgroup("Ncheck", ["n1", "n2", "n3"], {})
    pr = nsub.param_ring
    nsub = g5.add_subgroup("Ncheck", ["n1", "n2", "n3"],
                           {"F12": pr.var("n1"), "F34": pr.var("n2"),
                            "F14": pr.var("n3")})
    assert rep5.commutator_ideal == subgroup_ideal(g5, nsub)

    ex6 = examples("u4-ex6")
    rep6 = commutator_ideal_and_gamma(ex6.ctx)
    assert gb_strings(rep6.commutator_ideal) == ["F24 - F12", "F34", "F23"]

    ex4 = examples("jordan4-minimal")
    rep4 = commutator_ideal_and_gamma(ex4.ctx)
    g4 = ex4.pres
    vw = g4.add_subgroup("VWcheck", ["f1", "f2"], {})
    pr4 = vw.param_ring
    vw = g4.add_subgroup("VWcheck", ["f1", "f2"],
                         {"V": pr4.var("f1"), "W": pr4.var("f2")})
    assert rep4.commutator_ideal == subgroup_ideal(g4, vw)

    ex2 = examples("heisenberg3")
    rep2 = commutator_ideal_and_gamma(ex2.ctx)
    assert rep2.commutator_ideal.is_zero()
    ok("criterion 8: 1-dimensional module groups: normalizer ideal "
       "<F23,F13,F24>; <F34,F23,F12-F24>; the {E13,E14}-plane; zero ideal "
       "for the invariant cocycle")


def test_criterion_09_strata(examples):
    ex3 = examples("jordan4-abelian")
    g3 = ex3.pres
    T3 = g3.named_subgroups["T"]
    s_norm = stratum_presentation(g3, ex3.ctx, T3, g3.named_points["normalizing"])
    assert gb_strings(s_norm.ideal) == ["W - w0", "Y"]
    assert not s_norm.quotient.nonzero()
    assert s_norm.dims == (2, 2, 2)
    s_off = stratum_presentation(g3, ex3.ctx, T3, g3.named_points["offchain"])
    weyl = s_off.flags["weyl"]
    assert "A_1-with-centre" in weyl[0]
    assert any("central" in l for l in weyl)

    ex5 = examples("u4-ex5")
    g5 = ex5.pres
    T5 = g5.named_subgroups["T"]
    s_i2 = stratum_presentation(g5, ex5.ctx, T5, g5.named_points["caseI2"])
    assert gb_strings(s_i2.ideal) == ["F24*F13 - a*F14", "F23 - a"]
    assert s_i2.dims == (2, 0, 4)
    seq = [parse_poly("F23 - a", g5.ring), parse_poly("F13*F24 - a*F14", g5.ring)]
    okp, _ = polycentral_check(seq, ex5.ctx)
    assert okp
    s_ii = stratum_presentation(g5, ex5.ctx, T5, g5.named_points["caseII"])
    assert not s_ii.quotient.nonzero()
    assert _free_variables(s_ii.ideal) == ["F12", "F34"]
    ok("criterion 9: stratum ideals, the A_1-with-centre factor, the "
       "polycentral order, and the two-variable polynomial quotient")


def test_criterion_10_dimension_law(examples):
    strata_count = 0
    for cid in catalog.ids():
        ex = examples(cid)
        g = ex.pres
        for spec in ex.entry.expected.get("strata", []):
            stratum = stratum_presentation(g, ex.ctx, g.named_subgroups["T"],
                                           g.named_points[spec["point"]], spec["point"])
            dim_t, dim_tg, dim_q = stratum.dims
            assert dim_q == 2 * dim_t - dim_tg
            assert stratum.dims == spec["dims"]
            strata_count += 1
    assert strata_count == 9
    ok("criterion 10: staircase dimension equals 2 dim T - dim T_g on all "
       "%d catalog strata, with dim T_g from the independent conjugate "
       "elimination" % strata_count)


def test_criterion_11_F_and_fixed_locus(examples):
    ex4 = examples("jordan4-minimal")
    lie = ex4.pres.lie_data()
    T4 = ex4.pres.named_subgroups["T"]
    data, ker = subgroup_F(lie, T4.tangent_vectors(), ex4.data.rmatrix)
    ambient = sorted(tuple(v) for v in data.kernel_in_ambient())
    assert ambient == [(0, 0, 0, 1), (0, 0, 1, 0)]
    assert len(ker) == 2 == data.dim - lie.derived_dim(sub_basis=data.basis)
    for cid in NONABELIAN_SUPPORT + ("u4-ex5",):
        ex = examples(cid)
        rep = run_c0(ex.data, ex.entry.expected["c0_bound"])
        assert rep.matches_gamma, (cid, rep.describe())
    ok("criterion 11: ker(delta) = span{u_V, u_W} of dimension 2, and the "
       "fixed-cocycle locus equals the module group on all three twisted "
       "U(4)/minimal entries at their default bounds")


def test_criterion_12_property_suites(examples):
    rng = random.Random(1209)
    for cid in catalog.ids():
        ex = examples(cid)
        g = ex.pres
        gens = [g.ring.var(n) for n in g.ring.generators]
        for a in gens:
            for b in gens:
                for c in gens:
                    assert ex.ctx.mul(ex.ctx.mul(a, b), c) == ex.ctx.mul(a, ex.ctx.mul(b, c))
        mons = g.ring.monomials_up_to(2, include_one=False)
        for _ in range(10):
            ps = []
            for _ in range(3):
                p = g.ring.zero
                for m in rng.sample(mons, 3):
                    p = p + m.as_poly() * Fraction(rng.randint(-3, 3))
                ps.append(p)
            a, b, c = ps
            assert ex.ctx.mul(ex.ctx.mul(a, b), c) == ex.ctx.mul(a, ex.ctx.mul(b, c))
        for a in g.ring.generators:
            for b in g.ring.generators:
                assert ex.ctx.pairing_identity_defect(a, b).is_zero()
                xa, xb = g.ring.var(a), g.ring.var(b)
                assert ex.ctx.generator_product_formula(a, b) \
                    - ex.ctx.generator_product_formula(b, a) == ex.ctx.commutator(xa, xb)
        gam = commutator_ideal_and_gamma(ex.ctx)
        assert hopf_ideal_check(g, gam.commutator_ideal)
        fresh = ex.entry.load().presentation
        for name in g.ring.generators:
            assert repr(g.coproduct_gen(name)) == repr(fresh.coproduct_gen(name))
    ok("criterion 12: associativity (generator and random triples), the "
       "generator pairing identity, formula-vs-direct commutators, the "
       "Hopf-ideal check, and coalgebra invariance all hold exactly")
