import collections
import hashlib
import itertools
import json
import os
from fractions import Fraction

import pytest

from unitwist import catalog, cli
from unitwist.cocycle import ExponentialCocycle, RMatrix
from unitwist.groebner import Ideal, TermOrder, eliminate, normal_form
from unitwist.hopf import GroupPresentation
from unitwist.poly import PolyRing, parse_poly, render_poly
from unitwist.groupfile import parse_group_file
from unitwist.strata import (StratumError, c0_solver, commutator_ideal_and_gamma,
                             conjugate_subgroup_ideal, double_coset_ideal, fixed_locus_ideal,
                             hopf_ideal_check, polycentral_check, stabilizer_dimension,
                             stratum_presentation, subgroup_F, subgroup_ideal,
                             verify_two_sided, weyl_detect)


def ideal_gb_strings(ideal):
    return [render_poly(g) for g in ideal.groebner()]


def test_double_coset_ideals(examples):
    ex3 = examples("jordan4-abelian")
    g = ex3.pres
    T = g.named_subgroups["T"]
    assert ideal_gb_strings(double_coset_ideal(g, T, g.named_points["normalizing"])) \
        == ["W - w0", "Y"]
    assert ideal_gb_strings(double_coset_ideal(g, T, g.named_points["offchain"])) \
        == ["Y - y0"]
    # the identity point recovers the defining ideal of T itself
    assert ideal_gb_strings(subgroup_ideal(g, T)) == ["W", "Y"]

    ex5 = examples("u4-ex5")
    g5 = ex5.pres
    T5 = g5.named_subgroups["T"]
    assert ideal_gb_strings(double_coset_ideal(g5, T5, g5.named_points["caseI2"])) \
        == ["F24*F13 - a*F14", "F23 - a"]


def test_two_sidedness(examples):
    ex5 = examples("u4-ex5")
    g = ex5.pres
    T = g.named_subgroups["T"]
    ideal = double_coset_ideal(g, T, g.named_points["caseI2"])
    assert verify_two_sided(ideal, ex5.ctx)
    assert verify_two_sided(Ideal(g.ring, []), ex5.ctx)
    # a one-sided ideal: [F12, F14] = F13 does not lie in <F14>
    assert not verify_two_sided(Ideal(g.ring, [g.ring.var("F14")]), ex5.ctx)


def test_polycentral_examples(examples):
    ex5 = examples("u4-ex5")
    g = ex5.pres
    a = g.ring.var("a")
    seq = [parse_poly("F23 - a", g.ring), parse_poly("F13*F24 - a*F14", g.ring)]
    ok, idx = polycentral_check(seq, ex5.ctx)
    assert ok and idx is None
    ok, idx = polycentral_check([], ex5.ctx)
    assert ok
    ok, idx = polycentral_check(list(reversed(seq)), ex5.ctx)
    assert not ok and idx == 1
    # the failing commutator is F13*(F23 - a), not zero modulo the empty ideal
    c = ex5.ctx.commutator(parse_poly("F13*F24 - a*F14", g.ring), g.ring.var("F12"))
    assert c == -(g.ring.var("F13") * (g.ring.var("F23") - a))


def test_stratum_reports_match_manifests(each_example):
    ex = each_example
    for spec in ex.entry.expected.get("strata", []):
        g = ex.pres
        stratum = stratum_presentation(g, ex.ctx, g.named_subgroups["T"],
                                       g.named_points[spec["point"]], spec["point"])
        assert ideal_gb_strings(stratum.ideal) == spec["ideal"]
        assert stratum.dims == spec["dims"]
        dim_t, dim_tg, dim_q = stratum.dims
        assert 2 * dim_t - dim_tg == dim_q
        weyl_lines = stratum.flags["weyl"]
        assert spec["weyl"] in weyl_lines[0]
        for central in spec.get("central", []):
            assert any(central in l for l in weyl_lines), weyl_lines
        if "polycentral" in spec:
            seq = [parse_poly(t, g.ring) for t in spec["polycentral"]]
            ok, _ = polycentral_check(seq, ex.ctx)
            assert ok
        if "free_vars" in spec:
            from unitwist.strata import _free_variables
            assert _free_variables(stratum.ideal) == spec["free_vars"]


def test_ideal_reduce_is_normal_form_under_a_fresh_order(each_example):
    # on every catalog stratum ideal, against the monomials of degree <= 3
    # and the commutator relations the quotient presentation reduces
    g = each_example.pres
    fs = [m.as_poly() for m in g.ring.monomials_up_to(3)] \
        + list(each_example.ctx.commutators().relations.values())
    for point in g.named_points.values():
        ideal = double_coset_ideal(g, g.named_subgroups["T"], point)
        for f in fs:
            want = normal_form(f, ideal.groebner(), TermOrder(g.ring))
            assert ideal.reduce(f) == want, (point, f)


def test_stabilizer_dimensions_independent_route(examples):
    # dim T_g via I(T) + I(gTg^-1), already covered by the dims tuples, is
    # exercised here directly on the off-chain stratum of the abelian case
    ex3 = examples("jordan4-abelian")
    g = ex3.pres
    T = g.named_subgroups["T"]
    conj = conjugate_subgroup_ideal(g, T, g.named_points["offchain"])
    got = ideal_gb_strings(conj)
    assert got == ["W + y0*V + 1/2*y0^2*X", "Y"]
    assert stabilizer_dimension(g, T, g.named_points["offchain"]) == 1


def test_gamma_reports(each_example):
    rep = commutator_ideal_and_gamma(each_example.ctx)
    assert ideal_gb_strings(rep.commutator_ideal) == each_example.entry.expected["gamma_gb"]
    assert rep.gamma_dim == each_example.entry.expected["gamma_dim"]
    assert rep.hopf_ok
    # the ideal is the same vector subspace in the deformed algebra
    assert verify_two_sided(rep.commutator_ideal, each_example.ctx)


def test_gamma_dim_law(each_example):
    # dim Gamma = dim C - dim [T,T]
    ex = each_example
    rep = commutator_ideal_and_gamma(ex.ctx)
    lie = ex.pres.lie_data()
    T = ex.pres.named_subgroups["T"]
    tangent = T.tangent_vectors()
    derived = lie.derived_dim(sub_basis=[list(map(Fraction, v)) for v in tangent])
    assert rep.gamma_dim == ex.entry.expected["dim_C"] - derived


def test_hopf_ideal_check_refuses_non_hopf_ideals(examples):
    # on heisenberg3, <X> is the ideal of the subgroup X = 0; Delta(V)
    # keeps X (x) Y modulo <V>, and Delta(X - 1) leaves 1 (x) 1 modulo <X - 1>
    g = examples("heisenberg3").pres
    assert hopf_ideal_check(g, Ideal(g.ring, [parse_poly("X", g.ring)]))
    for text in ("V", "X - 1"):
        assert not hopf_ideal_check(g, Ideal(g.ring, [parse_poly(text, g.ring)])), text


def test_gamma_locus_examples(examples):
    # ex5: Gamma = N_G(T) = {I + xE12 + uE34 + zE14}
    ex5 = examples("u4-ex5")
    g5 = ex5.pres
    n_sub = g5.add_subgroup("Nlocus", ["n1", "n2", "n3"], {})
    pr = n_sub.param_ring
    n_sub = g5.add_subgroup("Nlocus", ["n1", "n2", "n3"],
                            {"F12": pr.var("n1"), "F34": pr.var("n2"), "F14": pr.var("n3")})
    n_ideal = subgroup_ideal(g5, n_sub)
    rep5 = commutator_ideal_and_gamma(ex5.ctx)
    assert rep5.commutator_ideal == n_ideal
    # ex4: Gamma = {I + vE13 + wE14}
    ex4 = examples("jordan4-minimal")
    g4 = ex4.pres
    f_sub = g4.add_subgroup("Flocus", ["f1", "f2"], {})
    pr4 = f_sub.param_ring
    f_sub = g4.add_subgroup("Flocus", ["f1", "f2"],
                            {"V": pr4.var("f1"), "W": pr4.var("f2")})
    f_ideal = subgroup_ideal(g4, f_sub)
    rep4 = commutator_ideal_and_gamma(ex4.ctx)
    assert rep4.commutator_ideal == f_ideal
    # heisenberg: invariant cocycle, zero commutator ideal
    ex2 = examples("heisenberg3")
    rep2 = commutator_ideal_and_gamma(ex2.ctx)
    assert rep2.commutator_ideal.is_zero()


def test_subgroup_F_examples(examples):
    ex4 = examples("jordan4-minimal")
    lie = ex4.pres.lie_data()
    T = ex4.pres.named_subgroups["T"]
    data, ker = subgroup_F(lie, T.tangent_vectors(), ex4.data.rmatrix)
    assert len(ker) == 2
    ambient = data.kernel_in_ambient()
    # span{u_V, u_W}: third and fourth dual directions
    assert sorted(tuple(v) for v in ambient) == \
        sorted([(0, 0, 1, 0), (0, 0, 0, 1)])
    assert sorted(lie.basis[v.index(1)] for v in ambient) == ex4.entry.expected["F_kernel"]

    # abelian supports: delta = 0, the kernel is everything
    for cid in ("u3", "heisenberg3", "jordan4-abelian", "u4-ex5"):
        ex = examples(cid)
        T = ex.pres.named_subgroups["T"]
        data, ker = subgroup_F(ex.pres.lie_data(), T.tangent_vectors(), ex.data.rmatrix)
        assert len(ker) == ex.entry.expected["F_dim"]
        assert len(ker) == data.dim


def test_subgroup_F_pinned_on_coordinate_subalgebras():
    # every 2- and 3-element coordinate span of every catalog entry, closed
    # or not, crossed with every single-pair r and the entry's own r; the
    # kernels and error messages are pinned by digest
    outcomes = []
    for cid in catalog.ids():
        data = catalog.get(cid).load()
        lie = data.presentation.lie_data()
        n = lie.n
        rs = [RMatrix(n, {pair: 1}) for pair in itertools.combinations(range(n), 2)]
        for size in (2, 3):
            for span in itertools.combinations(range(n), size):
                basis = [[int(k == s) for k in range(n)] for s in span]
                for r in rs + [data.rmatrix]:
                    try:
                        _, ker = subgroup_F(lie, basis, r)
                        got = "ker %s" % [[str(c) for c in v] for v in ker]
                    except StratumError as e:
                        got = "error: %s" % e
                    entries = [(i, j, str(v)) for i, row in enumerate(r.matrix)
                               for j, v in enumerate(row) if i < j and v]
                    outcomes.append((cid, span, entries, got))
    counts = collections.Counter(got.split(" [")[0] for _, _, _, got in outcomes)
    assert counts == {
        "error: r-matrix is not supported on the subalgebra": 1074,
        "error: subalgebra basis is not bracket-closed": 83,
        "error: dim ker(delta) = 3 but dim(t/[t,t]) = 2": 23,
        "error: dim ker(delta) = 1 but dim(t/[t,t]) = 2": 11,
        "ker": 87}
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == \
        "3f2ec8f4d7c1cbb59ecc852afc4c8c80b44484e197b7b4716d5162d7dc114187"


def test_F_dim_all_catalog(each_example):
    ex = each_example
    T = ex.pres.named_subgroups["T"]
    data, ker = subgroup_F(ex.pres.lie_data(), T.tangent_vectors(), ex.data.rmatrix)
    assert len(ker) == ex.entry.expected["F_dim"]


def test_c0_matches_gamma(examples):
    from unitwist.cli import run_c0
    for cid in ("jordan4-minimal", "u4-ex5", "u4-ex6"):
        ex = examples(cid)
        rep = run_c0(ex.data, ex.entry.expected["c0_bound"])
        assert rep.matches_gamma, (cid, rep.describe())


@pytest.mark.parametrize("cid", catalog.ids())
def test_c0_exit_matches_full_sweep(examples, cid):
    # the exit through the adjoint fixed locus against the sweep run to the bound
    ex = examples(cid)
    pres, r = ex.pres, ex.data.rmatrix
    bound = ex.entry.expected.get("c0_bound", 4)
    j = ExponentialCocycle(pres, r)
    gamma = commutator_ideal_and_gamma(ex.ctx).commutator_ideal
    exact = fixed_locus_ideal(pres, r)
    full = c0_solver(pres, j, bound, gamma)
    fast = c0_solver(pres, j, bound, gamma, exact=exact)
    assert fast.ideal.gens == full.ideal.gens
    assert fast.ideal.render() == full.ideal.render()
    assert (fast.verdict, fast.matches_gamma) == (full.verdict, full.matches_gamma)
    if "c0_bound" in ex.entry.expected:
        assert exact == full.ideal


def test_c0_exit_at_zero_ideal_evaluates_nothing(examples):
    pres = examples("u3").pres

    class Unread(ExponentialCocycle):
        def pair(self, m1, m2):
            raise AssertionError("a condition was evaluated")

    j = Unread(pres, examples("u3").data.rmatrix)
    exact = fixed_locus_ideal(pres, j.rmatrix)
    assert exact.is_zero()
    gamma = commutator_ideal_and_gamma(examples("u3").ctx).commutator_ideal
    assert c0_solver(pres, j, 5, gamma, exact=exact).ideal.render() == "<0>"


_HEIS = """
[group]
name = heis
generators = X Y V

[coproduct]
V = X (x) Y
"""


@pytest.mark.parametrize("source,exits", [
    (_HEIS + "[rmatrix]\n1 2 1\n", True),
    (_HEIS + "[cocycle-table]\nbound = 4\nX , Y = 1/2\nY , X = -1/2\n", False),
    (_HEIS + "[rmatrix]\n1 2 1\n[cocycle-table]\nbound = 4\nX , Y = 1/2\nY , X = -1/2\n",
     False),
    # a frozen correction table: c0 evaluates J_r of the entry's r-matrix
    ("u4-ex6", True),
], ids=["rmatrix", "cocycle-table", "rmatrix-and-table", "u4-ex6"])
def test_run_c0_exit_only_for_the_files_rmatrix(monkeypatch, source, exits):
    data = catalog.get(source).load() if source in catalog.ids() else parse_group_file(source)
    seen = []

    def spy(group, j, *args, exact=None, **kwargs):
        seen.append((j, exact))
        return c0_solver(group, j, *args, exact=exact, **kwargs)

    monkeypatch.setattr(cli, "c0_solver", spy)
    cli.run_c0(data, 3)
    (j, exact), = seen
    assert (exact is not None) == exits
    if exits:
        assert isinstance(j, ExponentialCocycle) and j.rmatrix is data.rmatrix
        assert exact == fixed_locus_ideal(data.presentation, data.rmatrix)


def test_winding_consistency_c0_point(examples, winding_left):
    # for a point of the fixed-cocycle group, the left winding map carries
    # the coset stratum ideal onto the subgroup ideal
    ex6 = examples("u4-ex6")
    g = ex6.pres
    T = g.named_subgroups["T"]
    gamma_pt = g.point({"F12": 1, "F24": 1})
    ideal_g = double_coset_ideal(g, T, gamma_pt)
    ideal_t = subgroup_ideal(g, T)
    moved = Ideal(g.ring, [winding_left(g, gamma_pt, p) for p in ideal_g.gens])
    assert moved == ideal_t


def test_winding_stratum_relations_match(examples, winding_left):
    # Case II stratum of the second U(4) example: its relations match the
    # deformed subgroup algebra through the winding map
    ex6 = examples("u4-ex6")
    g = ex6.pres
    T = g.named_subgroups["T"]
    pt = g.named_points["gammax"]
    stratum = stratum_presentation(g, ex6.ctx, T, pt, "gammax")
    gb = stratum.ideal.groebner()
    order = TermOrder(g.ring)
    it = subgroup_ideal(g, T)
    gbt = it.groebner()
    # tau maps the stratum ideal onto I(T)
    moved = Ideal(g.ring, [winding_left(g, pt, p) for p in stratum.ideal.gens])
    assert moved == it
    # and intertwines the quotient relations: tau([Xi,Xj] - f_ij) dies mod I(T)
    for (a, b), f in stratum.quotient.relations.items():
        xa, xb = g.ring.var(a), g.ring.var(b)
        lhs = winding_left(g, pt, ex6.ctx.commutator(xa, xb) - f)
        assert normal_form(lhs, gbt, order).is_zero()


def test_central_double_coset_functions(each_example):
    # every low-degree two-sided coset function lies in the centre
    ex = each_example
    g = ex.pres
    T = g.named_subgroups["T"]
    bound = 3 if g.ring.ngens <= 4 else 2
    basis = g.coinvariants(T, bound, side="double")
    for f in basis:
        f = f - g.ring.const(f.counit())
        if f.is_zero():
            continue
        for name in g.ring.generators:
            x = g.ring.var(name)
            assert ex.ctx.commutator(f, x).is_zero(), (ex.entry.id, render_poly(f))


def test_centre_members_manifest(each_example):
    ex = each_example
    g = ex.pres
    for text in ex.entry.expected.get("centre_members", []):
        f = parse_poly(text, g.ring)
        for name in g.ring.generators:
            assert ex.ctx.commutator(f, g.ring.var(name)).is_zero()


def test_radical_generators_left_equals_right(each_example):
    # the ideal generated by left coset functions (augmentation part) equals
    # the ideal generated by the right ones; the right-side generator of the
    # abelian four-dimensional case only appears at degree 3 (W - V*Y + ...),
    # so the smaller rings run a higher bound
    ex = each_example
    g = ex.pres
    T = g.named_subgroups["T"]
    bound = 3 if g.ring.ngens <= 4 else 2
    left = [f - g.ring.const(f.counit()) for f in g.coinvariants(T, bound, side="left")]
    right = [f - g.ring.const(f.counit()) for f in g.coinvariants(T, bound, side="right")]
    li = Ideal(g.ring, [f for f in left if not f.is_zero()])
    ri = Ideal(g.ring, [f for f in right if not f.is_zero()])
    assert li == ri


def test_distinct_strata_comaximal(each_example):
    # distinct double cosets are disjoint: pairwise sums of their ideals are
    # the unit ideal on the generic parameter fiber
    from unitwist.groebner import krull_dimension
    ex = each_example
    g = ex.pres
    specs = ex.entry.expected.get("strata", [])
    ideals = [double_coset_ideal(g, g.named_subgroups["T"], g.named_points[s["point"]])
              for s in specs]
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            assert krull_dimension(ideals[i] + ideals[j]) == -1


def test_stratum_inline_point(examples):
    from unitwist.cli import run_stratum
    ex = examples("jordan4-abelian")
    stratum = run_stratum(ex.data, "T", "Y=2")
    assert ideal_gb_strings(stratum.ideal) == ["Y - 2"]
    assert stratum.dims == (2, 1, 3)


def test_weyl_detect_shapes(examples, one_sided_right):
    ex = examples("u3")
    one_sided = one_sided_right(ex.pres, ex.ctx.right)
    pres = one_sided.commutators()
    ring = ex.pres.ring
    report = weyl_detect(pres.relation, ring, ring.generators)
    assert report.verdict == "A_1"
    assert not report.central
    # the two-sided twist of an abelian group is just commutative
    rep2 = weyl_detect(examples("u3").ihoe.relation, ring, ring.generators)
    assert rep2.verdict == "commutative"


def stratum_outcome(pres, ctx, point_name):
    try:
        stratum = stratum_presentation(pres, ctx, pres.named_subgroups["T"],
                                       pres.named_points[point_name], point_name)
    except StratumError as e:
        return "error: %s" % e
    return stratum.lines()


@pytest.mark.parametrize("cid", [cid for cid in catalog.ids()
                                 if "T" in catalog.get(cid).load().presentation.named_subgroups])
def test_stratum_lines_independent_of_sweep_history(cid):
    # two routes to each named point's stratum: a presentation loaded for
    # that point alone, and one that has swept every named point already
    # (so T's ideal and coset functions come from the memos)
    entry = catalog.get(cid)
    names = sorted(entry.load().presentation.named_points)
    fresh = {}
    for name in names:
        data = entry.load()
        fresh[name] = stratum_outcome(data.presentation, cli.build_context(data), name)
    data = entry.load()
    ctx = cli.build_context(data)
    for name in names + names[::-1]:
        assert stratum_outcome(data.presentation, ctx, name) == fresh[name], (cid, name)


SWEEP_POOL = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "refs",
                          "strata-sweep.json")


def pool_point(pres, text):
    """The point a strata-sweep variant names, as "X=1/2,Y=3"."""
    coords = dict(part.split("=", 1) for part in text.split(","))
    return pres.point({k: parse_poly(v, pres.ring) for k, v in coords.items()})


def per_point_product_ideal(group, subgroup, factors):
    """The ideal of the closure of all a.b.c, built for one point alone.

    Each factor is a point or a prefix p, standing for the subgroup with its
    parameters renamed to p + t.  The elimination ring, the restriction maps,
    the convolutions at the point's own coordinates and the block order are
    all built afresh, as the strata built them before their product maps
    were shared between points.
    """
    factors = [group.ring.fresh_names(f, subgroup.param_names) if isinstance(f, str) else f
               for f in factors]
    names = tuple(n for f in factors if isinstance(f, dict) for n in f.values())
    ring = PolyRing(names + group.ring.generators, group.ring.parameters)
    maps = [subgroup.restriction(ring, f) if isinstance(f, dict) else f.restriction(ring)
            for f in factors]
    gens = [ring.var(x) - group.convolve(maps, group.ring.var(x), ring)
            for x in group.ring.generators]
    kept = eliminate(Ideal(ring, gens), TermOrder(ring, eliminate=names))
    return Ideal(group.ring, [g.substitute({}, group.ring) for g in kept.groebner()])


def test_shared_product_maps_match_the_per_point_route():
    # T g T and g T g^-1 through the maps shared between points and through
    # the per-point route, at every named point of every entry (some with
    # parameters in their coordinates), the identity and the first variant
    # of each strata-sweep slot, all on one presentation per entry
    with open(SWEEP_POOL) as fh:
        pool = json.load(fh)
    with_parameter = 0
    for cid in catalog.ids():
        pres = catalog.get(cid).load().presentation
        T = pres.named_subgroups["T"]
        points = list(pres.named_points.values()) + [pres.identity_point()] \
            + [pool_point(pres, slot["variants"][0]["point"])
               for slot in pool["groups"].get(cid, [])]
        for point in points:
            with_parameter += any(m.param_degree() for c in point.coords.values() for m in c.terms)
            assert double_coset_ideal(pres, T, point).groebner() \
                == per_point_product_ideal(pres, T, ("s_", point, "t_")).groebner(), (cid, point)
            assert conjugate_subgroup_ideal(pres, T, point).groebner() \
                == per_point_product_ideal(pres, T, (point, "t_", pres.point_inv(point))) \
                .groebner(), (cid, point)
    assert with_parameter


def test_second_stratum_builds_no_ring_and_no_convolution(monkeypatch):
    # the elimination rings and the graph generators are built once per
    # subgroup and shape: a second stratum on the same presentation (neither
    # point normalizes T, so no coset functions are solved) only substitutes
    # its point and eliminates
    data = catalog.get("u4-ex5").load()
    pres, ctx = data.presentation, cli.build_context(data)
    T = pres.named_subgroups["T"]
    counts = collections.Counter()

    def counted(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(PolyRing, "__init__", counted("ring", PolyRing.__init__))
    monkeypatch.setattr(GroupPresentation, "convolve",
                        counted("convolve", GroupPresentation.convolve))
    stratum_presentation(pres, ctx, T, pres.named_points["caseI1"], "caseI1")
    assert counts["ring"] and counts["convolve"]
    counts.clear()
    stratum_presentation(pres, ctx, T, pres.named_points["caseI2"], "caseI2")
    assert counts == {}


def test_strata_sweep_pool_on_shared_presentations():
    # every recorded variant, run through one presentation and context per
    # group in pool order and then reversed, matches its recorded output
    with open(SWEEP_POOL) as fh:
        pool = json.load(fh)
    for group, slots in sorted(pool["groups"].items()):
        data = catalog.get(group).load()
        pres, ctx = data.presentation, cli.build_context(data)
        subgroup = pres.named_subgroups[pool["subgroup"]]
        variants = [v for slot in slots for v in slot["variants"]]
        for v in variants + variants[::-1]:
            stratum = stratum_presentation(pres, ctx, subgroup, pool_point(pres, v["point"]),
                                           name=v["point"])
            assert "\n".join(stratum.lines()) + "\n" == v["expect"], (group, v["point"])


@pytest.mark.parametrize("cid", catalog.ids())
def test_c0_graded_route_matches_rank0_route(cid):
    # c0's (g (x) g) * J reads only the in-class Delta terms of J; a new load
    # whose cocycle has support None reads them all and keeps the same
    # conditions, in the same order, to bound 5; Gamma is built after the
    # support is set, so every product memo of J holds its route's values
    kept = []
    for graded in (True, False):
        data = catalog.get(cid).load()
        j = data.cocycle
        if not graded:
            j.support = None
        assert (j.support_within(5) is not None) == graded
        gamma = commutator_ideal_and_gamma(cli.build_context(data)).commutator_ideal
        rep = c0_solver(data.presentation, j, 5, gamma)
        kept.append(([render_poly(p) for p in rep.ideal.gens], rep.describe()))
    assert kept[0] == kept[1]
