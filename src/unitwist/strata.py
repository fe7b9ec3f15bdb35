"""Double-coset strata, abelianization, and 1-dimensional module groups.

The stratum attached to a point g is the closure of T.g.T; its vanishing
ideal is computed by eliminating the parametrization parameters from the
graph ideal of (s, t) -> s g t.  Everything downstream — two-sidedness in
the deformed algebra, polycentrality, quotient presentations, dimension
counts — reduces to normal forms against that ideal (`Ideal.reduce`).

Dimension bookkeeping is deliberately two-route: the stratum dimension is
read off the staircase of its ideal, while dim(T cap gTg^{-1}) comes from
a separate elimination (the ideal of gTg^{-1} plus the ideal of T), so
the dimension law 2 dim T - dim T_g is a genuine cross-check rather than
a definition.

A sweep over many points of one group redoes only point-dependent work.
Memoized on the GroupPresentation per subgroup are the ideal of T, the
coset-function basis of the normalizing case and, per factor shape (T g T
and g T g^{-1}), the elimination ring, its block order and the graph
generators at a symbolic point with coordinates g_<X>; a point substitutes
its coordinates for the g_<X> and eliminates.  The generator commutator
table is the context's own, computed once.
"""

from __future__ import annotations

from . import linalg
from .groebner import Ideal, TermOrder, buchberger, eliminate, krull_dimension
from .poly import ONE, ZERO, Poly, TensorPoly, rational, render_poly
from .twist import TwistedPresentation

_TRACED_ALIAS = buchberger  # not called here; perfbench/smoke.py reads `strata.buchberger`


class StratumError(ValueError):
    pass


def _product_map(group, subgroup, shape):
    """(order, gens) for the image of (a, b, c) -> a.b.c, memoized on the group.

    A factor of `shape` is a prefix p, for the subgroup with its parameters t
    renamed to p + t (p takes more underscores if that would reuse a name of
    the group's ring), or 1 or -1, for the symbolic point g of
    `GroupPresentation.symbolic_point` or for g^-1.  gens are the graph
    generators X - (a.b.c)_X, convolutions of the factors' coordinate maps
    (`GroupPresentation.convolve`); order is the block order that eliminates
    the renamed parameters.
    """
    key = (subgroup, shape)
    hit = group._product_maps.get(key)
    if hit is None:
        renames = {f: group.ring.fresh_names(f, subgroup.param_names)
                   for f in shape if isinstance(f, str)}
        names = tuple(n for rename in renames.values() for n in rename.values())
        ring, at_g, at_g_inverse = group.symbolic_point(names)
        maps = [subgroup.restriction(ring, renames[f]) if f in renames
                else {1: at_g, -1: at_g_inverse}[f] for f in shape]
        gens = [ring.var(x) - group.convolve(maps, group.ring.var(x), ring)
                for x in group.ring.generators]
        hit = group._product_maps[key] = (TermOrder(ring, eliminate=names), gens)
    return hit


def _product_image_ideal(group, subgroup, shape, point):
    """Vanishing ideal of the closure of all a.b.c at `point`, by elimination.

    One map sends each g_<X> in `_product_map`'s generators to the point's X
    coordinate.  Once a parameter is eliminated, what `eliminate` keeps is
    already the reduced basis under graded lex, so it is not computed again.
    """
    order, gens = _product_map(group, subgroup, shape)
    ring, n = order.ring, group.ring.ngens
    at_point = ring.hom({s: point.coord(x).substitute({}, ring)
                         for s, x in zip(ring.parameters[-n:], group.ring.generators)}, ring)
    graph = [ring.combination((at_point(m), c) for m, c in f.terms.items()) for f in gens]
    kept = eliminate(Ideal(ring, graph), order)
    return Ideal(group.ring, [g.substitute({}, group.ring) for g in kept.gens])


def double_coset_ideal(group, subgroup, point):
    """Vanishing ideal of the closure of T.g.T, in the group ring."""
    return _product_image_ideal(group, subgroup, ("s_", 1, "t_"), point)


def conjugate_subgroup_ideal(group, subgroup, point):
    """Vanishing ideal of g T g^{-1} by elimination."""
    return _product_image_ideal(group, subgroup, (1, "t_", -1), point)


def subgroup_ideal(group, subgroup):
    """Vanishing ideal of T itself (the identity double coset), memoized on the group."""
    memo = group._subgroup_ideals
    if subgroup not in memo:
        memo[subgroup] = double_coset_ideal(group, subgroup, group.identity_point())
    return memo[subgroup]


def stabilizer_dimension(group, subgroup, point):
    """dim(T cap gTg^{-1}) on the generic parameter fiber, by elimination."""
    it = subgroup_ideal(group, subgroup)
    ig = conjugate_subgroup_ideal(group, subgroup, point)
    return krull_dimension(it + ig)


def verify_two_sided(ideal, ctx):
    """Both deformed products of each ideal generator with each algebra
    generator must reduce to 0 against the ideal."""
    for p in ideal.gens:
        for gname in ctx.pres.ring.generators:
            x = ctx.pres.ring.var(gname)
            if not ideal.contains(ctx.mul(x, p)) or not ideal.contains(ctx.mul(p, x)):
                return False
    return True


def polycentral_check(sequence, ctx):
    """Each element must be central modulo its predecessors.

    Returns (ok, first_failing_index) with 1-based indexing.
    """
    ring = ctx.pres.ring
    for k, y in enumerate(sequence):
        prefix = Ideal(ring, list(sequence[:k]))
        for gname in ring.generators:
            if not prefix.contains(ctx.commutator(y, ring.var(gname))):
                return False, k + 1
    return True, None


class WeylReport:
    """Outcome of matching quotient relations against the A_k pattern.

    `pairs` lists symplectically paired generator combinations with their
    scalar bracket; `central` lists combinations commuting with everything.
    `verdict` is 'A_k', 'A_k-with-centre' or 'unrecognized' — never a
    negative claim.
    """

    def __init__(self, verdict, pairs, central, side_conditions):
        self.verdict = verdict
        self.pairs = pairs
        self.central = central
        self.side_conditions = side_conditions

    def lines(self):
        out = ["weyl: %s" % self.verdict]
        for a, b, val in self.pairs:
            out.append("  pair (%s, %s) with bracket %s"
                       % (render_poly(a), render_poly(b), render_poly(val)))
        for z in self.central:
            out.append("  central %s" % render_poly(z))
        for s in self.side_conditions:
            out.append("  assuming %s != 0" % render_poly(s))
        return out


def weyl_detect(pres_relations, ring, variables):
    """Recognize scalar commutator matrices as Weyl-algebra patterns.

    Works over Q[parameters]: a division-free symplectic elimination pairs
    off generators two at a time and collects the kernel as central linear
    combinations (parameter pivots become side conditions).  Any
    non-scalar relation yields the verdict 'unrecognized'.
    """
    names = list(variables)
    n = len(names)
    bracket = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                f = bracket[(i, j)] = pres_relations(names[i], names[j])
                if f.degree() > 0:
                    return WeylReport("unrecognized", [], [], [])
    basis = [ring.var(nm) for nm in names]

    def brk(i, j):
        return ring.zero if i == j else bracket[(i, j)]

    active = list(range(n))
    pairs = []
    side = []
    while True:
        pivot = None
        for ii in range(len(active)):
            for jj in range(ii + 1, len(active)):
                if not brk(active[ii], active[jj]).is_zero():
                    pivot = (active[ii], active[jj])
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        pij = brk(i, j)
        pairs.append((basis[i], basis[j], pij))
        if not (len(pij.terms) == 1 and next(iter(pij.terms)).is_one):
            side.append(pij.normalize_sign())
        rest = [k for k in active if k not in (i, j)]
        # e_k' = M_ij e_k - M_kj e_i + M_ki e_j kills both pivot directions;
        # division-free, so parameter pivots stay polynomial.
        new_basis = {k: basis[k] * pij - basis[i] * brk(k, j) + basis[j] * brk(k, i)
                     for k in rest}
        new_bracket = {}
        for a in rest:
            for b in rest:
                if a == b:
                    continue
                ca = (pij, -brk(a, j), brk(a, i))
                cb = (pij, -brk(b, j), brk(b, i))
                new_bracket[(a, b)] = ring.combination(
                    (fa * fb * brk(xa, xb), ONE)
                    for xa, fa in zip((a, i, j), ca) for xb, fb in zip((b, i, j), cb))
        for k in rest:
            basis[k] = new_basis[k]
        bracket = new_bracket
        active = rest

    central = [basis[k].scale_down() for k in active]
    if not pairs:
        verdict = "commutative"
    elif central:
        verdict = "A_%d-with-centre" % len(pairs)
    else:
        verdict = "A_%d" % len(pairs)
    return WeylReport(verdict, pairs, central, side)


class Stratum:
    def __init__(self, name, point, ideal, quotient, dims, flags):
        self.name = name
        self.point = point
        self.ideal = ideal
        self.quotient = quotient
        self.dims = dims  # (dim T, dim T_g, krull dim of quotient)
        self.flags = flags

    def lines(self):
        dim_t, dim_tg, dim_q = self.dims
        out = ["stratum %s:" % self.name,
               "  ideal %s" % self.ideal.render(),
               "  dim T = %d, dim T_g = %d, dim quotient = %d" % (dim_t, dim_tg, dim_q),
               "  dimension law 2*dimT - dimTg == dim: %s"
               % ("pass" if 2 * dim_t - dim_tg == dim_q else "FAIL")]
        rels = self.quotient.lines()
        out.append("  quotient relations: " + ("; ".join(rels) if rels else "none (commutative)"))
        for k, v in sorted(self.flags.items()):
            if isinstance(v, (list, tuple)):
                for item in v:
                    out.append("  %s" % item)
            else:
                out.append("  %s: %s" % (k, v))
        return out


def stratum_presentation(group, ctx, subgroup, point, name="stratum"):
    """Full stratum report: ideal, two-sidedness, quotient, dimensions."""
    ideal = double_coset_ideal(group, subgroup, point)
    if not verify_two_sided(ideal, ctx):
        raise StratumError("double-coset ideal is not two-sided: invalid cocycle data")
    quotient = TwistedPresentation(group, {
        key: ideal.reduce(f) for key, f in ctx.commutators().relations.items()})
    dim_t = subgroup.dim
    dim_tg = stabilizer_dimension(group, subgroup, point)
    dim_q = krull_dimension(ideal)
    flags = {}
    flags["two-sided"] = "pass"
    if 2 * dim_t - dim_tg != dim_q:
        raise StratumError("dimension law fails: 2*%d - %d != %d" % (dim_t, dim_tg, dim_q))

    if dim_tg == dim_t:
        # g normalizes T: the ideal must be generated by coset functions
        # f - f(g) for f running over the left coset-invariant functions.
        basis = group.coinvariants(subgroup, 3, side="left")
        mgt = Ideal(group.ring, [f - group.evaluate(f, point) for f in basis])
        flags["normalizing-case"] = "ideal == coset-function ideal: %s" \
            % ("pass" if mgt == ideal else "FAIL")

    free_vars = _free_variables(ideal)
    report = weyl_detect(quotient.relation, group.ring, free_vars)
    flags["weyl"] = report.lines()
    return Stratum(name, point, ideal, quotient, (dim_t, dim_tg, dim_q), flags)


def _free_variables(ideal):
    """Generators not eliminated by a linear leading term of the basis."""
    ring = ideal.ring
    eliminated = set()
    for g in ideal.groebner():
        m, _ = ideal.order.leading(g)
        if m.degree == 1:
            for i in range(ring.ngens):
                if m.exps[i] == 1:
                    eliminated.add(ring.generators[i])
    return [g for g in ring.generators if g not in eliminated]


# -- abelianisation and the group of 1-dimensional modules -------------------

class GammaReport:
    def __init__(self, commutator_ideal, gamma_dim, hopf_ok):
        self.commutator_ideal = commutator_ideal
        self.gamma_dim = gamma_dim
        self.hopf_ok = hopf_ok

    def lines(self):
        return ["commutator ideal %s" % self.commutator_ideal.render(),
                "dim Gamma = %d" % self.gamma_dim,
                "hopf-ideal check: %s" % ("pass" if self.hopf_ok else "FAIL")]


def commutator_ideal_and_gamma(ctx):
    """The commutator ideal (generated by the f_ij), its basis and dimension.

    Computed once per context, like the commutator table it reads.
    """
    if ctx._gamma is None:
        ideal = Ideal(ctx.pres.ring, [f for _, _, f in ctx.commutators().nonzero()])
        ctx._gamma = GammaReport(ideal, krull_dimension(ideal), hopf_ideal_check(ctx.pres, ideal))
    return ctx._gamma


def hopf_ideal_check(group, ideal):
    """Delta(gen) must vanish in (H/I) (x) (H/I) for every basis element."""
    for g in ideal.groebner():
        residue = TensorPoly.zero(group.ring, 2)
        for (m1, m2), c in group.coproduct(g).terms.items():
            residue += TensorPoly.from_polys(
                [ideal.reduce(m1.as_poly()), ideal.reduce(m2.as_poly())], c)
        if not residue.is_zero():
            return False
    return True


# -- the cobracket and the subgroup F ----------------------------------------

class CobracketData:
    """The map x -> [x (x) 1 + 1 (x) x, r] on a quasi-Frobenius subalgebra."""

    def __init__(self, lie, tangent_basis, rmatrix):
        self.lie = lie
        self.basis = [list(map(rational, v)) for v in tangent_basis]
        self.dim = len(self.basis)
        self.r = rmatrix.matrix
        # r lies in t (x) t, hence in t /\ t, iff every row of its
        # antisymmetric matrix lies in t
        if linalg.matrix_rank(self.basis + list(self.r)) > linalg.matrix_rank(self.basis):
            raise StratumError("r-matrix is not supported on the subalgebra")
        if not lie.is_subalgebra(self.basis):
            raise StratumError("subalgebra basis is not bracket-closed")

    def delta_matrix(self):
        """Matrix of x -> [x (x) 1 + 1 (x) x, r] from the basis to g (x) g coordinates.

        With r = sum r[a][b] u_a (x) u_b, the image of x is
        sum r[a][b] ([x, u_a] (x) u_b + u_a (x) [x, u_b]).
        """
        n = self.lie.n
        r = self.r
        cols = []
        for x in self.basis:
            ad = [self.lie.bracket(x, u) for u in self.lie.units]  # ad[a] = [x, u_a]
            cols.append([sum((ad[a][e] * r[a][b] + r[e][a] * ad[a][b] for a in range(n)), ZERO)
                         for e in range(n) for b in range(n)])
        return [list(row) for row in zip(*cols)]

    def kernel(self):
        """Basis of ker(delta) in subalgebra coordinates."""
        return linalg.nullspace(self.delta_matrix(), self.dim)

    def kernel_in_ambient(self):
        out = []
        for v in self.kernel():
            w = [ZERO] * self.lie.n
            for k, c in enumerate(v):
                for t in range(self.lie.n):
                    w[t] += c * self.basis[k][t]
            out.append(w)
        return out


def subgroup_F(lie, tangent_basis, rmatrix):
    """ker(delta) with its sanity checks; returns (CobracketData, kernel)."""
    data = CobracketData(lie, tangent_basis, rmatrix)
    ker = data.kernel()
    expected = data.dim - lie.derived_dim(data.basis)
    if len(ker) != expected:
        raise StratumError("dim ker(delta) = %d but dim(t/[t,t]) = %d"
                           % (len(ker), expected))
    if not lie.is_subalgebra(data.kernel_in_ambient()):
        raise StratumError("ker(delta) is not bracket-closed")
    return data, ker


# -- the fixed-cocycle locus ---------------------------------------------------

class C0Report:
    def __init__(self, ideal, bound, matches_gamma, verdict):
        self.ideal = ideal
        self.bound = bound
        self.matches_gamma = matches_gamma
        self.verdict = verdict

    def describe(self):
        return "fixed-cocycle locus at bound %d: %s (ideal %s)" \
            % (self.bound, self.verdict, self.ideal.render())


def fixed_locus_ideal(group, rmatrix):
    """The stabiliser {g : Ad_g r = r}, cut out by the entries of (Ad_g (x) Ad_g) r - r.

    J_r^g = J_{Ad_g r}, and J_r determines r (its values on pairs of
    generators are r/2), so this ideal is the exact fixed-cocycle locus of
    J_r, with no degree bound.  Ad_g r is antisymmetric like r, so the
    entries above the diagonal suffice.
    """
    ring = group.ring
    ad = group.adjoint_matrix()
    r = rmatrix.matrix
    gens = []
    for i in range(ring.ngens):
        for k in range(i + 1, ring.ngens):
            gens.append(ring.combination(
                [(ring.one, -r[i][k])]
                + [(ad[a][i] * ad[b][k], v) for a, b, v in rmatrix.support]))
    return Ideal(ring, gens)


def c0_solver(group, j, degree_bound, gamma_ideal, exact=None):
    """Conditions J^g = J for a symbolic point g, collected as an ideal.

    Because (g (x) g) is convolution invertible with inverse
    (g^{-1} (x) g^{-1}), the fixed-cocycle condition is equivalent to the
    commutation (g (x) g) * J = J * (g (x) g); for each monomial pair
    within the bound this reads

        sum m1_1(g) m2_1(g) J(m1_2, m2_2) - J(m1_1, m2_1) m1_2(g) m2_2(g),

    a polynomial in the symbolic coordinates of g.  The resulting ideal
    cuts out the fixed locus up to the bound; it is compared with
    `gamma_ideal`, Gamma's commutator ideal, as reduced bases.

    `exact`, when given, must be `fixed_locus_ideal(group, r)` for
    J = J_r.  Each condition above is (J^g - J) * (g (x) g) on the pair, a
    combination with polynomial coefficients in g of values
    (J^g - J)(a, b) = P(Ad_g r) - P(r), for P the polynomial in r that
    gives J_r(a, b); each lies in the ideal of the entries of
    Ad_g r - r, which is `exact`.  So once the kept conditions generate
    `exact`, every later condition reduces to 0 and would be dropped: the
    sweep stops there with its kept list already final.
    """
    ring = group.ring
    mons = ring.monomials_up_to(degree_bound, include_one=False)
    by_degree = {}
    for m in mons:
        by_degree.setdefault(m.degree, []).append(m)
    # (deg m1, deg m2) blocks, low first: the `exact` exit fires far sooner than m1 by m1
    pairs = ((m1, m2)
             for d1 in sorted(by_degree) for d2 in sorted(by_degree) if d1 + d2 <= degree_bound
             for m1 in by_degree[d1] for m2 in by_degree[d2])
    target = None if exact is None else exact.groebner()
    ideal = Ideal(ring, [])  # generated by the kept conditions
    for m1, m2 in pairs:
        if target is not None and ideal.groebner() == target:
            break
        # g's coordinates are written with the generator names
        condition = Poly(ring, j.right_product(m1, m2)) \
            - Poly(ring, group.contract(m1, m2, j.pair, lambda a, b: {a.mul(b): ONE},
                                       j.support_within(m1.degree + m2.degree)))
        if condition.is_zero():
            continue
        # keep only conditions that add new constraints
        if ideal.contains(condition):
            continue
        ideal = Ideal(ring, ideal.gens + [condition])
    matches = ideal == gamma_ideal
    if matches:
        verdict = "matches the 1-dimensional module group"
    elif all(gamma_ideal.contains(p) for p in ideal.groebner()):
        verdict = "inconclusive at bound %d" % degree_bound
    else:
        verdict = "MISMATCH"
    return C0Report(ideal, degree_bound, matches, verdict)
