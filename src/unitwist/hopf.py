"""Hopf-algebraic presentation of a unipotent group.

A group of dimension n is given by ordered generators X1 < ... < Xn for
its coordinate ring together with the coproduct corrections

    Delta(Xi) = Xi (x) 1 + 1 (x) Xi + q(Xi),

where q(Xi) is a rank-2 tensor with zero counit in each slot involving
only X1..X_{i-1}.  Everything else (iterated coproducts, the antipode,
the group law on points, Lie structure constants, coset-function spaces)
is computed from that single piece of data.  Conjugation, like the
product maps of the strata, is a convolution (`convolve`): the
coordinates of g.h are sum g(x1) h(x2) over Delta(x).

All operations are pure; the per-presentation caches only memoize values
that are uniquely determined, so results are identical with or without
caching.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from operator import mul
from types import MappingProxyType

from . import linalg
from .poly import (ONE, ZERO, Monomial, Poly, PolyRing, TensorPoly, accumulate, rational,
                   render_poly, settle)


class PresentationError(ValueError):
    pass


class Point:
    """A group element: rational (or parameter-valued) coordinates."""

    def __init__(self, group, coords):
        self.group = group
        ring = group.ring
        table = {}
        for name, value in coords.items():
            if name not in ring.index or ring.is_parameter(name):
                raise ValueError("unknown generator %r" % name)
            if not isinstance(value, Poly):
                value = ring.const(value)
            if value.degree() > 0:
                raise ValueError("point coordinate %r must be generator-free" % name)
            table[name] = value
        self.coords = table

    def coord(self, name):
        return self.coords.get(name, self.group.ring.zero)

    def restriction(self, target):
        """Evaluation at this point, into `target`, as a memoized monomial -> Poly map."""
        ring = self.group.ring
        return ring.hom({n: self.coord(n).substitute({}, target) for n in ring.generators}, target)

    def __repr__(self):
        parts = ["%s=%s" % (n, render_poly(p)) for n, p in sorted(self.coords.items())]
        return "Point(%s)" % ", ".join(parts)


class SubgroupParam:
    """A closed subgroup given by a polynomial parametrization.

    `coord_exprs` maps each generator name to a Poly in fresh parameter
    variables t1..tm (its own small ring); unlisted generators are 0.
    point(0,...,0) must be the identity.
    """

    def __init__(self, group, param_names, coord_exprs):
        self.group = group
        self.param_names = tuple(param_names)
        self.param_ring = PolyRing(self.param_names)
        exprs = {}
        for name in group.ring.generators:
            e = coord_exprs.get(name)
            if e is None:
                exprs[name] = self.param_ring.zero
            elif isinstance(e, Poly):
                if e.ring is not self.param_ring:
                    e = e.substitute({}, self.param_ring)
                exprs[name] = e
            else:
                exprs[name] = self.param_ring.const(e)
        self.coord_exprs = exprs
        for name, e in exprs.items():
            if e.counit() != 0:
                raise ValueError("parametrization of %r does not pass through the identity" % name)

    @property
    def dim(self):
        return len(self.param_names)

    def restriction(self, target=None, rename=None):
        """The restriction O(G) -> target as a monomial -> Poly map.

        Each parameter t becomes rename[t] (default t) and group parameters
        map to themselves.  The coordinate images are built once; the map is
        `PolyRing.hom`, so monomial images are memoized for its life.
        """
        target = target or self.param_ring
        images = self.coord_exprs
        if target is not self.param_ring:
            ren = rename or {}
            moved = {t: target.var(ren.get(t, t)) for t in self.param_names}
            images = {n: e.substitute(moved, target) for n, e in images.items()}
        return self.group.ring.hom(images, target)

    def tangent_vectors(self):
        """d/dt_j at t=0 of the parametrization, as vectors over the generators."""
        vecs = []
        for t in self.param_names:
            vecs.append([self.coord_exprs[g].coefficient_of_var(t)
                         for g in self.group.ring.generators])
        return vecs


class LieAlgebraData:
    """Structure constants for the Lie algebra dual to the generators.

    `brackets` keeps the nonzero rows as given, {(i, j): coordinates of
    [u_i, u_j]}, each pair i != j at most once.  The constructor builds the
    stored forms once: the full antisymmetric `table`, table[i][j] the row
    of [u_i, u_j], and the unit vectors `units`.  Rows hold `rational`
    coefficients and are shared, `bracket_basis` returns a table row
    itself, so all of them are tuples: no caller can change one.
    """

    def __init__(self, basis, brackets):
        self.basis = tuple(basis)
        n = self.n = len(self.basis)
        zero = (ZERO,) * n
        table = [[zero] * n for _ in range(n)]
        self.brackets = {}
        for (i, j), vec in brackets.items():
            row = tuple(rational(x) for x in vec)
            if len(row) != n:
                raise ValueError("bracket vector has wrong length")
            if any(row):
                self.brackets[(i, j)] = table[i][j] = row
                table[j][i] = tuple(-c for c in row)
        self.table = tuple(map(tuple, table))
        self.units = tuple(tuple(ONE if k == a else ZERO for k in range(n)) for a in range(n))

    def bracket_basis(self, i, j):
        return self.table[i][j]

    def bracket(self, v, w):
        out = [ZERO] * self.n
        for i, a in enumerate(v):
            if a == 0:
                continue
            for j, b in enumerate(w):
                if b == 0:
                    continue
                ab = a * b
                for k, c in enumerate(self.table[i][j]):
                    out[k] += ab * c
        return out

    def _pair_brackets(self, vectors):
        return [self.bracket(v, w) for i, v in enumerate(vectors) for w in vectors[i + 1:]]

    def is_subalgebra(self, vectors):
        """Whether the span of `vectors` is closed under the bracket."""
        return linalg.matrix_rank(vectors + self._pair_brackets(vectors)) \
            == linalg.matrix_rank(vectors)

    def check_jacobi(self):
        n, units = self.n, self.units
        for i, j, k in combinations(range(n), 3):
            s = [ZERO] * n
            for (a, b, c) in ((i, j, k), (k, i, j), (j, k, i)):
                v = self.bracket(self.table[a][b], units[c])
                s = [x + y for x, y in zip(s, v)]
            if any(s):
                return False, (i, j, k)
        return True, None

    def check_nilpotent(self):
        """Lower central series reaches 0."""
        layer = self.units
        for _ in range(self.n + 1):
            nxt = [self.bracket(v, w) for v in layer for w in self.units]
            nxt = [v for v in nxt if any(v)]
            if not nxt:
                return True
            layer, _ = linalg.rref(nxt)
        return False

    def derived_dim(self, sub_basis):
        """dim of the span of the brackets of two vectors of `sub_basis`."""
        return linalg.matrix_rank(self._pair_brackets(sub_basis))


class GroupPresentation:
    """A unipotent group presented by its Hopf data."""

    def __init__(self, name, generators, parameters=()):
        self.name = name
        self.ring = PolyRing(generators, parameters)
        self._q = {}
        self._q_read = False
        self.named_subgroups = {}
        self.named_points = {}
        self._coprod = {}
        self._iter = {}
        self._antipode = {}
        self._corad = {}
        self._words = {}
        self._coinv = {}
        self._subgroup_ideals = {}  # strata.subgroup_ideal's memo, keyed by SubgroupParam
        self._product_maps = {}  # strata's generic product maps, keyed by (SubgroupParam, shape)
        self._gradings = {}  # cocycle.WeightGrading.of's memo, keyed by RMatrix
        self._lie = None

    # -- bookkeeping ------------------------------------------------------
    @property
    def q(self):
        """The coproduct corrections q(g), keyed by generator; primitive ones are absent.

        Every memo, here or on a cocycle, functional or context built on this
        presentation, is a function of q.  So the first read fixes q: from
        then on `set_q` raises, and no memo can outlive a change of q.
        """
        self._q_read = True
        return MappingProxyType(self._q)

    @cached_property
    def leg_degree(self):
        """The largest generator degree of a q slot entry, 0 when there is no q.

        At most 1, no leg of Delta(m) outgrows m.  Computed once; reading it fixes q.
        """
        return max((m.degree for q in self.q.values() for key in q.terms for m in key), default=0)

    def set_q(self, gen, tensor):
        """Attach a coproduct correction; only before anything has read `q`."""
        if self._q_read:
            raise PresentationError("q(%s) set after q was read; q is fixed once read" % gen)
        if gen not in self.ring.index:
            raise PresentationError("q-data for unknown generator %r" % gen)
        if not isinstance(tensor, TensorPoly) or tensor.rank != 2 or tensor.ring is not self.ring:
            raise PresentationError("q(%s) must be a rank-2 tensor over the group ring" % gen)
        if tensor.is_zero():
            self._q.pop(gen, None)
        else:
            self._q[gen] = tensor

    def add_subgroup(self, name, param_names, coord_exprs):
        self.named_subgroups[name] = SubgroupParam(self, param_names, coord_exprs)
        return self.named_subgroups[name]

    def add_point(self, name, coords):
        self.named_points[name] = Point(self, coords)
        return self.named_points[name]

    def point(self, coords):
        return Point(self, coords)

    def identity_point(self):
        return Point(self, {})

    def gen_index(self, name):
        """1-based chain index of a generator."""
        return self.ring.index[name] + 1

    # -- coproduct ---------------------------------------------------------
    def coproduct_gen(self, name):
        one = self.ring.one
        x = self.ring.var(name)
        base = TensorPoly.from_polys([x, one]) + TensorPoly.from_polys([one, x])
        q = self.q.get(name)
        return base + q if q is not None else base

    def _split_first(self, m):
        # (name, rest) with m = name * rest, name the first variable of m
        i = next(i for i, e in enumerate(m.exps) if e)
        exps = list(m.exps)
        exps[i] -= 1
        return self.ring.names[i], self.ring.monomial(exps)

    def coproduct_monomial(self, m):
        cached = self._coprod.get(m)
        if cached is not None:
            return cached
        if m.is_one:
            result = TensorPoly.from_polys([self.ring.one, self.ring.one])
        else:
            name, rest = self._split_first(m)
            if self.ring.is_parameter(name):
                # Parameters are central scalars: Delta is Q[params]-linear.
                # The parameter factor is carried on slot 1 by convention;
                # bilinear consumers split it off as a coefficient.
                pmono = self.ring.var_monomial(name)
                part = self.coproduct_monomial(rest)
                result = TensorPoly(self.ring, 2,
                                    {(k[0].mul(pmono), k[1]): c
                                     for k, c in part.terms.items()})
            else:
                result = self.coproduct_monomial(rest).slotwise_mul(self.coproduct_gen(name))
        self._coprod[m] = result
        return result

    def coproduct(self, f):
        out = TensorPoly.zero(self.ring, 2)
        for m, c in f.terms.items():
            out = out + self.coproduct_monomial(m).scale(c)
        return out

    def contract(self, m1, m2, f, g, support=None, start=None):
        """The rank-2 convolution sum over Delta(m1) x Delta(m2), by monomial.

        Returns {monomial: sum c c' f(a1,b1) g(a2,b2)} over the coproduct
        terms c a1 (x) a2 of m1 and c' b1 (x) b2 of m2, zero entries dropped.
        f and g take two parameter-free monomials to a scalar, keyed by 1;
        g may instead return a {monomial: coefficient} dict, such as another
        contraction's result, whose keys then key its terms.  Only f may be
        None: it then stands for the monomial product of its two arguments,
        and that product keys the result.  The sum starts from `start`, a
        {monomial: coefficient} dict, when one is given.  Each factor is
        tested for zero before coefficients are multiplied.  Each key's sum
        is kept as an int numerator over an int denominator (`accumulate`),
        and only the result values are built as rationals (`settle`): one
        per key that a term touches, while start's other keys keep theirs.

        `support` is the `Support` of the first scalar slot (f, or g when f
        is None): the slot is 0 on (x, y) unless (w(x), w(y)) lies in it, so
        only the term pairs where it can be nonzero are read (`term_groups`).
        """
        return self.contract_groups(self.term_groups(m1, m2, support, f is not None), f, g, start)

    def term_groups(self, m1, m2, support, first):
        """The pairs of Delta term groups of m1 and m2 where a slot with
        `support` on the first legs (`first`) or the second can be nonzero:
        `Support.term_pairs`, or one pair of every term where `support` is None.
        """
        if support is None:
            return ((self.coproduct_monomial(m1).terms.items(),
                     self.coproduct_monomial(m2).terms.items()),)
        return support.term_pairs(self, m1, m2, first)

    def contract_groups(self, groups, f, g, start=None):
        """`contract` over the given pairs of Delta term groups."""
        num, den = {}, {}
        one = self.ring.one_monomial
        for d1, d2 in groups:
            if f is None:
                for (a1, a2), c1 in d1:
                    for (b1, b2), c2 in d2:
                        v = g(a2, b2)
                        if v:
                            c = c1 * c2
                            accumulate(num, den, a1.mul(b1), v.numerator * c.numerator,
                                       v.denominator * c.denominator)
            else:
                for (a1, a2), c1 in d1:
                    for (b1, b2), c2 in d2:
                        v = f(a1, b1)
                        if not v:
                            continue
                        w = g(a2, b2)
                        if not w:
                            continue
                        c = c1 * c2
                        n, d = v.numerator * c.numerator, v.denominator * c.denominator
                        if w.__class__ is dict:
                            for k, cw in w.items():
                                accumulate(num, den, k, n * cw.numerator, d * cw.denominator)
                        else:
                            accumulate(num, den, one, n * w.numerator, d * w.denominator)
        return settle(num, den, start)

    def iterated_coproduct_monomial(self, m, k):
        """Delta^k applied to a monomial, a rank k+1 tensor (k >= 1)."""
        if k == 1:
            return self.coproduct_monomial(m)
        key = (m, k)
        cached = self._iter.get(key)
        if cached is None:
            prev = self.iterated_coproduct_monomial(m, k - 1)
            cached = prev.map_slot(prev.rank, self.coproduct_monomial)
            self._iter[key] = cached
        return cached

    def convolve(self, maps, f, target):
        """The convolution sum c phi1(f1) ... phik(fk) over the terms of Delta^{k-1}(f).

        `maps` holds k >= 2 maps, each taking a monomial to a Poly of
        `target`.  The factors of a term are read left to right and the term
        is dropped at its first zero factor, before any product is formed.
        Parameters of f ride on the first leg, as in `coproduct_monomial`.
        """
        terms = []
        for m, c in f.terms.items():
            for legs, c2 in self.iterated_coproduct_monomial(m, len(maps) - 1).terms.items():
                factors = []
                for phi, leg in zip(maps, legs):
                    v = phi(leg)
                    if v.is_zero():
                        break
                    factors.append(v)
                else:
                    terms.append((reduce(mul, factors), c * c2))
        return target.combination(terms)

    # -- antipode -----------------------------------------------------------
    def antipode_gen(self, name):
        q = self.q.get(name)
        tail = [(self.antipode_monomial(m1) * m2.as_poly(), -c)
                for (m1, m2), c in (q.terms.items() if q is not None else ())]
        return self.ring.combination([(self.ring.var(name), -ONE)] + tail)

    def antipode_monomial(self, m):
        cached = self._antipode.get(m)
        if cached is not None:
            return cached
        if m.is_one:
            result = self.ring.one
        else:
            name, rest = self._split_first(m)
            if self.ring.is_parameter(name):
                result = self.antipode_monomial(rest) * self.ring.var(name)
            else:
                result = self.antipode_monomial(rest) * self.antipode_gen(name)
        self._antipode[m] = result
        return result

    # -- coradical degree ----------------------------------------------------
    def corad_degree_gen(self, name):
        cached = self._corad.get(name)
        if cached is not None:
            return cached
        q = self.q.get(name)
        d = 1
        if q is not None:
            for (m1, m2), _ in q.terms.items():
                d = max(d, self.corad_degree_monomial(m1) + self.corad_degree_monomial(m2))
        self._corad[name] = d
        return d

    def corad_degree_monomial(self, m):
        d = 0
        for i in range(self.ring.ngens):
            if m.exps[i]:
                d += m.exps[i] * self.corad_degree_gen(self.ring.names[i])
        return d

    # -- word tables (degree-(1,..,1) components of iterated coproducts) -----
    def word_table(self, m, k):
        """Coefficients of X_{i1} (x) ... (x) X_{ik} in Delta^{k-1}(monomial).

        Returns a dict word-tuple (0-based generator indices) -> int or Fraction.
        """
        key = (m, k)
        hit = self._words.get(key)
        if hit is not None:
            return hit
        if k == 0:
            out = {(): ONE} if m.is_one else {}
        elif k == 1:
            out = {}
            if m.degree == 1 and m.param_degree() == 0:
                for i in range(self.ring.ngens):
                    if m.exps[i] == 1:
                        out[(i,)] = ONE
        else:
            out = {}
            for (m1, m2), c in self.coproduct_monomial(m).terms.items():
                if m1.degree != 1 or m1.param_degree() != 0:
                    continue
                idx = next(i for i in range(self.ring.ngens) if m1.exps[i] == 1)
                for word, c2 in self.word_table(m2, k - 1).items():
                    w = (idx,) + word
                    v = out.get(w, ZERO) + c * c2
                    if v:
                        out[w] = v
                    else:
                        out.pop(w, None)
        self._words[key] = out
        return out

    # -- points ---------------------------------------------------------------
    def evaluate(self, f, p):
        """Evaluate f at a point; exact, multiplicative."""
        images = {g: p.coord(g) for g in self.ring.generators}
        out = f.substitute(images, self.ring)
        return out

    def point_inv(self, p):
        coords = {}
        for g in self.ring.generators:
            coords[g] = self.evaluate(self.antipode_gen(g), p)
        return Point(self, coords)

    def symbolic_point(self, generators=()):
        """(ring, at_g, at_g_inverse): evaluation at a symbolic point g and at g^-1.

        `ring` has `generators` before the group's generators, and the
        coordinates of g, g_<X> (more underscores if a name is taken), after
        its parameters.  g^-1's coordinates are S(X)(g).  Both maps take a
        monomial to a Poly of `ring`.
        """
        ring = self.ring
        sym = ring.fresh_names("g_", ring.generators)
        ext = PolyRing(tuple(generators) + ring.generators, ring.parameters + tuple(sym.values()))
        at_g = ring.hom({g: ext.var(s) for g, s in sym.items()}, ext)

        def at_g_inverse(m):
            return ext.combination((at_g(a), c) for a, c in self.antipode_monomial(m).terms.items())

        return ext, at_g, at_g_inverse

    def conjugation_images(self):
        """Images of generators under conjugation by a symbolic point.

        Returns (extended_ring, images) where images[name] is
        sum f1(g) f2 S(f3)(g) in the coordinates g_<name> of `symbolic_point`.
        """
        ext, at_g, at_g_inverse = self.symbolic_point()
        maps = (at_g, self.ring.hom({}, ext), at_g_inverse)
        return ext, {g: self.convolve(maps, self.ring.var(g), ext) for g in self.ring.generators}

    def adjoint_matrix(self):
        """Ad(g) on the Lie basis, symbolic in g with coordinates named by the generators.

        Read off the linear part of `conjugation_images`: ad[i][j] is the
        coefficient of X_i in C_g(X_j).  A tangent vector moves by the
        transpose, Ad(g) u_a = sum_k ad[a][k] u_k.
        """
        ext, images = self.conjugation_images()
        n = self.ring.ngens
        back = {s: self.ring.var(g) for s, g in zip(ext.parameters[-n:], self.ring.generators)}
        row = {ext.var_monomial(g): i for i, g in enumerate(self.ring.generators)}
        pairs = [[[] for _ in range(n)] for _ in range(n)]
        for j, g in enumerate(self.ring.generators):
            for m, c in images[g].terms.items():
                i = row.get(m.gen_part)
                if i is not None:
                    pairs[i][j].append((m.param_part.as_poly().substitute(back, self.ring), c))
        return [[self.ring.combination(cell) for cell in cells] for cells in pairs]

    # -- Lie data ---------------------------------------------------------------
    def lie_data(self):
        """Structure constants on the basis dual to the generators, from q."""
        if self._lie is None:
            n = self.ring.ngens
            # the u_k coefficient of [u_a, u_b] is that of X_a (x) X_b in q(X_k)
            # less that of X_b (x) X_a: slots of one generator and no parameter
            brackets = {}
            for g, q in self.q.items():
                for (m1, m2), v in q.terms.items():
                    if m1.total_degree() == m2.total_degree() == m1.degree == m2.degree == 1:
                        a, b = m1.exps.index(1), m2.exps.index(1)
                        if a != b:
                            row = brackets.setdefault((min(a, b), max(a, b)), [ZERO] * n)
                            row[self.ring.index[g]] += v if a < b else -v
            self._lie = LieAlgebraData(["u_" + g for g in self.ring.generators], brackets)
        return self._lie

    # -- coset functions ---------------------------------------------------------
    def coinvariants(self, subgroup, degree_bound, side="left"):
        """Basis of functions of degree <= bound constant on (left/right/double) cosets.

        f is left-invariant iff (id (x) res_T) Delta f = f (x) 1, right-invariant
        iff the mirror holds.  Each side gives one sparse equation in f's
        coefficients per (kept leg, monomial of the restricted leg); their
        nullspace comes from the unique RREF, so equation order cannot change
        it.  Memoized per (subgroup, bound, side); each call returns a fresh
        list.  The restriction to T is built once and serves every term.
        """
        if side not in ("left", "right", "double"):
            raise ValueError("side must be left, right or double")
        key = (subgroup, degree_bound, side)
        if key in self._coinv:
            return list(self._coinv[key])
        mons = self.ring.monomials_up_to(degree_bound)
        sides = [w for w in ("left", "right") if side in (w, "double")]
        rename = self.ring.fresh_names("c_", subgroup.param_names)
        tring = PolyRing(self.ring.generators, self.ring.parameters + tuple(rename.values()))
        restrict = subgroup.restriction(tring, rename)

        rows = {}
        for col, m in enumerate(mons):
            delta = self.coproduct_monomial(m)
            for which in sides:
                for (m1, m2), c in delta.terms.items():
                    keep, proj = (m1, restrict(m2)) if which == "left" else (m2, restrict(m1))
                    for pm, pc in proj.terms.items():
                        row = rows.setdefault((which, keep, pm), {})
                        row[col] = row.get(col, ZERO) + c * pc
                # subtract f (x) 1
                row = rows.setdefault((which, m, tring.one_monomial), {})
                row[col] = row.get(col, ZERO) - ONE
        basis = linalg.nullspace(list(rows.values()), len(mons))
        out = [Poly(self.ring, dict(zip(mons, vec))) for vec in basis]
        self._coinv[key] = out
        return list(out)

    # -- validation ----------------------------------------------------------------
    def q_defects(self, gen, tensor):
        """(check name, detail) for each slot entry of q(gen) that breaks a rule.

        Each slot entry must be nonconstant and may only involve generators
        below gen in the chain.
        """
        i = self.gen_index(gen)
        out = []
        for (m1, m2), _ in tensor.terms.items():
            for mm in (m1, m2):
                if mm.degree == 0:
                    out.append(("q-counit-free", "q(%s) has a scalar slot entry" % gen))
                if mm.max_generator_index() >= i:
                    out.append(("q-chain-containment",
                                "q(%s) involves a generator of index >= %d" % (gen, i)))
        return out

    def validate(self, strict=False):
        checks = []

        def record(name, ok, detail=""):
            checks.append(ValidationCheck(name, ok, detail))

        ok_chain = True
        for g, q in self.q.items():
            for name, detail in self.q_defects(g, q):
                record(name, False, detail)
                ok_chain = False
        if ok_chain:
            record("q-chain-containment", True)
            record("q-counit-free", True)
        else:
            # the recursive checks below assume the chain containment; a
            # violating presentation would not terminate, so stop here
            return ValidationReport(checks)

        def each_generator(name, fails, detail="fails on %s"):
            # one check over the generators, reporting the first that fails
            bad = next((g for g in self.ring.generators if fails(g)), None)
            record(name, bad is None, "" if bad is None else detail % bad)

        def coassociativity_fails(g):
            d = self.coproduct_gen(g)
            return d.map_slot(1, self.coproduct_monomial) != d.map_slot(2, self.coproduct_monomial)

        def counit_fails(g):
            # (eps (x) id) Delta(X) and (id (x) eps) Delta(X): the terms with a 1 in the other slot
            terms = self.coproduct_gen(g).terms.items()
            return any(self.ring.combination((key[1 - s].as_poly(), c) for key, c in terms
                                             if key[s].is_one) != self.ring.var(g)
                       for s in (0, 1))

        def antipode_fails(g):
            maps = (self.antipode_monomial, Monomial.as_poly)
            return not self.convolve(maps, self.ring.var(g), self.ring).is_zero()

        each_generator("coassociativity", coassociativity_fails)
        each_generator("counit-axiom", counit_fails)
        each_generator("antipode-axiom", antipode_fails)

        lie = self.lie_data()
        jac, bad = lie.check_jacobi()
        record("lie-jacobi", jac, "" if jac else "triple %s" % (bad,))
        record("lie-nilpotent", lie.check_nilpotent())

        if strict:
            ext, images = self.conjugation_images()

            def shifts(g):
                i = self.gen_index(g)
                return any(not 0 < m.max_generator_index() < i
                           for m in (images[g] - ext.var(g)).terms)

            each_generator("strict-central-chain", shifts,
                           "conjugate of %s shifts outside the lower chain")

        return ValidationReport(checks)


class ValidationCheck:
    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        s = "PASS" if self.ok else "FAIL"
        return "%s %s%s" % (s, self.name, (": " + self.detail) if self.detail else "")


class ValidationReport:
    def __init__(self, checks):
        self.checks = checks

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def lines(self):
        return [repr(c) for c in self.checks]
