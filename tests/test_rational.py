"""Coefficients are ints when integral and Fractions otherwise, never floats.

`poly.rational` is the one switch between the two representations.  Patched
to return `Fraction(x)`, it makes every stored coefficient a `Fraction`, the
all-`Fraction` route; the tests below compare that route with the normal one
and walk the structures a report leaves behind.
"""

import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitwist import catalog, cli, cocycle, hopf, poly
from unitwist.cli import build_context, report_lines
from unitwist.groebner import TermOrder
from unitwist.poly import Monomial, render_poly
from unitwist.strata import subgroup_F
from unitwist.twist import TwistedContext, rform_axiom_check


def canonical(c):
    """An int, or a Fraction that is not integral; a float or an integral Fraction is not."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _is_key(k):
    # a Poly, contraction or pair-cache key: a monomial or a tuple of them
    return type(k) is Monomial or (type(k) is tuple and k != () and
                                   all(type(m) is Monomial for m in k))


# a TermOrder caches the Groebner kernel's own primitive integer polynomials
_SKIP = (type, types.ModuleType, types.FunctionType, types.MethodType,
         types.BuiltinFunctionType, str, bytes, TermOrder)


def _walk(roots):
    """(coefficients, floats) reachable from the roots.

    A coefficient is a number stored under a monomial key, or beside a tuple
    of monomials in a (key, number) pair: the terms of every Poly and
    TensorPoly, Delta's term lists, contraction results, `Cocycle.pair`
    caches, correction tables.  Floats count wherever they sit.
    """
    seen, stack, coeffs, floats = set(), list(roots), [], []
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, _SKIP):
            continue
        seen.add(id(x))
        if isinstance(x, float):
            floats.append(x)
        elif isinstance(x, dict):
            for k, v in x.items():
                if _is_key(k) and isinstance(v, (int, float, Fraction)):
                    coeffs.append(v)
                stack += (k, v)
        elif isinstance(x, (list, tuple, set, frozenset)):
            if type(x) is tuple and len(x) == 2 and type(x[0]) is tuple and _is_key(x[0]) \
                    and isinstance(x[1], (int, float, Fraction)):
                coeffs.append(x[1])
            stack += x
        else:
            stack += getattr(x, "__dict__", {}).values()
            for cls in type(x).__mro__:
                stack += (getattr(x, s) for s in getattr(cls, "__slots__", ())
                          if hasattr(x, s))
    return coeffs, floats


def _all_fraction_route(monkeypatch):
    # every module that stores through `rational` holds its own name for it
    for module in (poly, hopf, cocycle):
        monkeypatch.setattr(module, "rational", Fraction)


class _Recorder:
    """Keeps what a report builds and drops: loaded data, strata, c0, R-forms."""

    def __init__(self, monkeypatch):
        self.roots = []
        load, stratum, c0 = catalog.CatalogEntry.load, cli.run_stratum, cli.run_c0
        rform = TwistedContext.rform
        monkeypatch.setattr(catalog.CatalogEntry, "load", lambda e: self.keep(load(e)))
        monkeypatch.setattr(cli, "run_stratum", lambda *a, **k: self.keep(stratum(*a, **k)))
        monkeypatch.setattr(cli, "run_c0", lambda *a: self.keep(c0(*a)))
        monkeypatch.setattr(TwistedContext, "rform", lambda ctx: self.keep(rform(ctx)))

    def keep(self, x):
        self.roots.append(x)
        return x


def _exps(d):
    """A dict keyed by monomials or monomial tuples, rekeyed by exponent tuples."""
    return {tuple(m.exps for m in k) if type(k) is tuple else k.exps:
            _exps(v) if type(v) is dict else v for k, v in d.items()}


def _route(cid, monkeypatch, all_fraction):
    """The report, drawn products and the R-form check at 4 on fresh data, on one route."""
    with monkeypatch.context() as mp:
        if all_fraction:
            _all_fraction_route(mp)
        rec = _Recorder(mp)
        lines, _ = report_lines(catalog.get(cid))
        data = rec.roots[0]
        ctx = build_context(catalog.get(cid).load())
        rrep = rform_axiom_check(ctx, 4)
        mons = ctx.pres.ring.monomials_up_to(3, include_one=False)
        rng = random.Random(22)
        pairs = [(rng.choice(mons), rng.choice(mons)) for _ in range(40)]
        products = [ctx.mul_monomials(a, b) for a, b in pairs]
    out = {
        "lines": "\n".join(lines + rrep.lines()),
        "products": [_exps(p.terms) for p in products],
        "rendered": [render_poly(p) for p in products],
        "pairs": [_exps(j._cache) for j in (data.context.right, data.context.right_inv)],
        "rform": [_exps(r._cache) for r in rec.roots if isinstance(r, cocycle.Convolution)],
        "right_products": _exps(data.context.right._products),
    }
    return out, _walk(rec.roots)


@pytest.mark.parametrize("cid", catalog.ids())
def test_int_route_matches_all_fraction_route(monkeypatch, cid):
    got, (coeffs, _) = _route(cid, monkeypatch, False)
    want, (ref_coeffs, _) = _route(cid, monkeypatch, True)
    # the patch reaches every store site, and the normal route stores ints
    assert ref_coeffs and all(type(c) is Fraction for c in ref_coeffs)
    assert any(type(c) is int for c in coeffs)
    for key in want:
        assert got[key] == want[key], key
    assert got["lines"].encode() == want["lines"].encode()
    if cid in ("u4-ex5", "u4-ex6"):
        assert any(p for p in got["products"])


@pytest.mark.parametrize("cid", catalog.ids())
def test_report_coefficients_are_canonical(monkeypatch, cid):
    # presentation, Gamma, strata, corrections, products and the pair caches
    # of J, J^-1 and the R-form, as the report leaves them
    rec = _Recorder(monkeypatch)
    _, mismatches = report_lines(catalog.get(cid))
    assert mismatches == []
    coeffs, floats = _walk(rec.roots)
    assert floats == []
    assert len(coeffs) > 100
    assert [c for c in coeffs if not canonical(c)] == []
    if cid == "u4-ex6":
        corrections = rec.roots[0].cocycle.corrections
        assert corrections and all(map(canonical, corrections.values()))


@pytest.mark.parametrize("cid", catalog.ids())
def test_rmatrix_and_lie_table_are_canonical(cid):
    # the stored forms every Lie check reads: r's matrix, sparse rows and
    # support, and the bracket rows as given and as the full table; they are
    # shared, so they are tuples all the way down, which no consumer can change
    data = catalog.get(cid).load()
    r, lie = data.rmatrix, data.presentation.lie_data()
    assert r.support and len(lie.table) == lie.n
    assert r.rows == tuple(tuple((b, v) for b, v in enumerate(row) if v) for row in r.matrix)
    for stored in (r.matrix, r.rows, r.support, lie.table, lie.units):
        assert type(stored) is tuple and all(type(row) is tuple for row in stored)
    assert all(type(row) is tuple for rows in lie.table for row in rows)
    assert all(type(row) is tuple for row in lie.brackets.values())
    coeffs = [c for row in r.matrix for c in row] + [v for _, _, v in r.support]
    coeffs += [v for row in r.rows for _, v in row]
    coeffs += [c for row in lie.brackets.values() for c in row]
    coeffs += [c for rows in lie.table for row in rows for c in row]
    assert [c for c in coeffs if not canonical(c)] == []


@pytest.mark.parametrize("cid", catalog.ids())
def test_cobracket_basis_is_canonical(cid):
    # the tangent basis of T that the cobracket and its bracket checks read
    data = catalog.get(cid).load()
    pres = data.presentation
    cob, _ = subgroup_F(pres.lie_data(), pres.named_subgroups["T"].tangent_vectors(),
                        data.rmatrix)
    assert [c for v in cob.basis for c in v if not canonical(c)] == []


_RATIONALS = st.one_of(st.integers(-40, 40),
                       st.fractions(min_value=-9, max_value=9, max_denominator=12))


def test_accumulate_matches_a_fraction_sum():
    # mixed ints and Fractions, with some keys' sums driven to 0 and some to
    # an integer by a last term; `settle` keeps the nonzero sums, canonical
    seen = {"zero": 0, "integral": 0, "fractional": 0}

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), _RATIONALS), max_size=24),
           st.sets(st.integers(0, 4)), st.sets(st.integers(0, 4)))
    def check(terms, to_zero, to_int):
        want = {}
        for k, v in terms:
            want[k] = want.get(k, 0) + Fraction(v)
        terms = terms + [(k, -want[k]) for k in sorted(to_zero) if k in want]
        terms += [(k, math.floor(want[k]) + 1 - want[k]) for k in sorted(to_int - to_zero)
                  if k in want]
        want = {}
        num, den = {}, {}
        for k, v in terms:
            want[k] = want.get(k, 0) + Fraction(v)
            poly.accumulate(num, den, k, v.numerator, v.denominator)
        assert all(type(n) is int for n in num.values())
        assert all(type(d) is int and d > 0 for d in den.values())
        got = poly.settle(num, den)
        assert got == {k: v for k, v in want.items() if v}
        assert [v for v in got.values() if not canonical(v)] == []
        for v in want.values():
            seen["zero" if v == 0 else "integral" if v.denominator == 1 else "fractional"] += 1

    check()
    assert min(seen.values()) > 20, seen
