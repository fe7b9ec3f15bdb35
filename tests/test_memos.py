"""No memo entry changes once it is stored.

The engine memoizes values on presentations, rings, cocycles, contexts and
gradings, and several memos hand out shared dicts and lists that callers
must not change.  For each catalog entry, on one load, the test runs a
report, the R-form check, drawn products and twisted antipodes, snapshots
by value every memo it can reach, runs the same work again with other
commands (validate, gamma, c0 and the manifest's strata), and asserts that
every stored entry still holds its value.  The memos are found by
walking the attributes of engine objects, so a new memo is covered without
editing this file.
"""

import random
from fractions import Fraction

import pytest

from unitwist import catalog, cli
from unitwist.poly import Monomial, Poly, TensorPoly
from unitwist.strata import commutator_ideal_and_gamma, stratum_presentation
from unitwist.twist import rform_axiom_check, twisted_antipode

VALUES = (Monomial, Poly, TensorPoly)  # engine objects compared by value, not walked


def _engine(obj):
    return type(obj).__module__.startswith("unitwist.") and not isinstance(obj, VALUES)


def frozen(v):
    """v by value: containers and polynomials recursively, other objects by identity."""
    if isinstance(v, dict):
        return {k: frozen(x) for k, x in v.items()}
    if isinstance(v, list):
        return [frozen(x) for x in v]
    if isinstance(v, tuple):
        return tuple(frozen(x) for x in v)
    if isinstance(v, (set, frozenset)):
        return frozenset(v)
    if isinstance(v, (Poly, TensorPoly)):
        return type(v).__name__, frozen(v.terms)
    if v is None or isinstance(v, (Monomial, int, Fraction, str)):
        return v
    return "object", id(v)


def reachable_memos(roots):
    """Every dict and list held by an attribute of an engine object reachable
    from `roots`, directly or inside a tuple, by id.

    Engine objects are reached through attributes and through the keys and
    values of the containers met on the way.
    """
    memos, seen, todo = {}, set(), list(roots)

    def inner(v):
        # the engine objects inside a container's keys and values
        if _engine(v):
            todo.append(v)
        elif isinstance(v, dict):
            for k, x in v.items():
                inner(k)
                inner(x)
        elif isinstance(v, (list, tuple, set, frozenset)):
            for x in v:
                inner(x)

    def attribute(v):
        if isinstance(v, tuple):
            for x in v:
                attribute(x)
        elif isinstance(v, (dict, list)):
            memos.setdefault(id(v), v)
        inner(v)

    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        for v in vars(obj).values():
            attribute(v)
    return memos


def changed_entries(memos, snapshot):
    """The entries of `snapshot` that no longer hold: a dict key whose value
    differs or is gone, or a list whose first len(snapshot) items differ."""
    out = []
    for key, was in snapshot.items():
        memo = memos[key]
        if isinstance(memo, dict):
            out += [k for k, v in was.items() if k not in memo or frozen(memo[k]) != v]
        elif frozen(memo[:len(was)]) != was:
            out.append(len(was))
    return out


class OneLoad:
    """A catalog entry whose `load` hands out one GroupData, so a report runs on it."""

    def __init__(self, entry):
        self.id = entry.id
        self.expected = entry.expected
        self.data = entry.load()

    def load(self):
        return self.data


def work(entry):
    data = entry.data
    ctx = cli.build_context(data)
    ring = data.presentation.ring
    rng = random.Random(4)
    mons = ring.monomials_up_to(2, include_one=False)
    polys = [ring.combination((m.as_poly(), Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                              for m in rng.sample(mons, min(3, len(mons))))
             for _ in range(6)]
    out = cli.report_lines(entry)[0]
    out += rform_axiom_check(ctx, 4).lines()
    out += [str(ctx.mul(f, g).terms) for f in polys for g in polys[:3]]
    out += [str(twisted_antipode(ctx, f).terms) for f in polys[:3]]
    return out


def other_commands(entry):
    """validate and c0 at 3, gamma, and a stratum at each point the manifest names."""
    data = entry.data
    ctx = cli.build_context(data)
    pres = data.presentation
    out = cli.run_validate(data, 3, False)[1]
    out += commutator_ideal_and_gamma(ctx).lines()
    out.append(cli.run_c0(data, 3).describe())
    for spec in entry.expected.get("strata", []):
        out += stratum_presentation(pres, ctx, pres.named_subgroups["T"],
                                    pres.named_points[spec["point"]], name=spec["point"]).lines()
    return out


@pytest.mark.parametrize("cid", catalog.ids())
def test_no_memo_entry_changes_once_stored(cid):
    entry = OneLoad(catalog.get(cid))
    first = work(entry)
    ctx = entry.data.context
    roots = (entry.data, ctx, ctx.rform())
    memos = reachable_memos(roots)
    snapshot = {key: frozen(memo) for key, memo in memos.items()}
    # the walk reaches the memos of the presentation, the ring, the cocycles,
    # the context, the grading, and the supports of J and of the letters
    pres, grading = entry.data.presentation, ctx.right.support.grading
    supports = (ctx.right.support, grading.monoid)
    for memo in (pres._words, pres._coprod, pres.ring._monomials, ctx.right._cache,
                 ctx._mul_cache, grading._weight_memo, *grading._groups,
                 *(m for s in supports for m in (s._levels, s._partners, s._sums))):
        assert memo and id(memo) in memos
    assert work(entry) == first
    assert other_commands(entry) == other_commands(OneLoad(catalog.get(cid)))
    # the strata's shared product maps (rings, block orders and graph
    # generators) are reached too, and the rerun read them
    assert id(pres._product_maps) in memos
    assert bool(pres._product_maps) == bool(entry.expected.get("strata"))
    assert changed_entries(memos, snapshot) == []
