"""The benchmark's three workloads: inputs, set-up, the timed op and its check.

Inputs come from the reference pools in `refs/`, recorded at a known-good
commit by `make_refs.py`, so every op has a stored expected output.  A pool
is a list of slots.  The variants of one slot differ only in their rational
constants (the coefficients of a triple, the coordinates of a point), not
in the monomials or coordinates involved, so they cost the same.  A pass
runs one variant of every slot in a fixed order, and the seed picks the
variants.  Every seed thus gets its own inputs but the same work, where a
free draw would make a pass's cost depend on the seed (single twisted
triples range from 0.05 s to 5 s).

Only `setup` and `run` touch the engine; they run inside a worker process.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")


def _load_pool(name):
    with open(os.path.join(REFS, name + ".json")) as fh:
        return json.load(fh)


def _draw(slots, rng):
    """One variant of each slot, in the order cheapest, costliest, second
    cheapest, second costliest, ... (the pool is sorted by cost).

    Cheap and costly ops then spread over the whole pass, so a slow spell of
    the shared host does not fall on one end of the op-time pool only.
    """
    order = [slot for pair in zip(slots, reversed(slots)) for slot in pair][:len(slots)]
    return [dict(rng.choice(slot["variants"])) for slot in order]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """An op's output is text compared with the stored reference as is."""

    def output(self, state, op, result):
        return result

    def matches(self, op, text):
        return text == op["expect"]


class CatalogReport(Workload):
    """`report_lines` for the six catalog entries, in catalog order."""

    name = "catalog-report"
    why = ("the golden reports users run; every layer, no work shared between "
           "entries, and c0 on jordan4-minimal sets the tail")

    def ops(self, seed):
        # The seed is recorded but does not change this workload's inputs.
        with open(os.path.join(REFS, "catalog", "order.txt")) as fh:
            ids = fh.read().split()
        ops = []
        for eid in ids:
            with open(os.path.join(REFS, "catalog", eid + ".txt")) as fh:
                ops.append({"label": eid, "id": eid, "expect": fh.read()})
        return ops

    def setup(self, ops):
        from unitwist import catalog, cli
        entries = [catalog.get(op["id"]) for op in ops]
        # report_lines loads its entry again; this times the set-up a report
        # starts with, as for the other workloads.
        for entry in entries:
            cli.build_context(entry.load())
        return {"cli": cli, "entries": entries}

    def run(self, state, i, op):
        lines, _ = state["cli"].report_lines(state["entries"][i])
        return "\n".join(lines) + "\n"


class TwistedProducts(Workload):
    """(ab)c and a(bc) under the two-sided deformation of u4-ex6."""

    name = "twisted-products"
    why = ("deformed products on u4-ex6 (corrected cocycle, nonabelian support): "
           "pair and product caches carry the time; no Groebner or linalg calls")

    def ops(self, seed):
        pool = _load_pool(self.name)
        ops = _draw(pool["slots"], random.Random(seed))
        for op in ops:
            op["label"] = "(%s) * (%s) * (%s)" % (op["a"], op["b"], op["c"])
            op["group"] = pool["group"]
        return ops

    def setup(self, ops):
        from unitwist import catalog, cli
        from unitwist.poly import parse_poly
        data = catalog.get(ops[0]["group"]).load()
        ctx = cli.build_context(data)
        ring = data.presentation.ring
        triples = [tuple(parse_poly(op[k], ring) for k in "abc") for op in ops]
        return {"ctx": ctx, "triples": triples}

    def run(self, state, i, op):
        ctx = state["ctx"]
        a, b, c = state["triples"][i]
        return ctx.mul(ctx.mul(a, b), c), ctx.mul(a, ctx.mul(b, c))

    def output(self, state, op, result):
        from unitwist.poly import render_poly
        left, right = result
        if left != right:
            return "NOT ASSOCIATIVE: %s != %s" % (render_poly(left), render_poly(right))
        return render_poly(left)

    def matches(self, op, text):
        return sha256(text) == op["expect"]


class StrataSweep(Workload):
    """Full `stratum_presentation` at inline points of T on u4-ex5 and u4-ex6."""

    name = "strata-sweep"
    why = ("double-coset strata at seeded points: Groebner, elimination and "
           "coinvariant linear algebra carry the time; few pair calls")

    def ops(self, seed):
        pool = _load_pool(self.name)
        rng = random.Random(seed)
        drawn = []
        for group in sorted(pool["groups"]):
            drawn.append(_draw(pool["groups"][group], rng))
            for op in drawn[-1]:
                op["group"] = group
                op["subgroup"] = pool["subgroup"]
                op["label"] = "%s %s %s" % (group, pool["subgroup"], op["point"])
        # alternate the groups
        return [op for ops in zip(*drawn) for op in ops]

    def setup(self, ops):
        from unitwist import catalog, cli, strata
        from unitwist.poly import parse_poly
        groups = {}
        for group in sorted({op["group"] for op in ops}):
            data = catalog.get(group).load()
            groups[group] = (data.presentation, cli.build_context(data))
        points = []
        for op in ops:
            pres = groups[op["group"]][0]
            coords = {}
            for part in op["point"].split(","):
                name, val = part.split("=", 1)
                coords[name] = parse_poly(val, pres.ring)
            points.append(pres.point(coords))
        return {"strata": strata, "groups": groups, "points": points}

    def run(self, state, i, op):
        pres, ctx = state["groups"][op["group"]]
        stratum = state["strata"].stratum_presentation(
            pres, ctx, pres.named_subgroups[op["subgroup"]], state["points"][i],
            name=op["point"])
        return "\n".join(stratum.lines()) + "\n"


WORKLOADS = {w.name: w for w in (CatalogReport(), TwistedProducts(), StrataSweep())}
