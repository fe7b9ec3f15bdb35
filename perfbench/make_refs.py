"""Record the benchmark's reference pools from the engine as it is now.

    python3 perfbench/make_refs.py

Run from the root of a checkout at a commit whose outputs are known good;
it rewrites perfbench/refs/.  The benchmark never calls this: it compares
every op against what this script stored.

  catalog/<id>.txt        stdout of `unitwist report --example ID`
  twisted-products.json   TRIPLE_SLOTS triples of supports, each three
                          3-term monomial sets of degree <= 2 on u4-ex6, with
                          VARIANTS coefficient choices each; a variant stores
                          the sha256 of its rendered product (ab)c, which
                          must equal a(bc)
  strata-sweep.json       for u4-ex5 and u4-ex6, one slot per pair of
                          coordinates of T's ambient group, with
                          POINTS_PER_PAIR nonzero small rational values each;
                          a variant stores the stdout of
                          `unitwist strata --example G --point P`

Each variant also stores `cold_s`, its op time alone in a fresh worker.
Slots are sorted by their median `cold_s`, cheapest first.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import subprocess
import sys

from run import ROOT, SRC, spawn
from workloads import REFS, sha256

POOL_SEED = 2407  # fixed: a new pool is a new benchmark
TRIPLE_SLOTS = 12
VARIANTS = 6
POINTS_PER_PAIR = 4
VALUES = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "1/3", "-1/3",
          "2/3", "-2/3", "3/2", "-3/2")
STRATA_GROUPS = ("u4-ex5", "u4-ex6")


def cli(*args):
    proc = subprocess.run([sys.executable, "-m", "unitwist.cli"] + list(args),
                          capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC))
    if proc.returncode != 0:
        raise SystemExit("unitwist %s exited %d: %s"
                         % (" ".join(args), proc.returncode, proc.stderr))
    return proc.stdout


def record(workload, op):
    """Output and op time of one op alone in a fresh worker."""
    out = spawn({"workload": workload, "mode": "record", "ops": [op]})
    if out["errors"]:
        raise SystemExit("%s op %r failed: %s" % (workload, op, out["errors"]))
    return out["outputs"][0], out["op_s"][0]


def write_json(name, obj):
    with open(os.path.join(REFS, name), "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def by_cost(slots):
    return sorted(slots, key=lambda slot: statistics.median(v["cold_s"] for v in slot["variants"]))


def catalog_refs():
    from unitwist import catalog
    os.makedirs(os.path.join(REFS, "catalog"), exist_ok=True)
    order = list(catalog.CATALOG)
    for eid in order:
        with open(os.path.join(REFS, "catalog", eid + ".txt"), "w") as fh:
            fh.write(cli("report", "--example", eid))
    with open(os.path.join(REFS, "catalog", "order.txt"), "w") as fh:
        fh.write("\n".join(order) + "\n")


def twisted_refs(rng):
    from fractions import Fraction

    from unitwist import catalog
    from unitwist.poly import Poly, render_poly
    group = "u4-ex6"
    ring = catalog.get(group).load().presentation.ring
    monomials = ring.monomials_up_to(2)
    slots = []
    for i in range(TRIPLE_SLOTS):
        supports = [rng.sample(monomials, 3) for _ in "abc"]
        variants = []
        for _ in range(VARIANTS):
            a, b, c = (render_poly(Poly(ring, {m: Fraction(rng.choice(VALUES)) for m in s}))
                       for s in supports)
            text, cold = record("twisted-products", {"a": a, "b": b, "c": c, "group": group})
            if text.startswith("NOT ASSOCIATIVE"):
                raise SystemExit("triple %s, %s, %s: %s" % (a, b, c, text))
            variants.append({"a": a, "b": b, "c": c, "expect": sha256(text), "cold_s": cold})
        slots.append({"variants": variants})
        print("twisted slot %d: %s s" % (i, " ".join("%.3f" % v["cold_s"] for v in variants)),
              flush=True)
    write_json("twisted-products.json",
               {"group": group, "pool_seed": POOL_SEED, "slots": by_cost(slots)})


def strata_refs(rng):
    from unitwist import catalog
    groups = {}
    for group in STRATA_GROUPS:
        gens = catalog.get(group).load().presentation.ring.generators
        slots = []
        for pair in itertools.combinations(gens, 2):
            variants = []
            for _ in range(POINTS_PER_PAIR):
                point = ",".join("%s=%s" % (g, rng.choice(VALUES)) for g in pair)
                expect = cli("strata", "--example", group, "--point", point)
                op = {"group": group, "subgroup": "T", "point": point}
                text, cold = record("strata-sweep", op)
                if text != expect:
                    raise SystemExit("stratum %s %s: worker and CLI disagree" % (group, point))
                variants.append({"point": point, "expect": expect, "cold_s": cold})
            slots.append({"variants": variants})
            print("strata %s %s: %s s" % (group, ",".join(pair),
                  " ".join("%.3f" % v["cold_s"] for v in variants)), flush=True)
        groups[group] = by_cost(slots)
    write_json("strata-sweep.json", {"subgroup": "T", "pool_seed": POOL_SEED, "groups": groups})


def main():
    sys.path.insert(0, SRC)
    os.makedirs(REFS, exist_ok=True)
    rng = random.Random(POOL_SEED)
    catalog_refs()
    twisted_refs(rng)
    strata_refs(rng)


if __name__ == "__main__":
    main()
