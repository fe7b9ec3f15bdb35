"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks, on a few ops of each workload, that:
  - BENCHMARK.json names exactly the metrics run.py and tracer.py emit;
  - the tracer rebinds every alias of a wrapped function (package root
    re-exports, `cli._eliminate`, `Poly.__rmul__`);
  - every boundary records at least one call on its heavy workload, so a
    rename shows up here as a missing boundary, not as a free layer;
  - Groebner and linalg record zero calls on twisted-products;
  - every op matches its reference.
Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import os
import sys

from run import END_TO_END_UNITS, OUT, ROOT, SRC, traced_run
from tracer import ZERO_ON, Tracer, heavy_boundaries, metric_specs
from workloads import WORKLOADS

# Few enough ops to run in seconds, chosen to reach every heavy boundary:
# the u4-ex6 report uses all three pair kinds, c0 and the strata; ops 2 and
# 3 of strata-sweep are the costliest point of each group, a normalizing
# point, which reaches the coinvariants and so linalg.
SUBSETS = {"catalog-report": ["u4-ex6"], "twisted-products": slice(0, 1),
           "strata-sweep": slice(2, 4)}


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [tuple(s) for s in metric_specs()]


def check_aliases():
    sys.path.insert(0, SRC)
    import unitwist
    from unitwist import cli, groebner, poly, strata
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing, tracer.missing
        assert unitwist.buchberger is groebner.buchberger is strata.buchberger
        assert groebner.buchberger.__wrapped__ is not None
        assert cli._eliminate is groebner.eliminate
        assert cli.c0_solver is strata.c0_solver
        assert poly.Poly.__rmul__ is poly.Poly.__mul__
    finally:
        tracer.uninstall()
    assert not hasattr(groebner.buchberger, "__wrapped__")


def check_workload(name):
    workload = WORKLOADS[name]
    ops = workload.ops(1)
    subset = SUBSETS[name]
    ops = [op for op in ops if op["label"] in subset] if isinstance(subset, list) \
        else ops[subset]
    os.makedirs(OUT, exist_ok=True)
    metrics, passes, detail = traced_run(name, ops, os.path.join(OUT, "smoke.spans.jsonl"))
    problems = ["op %s: %s" % (i, msg) for p in passes for i, msg in p["errors"].items()]
    problems += ["missing boundary %s" % b for b in detail["missing_boundaries"]]
    for boundary in heavy_boundaries(name):
        key = boundary if boundary.endswith(".created") else boundary + ".calls"
        if not metrics.get(key):
            problems.append("%s recorded no calls" % key)
    for prefix in ZERO_ON.get(name, ()):
        for key, value in metrics.items():
            if key.startswith(prefix) and key.endswith(".calls") and value:
                problems.append("%s = %d, expected 0" % (key, value))
    print("%-17s %d ops, trace overhead %.2f, %d spans (%d kept): %s"
          % (name, len(ops), metrics["trace.overhead"], detail["spans_total"],
             detail["spans_kept"], "ok" if not problems else "FAIL"))
    for p in problems:
        print("  " + p)
    return not problems


def main():
    check_benchmark_json()
    check_aliases()
    ok = all([check_workload(name) for name in WORKLOADS])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
