"""Benchmark of the exact engine: one workload, timed end to end or traced.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the engine is imported from `src/`.
Workloads: catalog-report, twisted-products, strata-sweep (see
workloads.py and BENCHMARK.json for why each is there).

Each repetition runs in a fresh single-threaded worker process, one worker
at a time, with PYTHONHASHSEED fixed.  With `--trace 0` the run first
starts SETUP_WORKERS workers that only set up, then repeats timed passes
over the same seeded ops while another pass still fits in `--seconds`
(at least MIN_PASSES).

The host is shared and its speed drifts by more than a factor of 1.5 over
minutes, so every time below is normalised: each worker times a fixed
unit of work every few milliseconds while it sets up and runs its ops
(calibrate.py), leaves that time out of what it measures, and each time
is multiplied by REFERENCE_S / (mean unit time sampled during it).  The
results are seconds on a host where one unit takes REFERENCE_S.  The unit
does not use the engine, so only the engine's own speed moves them.
It reports:

  run_s        median over passes of the summed normalised op times
  op_p90_s     90th percentile of the normalised op times pooled over all
               passes (the sample count is printed)
  setup_s      median normalised time from worker start to inputs ready
  peak_rss_mb  median peak resident set size of a pass worker

and prints, outside the JSON metrics:

  op_p50_s     median of the pooled normalised op times
  run_s, setup_s (wall)  the same medians before scaling (wall time less
               the samples' own time)
  host_speed   REFERENCE_S / mean unit time over the run
  failed_frac  ops that raised or differ from the reference / ops attempted
               (0 on a correct run; `failed` and the exit code carry it)

With `--trace 1` it runs one untraced and one traced pass over the same
ops and reports the per-layer metrics of tracer.py, plus `trace.overhead`,
the traced pass's run_s over the untraced one's.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record of the run (environment, seed,
every op's label, every sample) goes to perfbench/out/.  The exit code is 1
when any op fails, 2 when the engine cannot be run at all (no result is
printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S  # noqa: E402
from tracer import metric_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # keep for checking a claim on inputs it was not tuned on
SETUP_WORKERS = 8
MIN_PASSES = 2
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {"run_s": "s", "op_p90_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(Exception):
    pass


def spawn(spec):
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    spec = dict(spec, src=SRC)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out after %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError("worker exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def git_revision():
    """HEAD's commit id read from .git, without running git (none in a bare checkout)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0],
            "pythonhashseed": "0"}


def scale(samples):
    """Host-speed factor from calibration unit times: REFERENCE_S / their mean."""
    return REFERENCE_S / statistics.mean(samples)


def normalised_ops(p):
    """A pass's op times at the reference speed.  Each op is scaled by the
    units sampled during it; one too short to hold a sample, by the pass's."""
    whole = scale([c for cal in p["op_cal"] for c in cal])
    return [s * (scale(cal) if cal else whole) for s, cal in zip(p["op_s"], p["op_cal"])]


def timed_run(name, ops, seconds):
    start = time.perf_counter()
    setups = [spawn({"workload": name, "mode": "setup", "ops": ops})
              for _ in range(SETUP_WORKERS)]
    passes = []
    pass_start = time.perf_counter()
    while True:
        passes.append(spawn({"workload": name, "mode": "pass", "ops": ops}))
        now = time.perf_counter()
        mean_pass = (now - pass_start) / len(passes)
        if len(passes) >= MIN_PASSES and now - start + mean_pass > seconds:
            break
    setups += passes
    setup_norm = [w["setup_s"] * scale(w["setup_cal"]) for w in setups]
    op_norm = [normalised_ops(p) for p in passes]
    pool = [s for ops_s in op_norm for s in ops_s]
    p90 = statistics.quantiles(pool, n=10, method="inclusive")[8]
    metrics = {
        "run_s": statistics.median(sum(ops_s) for ops_s in op_norm),
        "op_p90_s": p90,
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    cal = [c for w in setups for c in w["setup_cal"]]
    cal += [c for p in passes for op_cal in p["op_cal"] for c in op_cal]
    detail = {"passes": passes, "setup_s_normalised": setup_norm,
              "op_s_normalised": op_norm, "op_samples": len(pool),
              "op_samples_above_p90": sum(1 for s in pool if s > p90),
              "op_p50_s": statistics.median(pool),
              "wall": {"run_s": statistics.median(p["run_s"] for p in passes),
                       "setup_s": statistics.median(w["setup_s"] for w in setups)},
              "calibration": {"units": len(cal), "mean_s": statistics.mean(cal),
                              "host_speed": REFERENCE_S / statistics.mean(cal)}}
    return metrics, passes, detail


def traced_run(name, ops, spans_path):
    plain = spawn({"workload": name, "mode": "pass", "ops": ops})
    traced = spawn({"workload": name, "mode": "trace", "ops": ops, "spans_path": spans_path})
    metrics = dict(traced["metrics"])
    metrics["trace.overhead"] = traced["run_s"] / plain["run_s"]
    detail = {"untraced_run_s": plain["run_s"], "traced_run_s": traced["run_s"],
              "spans_total": traced["spans_total"], "spans_kept": traced["spans_kept"],
              "spans_file": os.path.relpath(spans_path, ROOT),
              "missing_boundaries": traced["missing"], "passes": [plain, traced]}
    return metrics, [plain, traced], detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; %d is held out for checking claims)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "unitwist", "__init__.py")):
        sys.stderr.write("error: no engine at %s; run from the root of a checkout\n" % SRC)
        return 2
    if args.workload == "all":
        return max([run_workload(name, args) for name in WORKLOADS])
    return run_workload(args.workload, args)


def run_workload(name, args):
    """Run one workload, print its metrics and result line; return the exit code."""
    env = environment()
    ops = WORKLOADS[name].ops(args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (name, args.seed, args.trace)
    try:
        if args.trace:
            metrics, passes, detail = traced_run(name, ops,
                                                 os.path.join(OUT, tag + ".spans.jsonl"))
            units = {metric: unit for metric, unit, _ in metric_specs()}
        else:
            metrics, passes, detail = timed_run(name, ops, args.seconds)
            units = END_TO_END_UNITS
    except WorkerError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2

    attempted = sum(len(p["op_s"]) for p in passes)
    errors = [(int(i), msg) for p in passes for i, msg in p["errors"].items()]
    failed = len(errors)
    failed_frac = failed / attempted

    record = {"workload": name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "ops": [op["label"] for op in ops], "metrics": metrics,
              "failed_frac": failed_frac, "errors": errors, "detail": detail}
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s  seed %d  trace %d  (%s)" % (name, args.seed, args.trace,
          ", ".join("%s=%s" % kv for kv in env.items())))
    print("ops per pass: %d, passes: %d, op samples: %d"
          % (len(ops), len(passes), attempted)
          + ("" if args.trace else ", samples above p90: %d" % detail["op_samples_above_p90"]))
    for metric, value in metrics.items():
        print("  %-48s %14.6g %s" % (metric, value, units[metric]))
    if not args.trace:
        print("  %-48s %14.6g %s" % ("op_p50_s", detail["op_p50_s"], "s"))
        for metric, value in detail["wall"].items():
            print("  %-48s %14.6g %s" % (metric + " (wall, not normalised)", value, "s"))
        print("  %-48s %14.6g %s" % ("host_speed (REFERENCE_S / mean unit)",
                                     detail["calibration"]["host_speed"], "ratio"))
    print("  %-48s %14.6g %s" % ("failed_frac", failed_frac, "ratio"))
    for i, msg in errors[:10]:
        print("FAILED op %d (%s): %s" % (i, ops[i]["label"], msg))
    print("record: %s" % os.path.relpath(os.path.join(OUT, tag + ".json"), ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {metric: {"value": value, "unit": units[metric]}
                                  for metric, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
