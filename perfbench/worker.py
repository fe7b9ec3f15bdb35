"""One benchmark repetition in a fresh process.

Reads a JSON spec on stdin and writes one JSON object on stdout.  A fresh
process per repetition is needed because `GroupPresentation.word_table`
caches in a process-global dict that never shrinks, so repeats inside one
process would share and grow it.

Modes:
  setup   import the engine and prepare the inputs, nothing else;
  pass    one timed pass over the ops, each output checked afterwards;
  trace   the same pass with every layer boundary wrapped (see tracer.py);
  record  one pass that returns the outputs (used by make_refs.py).

In the setup and pass modes a `calibrate.Sampler` times a fixed unit of
work every few milliseconds from the start of `main` to the end of the
pass.  The worker subtracts the samples' time from `setup_s` and from each
op's time, and returns the unit times sampled inside each: `setup_cal`
(with units run back to back right after the set-up) and `op_cal`.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main():
    spec = json.loads(sys.stdin.read())
    workload = WORKLOADS[spec["workload"]]
    ops = spec["ops"]
    mode = spec["mode"]
    clock = time.perf_counter

    sampler = None
    if mode in ("setup", "pass"):
        from calibrate import SETUP_CAL_S, Sampler, calibrate
        sampler = Sampler()
        sampler.start()

    import unitwist
    import unitwist.cli  # noqa: F401  (load every module before tracing)
    src = os.path.realpath(spec["src"])
    if os.path.commonpath([os.path.realpath(unitwist.__file__), src]) != src:
        raise SystemExit("worker imported unitwist from %s, not %s" % (unitwist.__file__, src))

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    state = workload.setup(ops)
    ready = clock()
    out = {"setup_s": ready - T0}
    if sampler is not None:
        busy = sampler.between(T0, ready)
        out["setup_s"] -= sum(busy)
        out["setup_cal"] = busy + calibrate(SETUP_CAL_S)
        if mode == "setup":
            sampler.stop()

    if mode != "setup":
        results, op_s, op_cal, errors = [], [], [], {}
        for i, op in enumerate(ops):
            t = clock()
            try:
                if tracer is not None:
                    with tracer.span("bench.op"):
                        results.append(workload.run(state, i, op))
                else:
                    results.append(workload.run(state, i, op))
            except Exception as e:  # an op that raises is a failed op, not a crash
                results.append(None)
                errors[i] = "%s: %s" % (type(e).__name__, e)
            end = clock()
            busy = sampler.between(t, end) if sampler is not None else []
            op_s.append(end - t - sum(busy))
            op_cal.append(busy)
        if sampler is not None:
            sampler.stop()
            out["op_cal"] = op_cal
        out["run_s"] = sum(op_s)
        out["op_s"] = op_s

        outputs = []
        for i, (op, result) in enumerate(zip(ops, results)):
            if i in errors:
                outputs.append(None)
                continue
            text = workload.output(state, op, result)
            outputs.append(text)
            if mode != "record" and not workload.matches(op, text):
                errors[i] = "output differs from the reference"
        out["errors"] = {str(i): msg for i, msg in sorted(errors.items())}
        if mode == "record":
            out["outputs"] = outputs

    if tracer is not None:
        out["metrics"] = tracer.metrics()
        out["missing"] = tracer.missing
        out["spans_total"] = tracer.spans_total
        out["spans_kept"] = len(tracer.span_name)
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
