"""Span tracer that wraps the engine's layer boundaries from outside.

The engine has no tracing of its own, so the benchmark replaces each
boundary named in `BOUNDARIES` by a timing wrapper.  A function is found by
object identity: every name under `unitwist.*` that binds the same object
(a re-export in the package root, an alias in `cli`, `__rmul__ = __mul__`
on a class) is rebound to one wrapper, so a call counts once whichever name
it goes through.

Each call opens a span (name, start, end, parent span).  Self time is the
span's duration minus the time its child spans cover, and is added up when
the span closes.  The counts and self times are therefore exact for every
call; the spans themselves are kept in memory only up to `SPAN_CAP`,
because the hot leaves (`Cocycle.pair` alone) run millions of times in one
pass.  `write_spans` writes the kept spans out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

SPAN_CAP = 100_000

CR, TP, SS = "catalog-report", "twisted-products", "strata-sweep"
ALL = (CR, TP, SS)

# Boundaries: metric prefix, module, attribute path, extra statistic, and
# the workloads on which the boundary is heavy.  The extra statistics are:
# "reuse" = 1 - distinct argument tuples / calls (the share of calls a cache
# could serve), "basis_size" = polynomials in the returned bases, "cells" =
# rows x columns of each input matrix, the last two summed over calls.
# `Cocycle.pair` is split by the evaluator's `kind`.
BOUNDARIES = (
    ("groupfile.parse_group_file", "unitwist.groupfile", "parse_group_file", None, ALL),
    ("catalog.load", "unitwist.catalog", "CatalogEntry.load", None, ALL),
    ("poly.Poly.mul", "unitwist.poly", "Poly.__mul__", None, ALL),
    ("poly.Poly.substitute", "unitwist.poly", "Poly.substitute", None, (SS,)),
    ("hopf.word_table", "unitwist.hopf", "GroupPresentation.word_table", "reuse", (CR,)),
    ("hopf.coproduct_monomial", "unitwist.hopf", "GroupPresentation.coproduct_monomial",
     None, ALL),
    ("hopf.iterated_coproduct_monomial", "unitwist.hopf",
     "GroupPresentation.iterated_coproduct_monomial", None, (TP, CR)),
    ("hopf.coinvariants", "unitwist.hopf", "GroupPresentation.coinvariants", None, (SS,)),
    ("cocycle.pair", "unitwist.cocycle", "Cocycle.pair", "reuse", (TP, CR)),
    ("cocycle.verify_cocycle_identity", "unitwist.cocycle", "verify_cocycle_identity",
     None, (CR,)),
    ("twist.mul_monomials", "unitwist.twist", "TwistedContext.mul_monomials", "reuse",
     (TP, CR)),
    ("twist.ihoe_presentation", "unitwist.twist", "ihoe_presentation", None, (CR,)),
    ("twist.rform_axiom_check", "unitwist.twist", "rform_axiom_check", None, (CR,)),
    ("groebner.buchberger", "unitwist.groebner", "buchberger", "basis_size", (SS, CR)),
    ("groebner.normal_form", "unitwist.groebner", "normal_form", None, (SS,)),
    ("groebner.eliminate", "unitwist.groebner", "eliminate", None, (SS,)),
    ("groebner.krull_dimension", "unitwist.groebner", "krull_dimension", None, (SS, CR)),
    ("linalg.rref", "unitwist.linalg", "rref", "cells", (SS,)),
    ("strata.c0_solver", "unitwist.strata", "c0_solver", None, (CR,)),
    ("strata.stratum_presentation", "unitwist.strata", "stratum_presentation", None,
     (SS, CR)),
    ("strata.stabilizer_dimension", "unitwist.strata", "stabilizer_dimension", None,
     (SS,)),
    ("strata.double_coset_ideal", "unitwist.strata", "double_coset_ideal", None, (SS,)),
    ("strata.commutator_ideal_and_gamma", "unitwist.strata", "commutator_ideal_and_gamma",
     None, (CR,)),
)

# Count-only boundary: constructor calls, too frequent for a span each.
CREATED = ("poly.Monomial.created", "unitwist.poly", "Monomial.__init__")

# The cocycle kinds reported; spans of other kinds are kept but not reported.
PAIR_KINDS = ("exponential", "inverse", "corrected")

# Layers that must record zero calls on a workload, so that a change confined
# to them predicts no change there.
ZERO_ON = {TP: ("groebner.", "linalg.")}

_UNITS = {"calls": "count", "self_s": "s", "reuse": "ratio", "basis_size": "count",
          "cells": "count"}


def _span_names(prefix):
    if prefix == "cocycle.pair":
        return ["cocycle.pair.%s" % kind for kind in PAIR_KINDS]
    return [prefix]


def metric_specs():
    """Every per-layer metric as (name, unit, better), in a fixed order."""
    specs = []
    for prefix, _, _, extra, _ in BOUNDARIES:
        for name in _span_names(prefix):
            for stat in ("calls", "self_s") + ((extra,) if extra else ()):
                better = "higher" if stat == "reuse" else "lower"
                specs.append(("%s.%s" % (name, stat), _UNITS[stat], better))
        if prefix == "poly.Poly.mul":
            specs.append((CREATED[0], "count", "lower"))
    specs.append(("trace.overhead", "ratio", "lower"))
    return specs


def heavy_boundaries(workload):
    """Span names (and the counter) that must record calls on `workload`."""
    return [n for prefix, _, _, _, heavy in BOUNDARIES if workload in heavy
            for n in _span_names(prefix)] + [CREATED[0]]


def _resolve(module, path):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = []
        self.self_s = []
        self.extra = []
        self.seen = []
        self.created = 0
        self.missing = []
        # one frame per open span: [time covered by children, span index]
        self.stack = [[0.0, -1]]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.spans_total = 0
        self._undo = []
        for prefix, _, _, _, _ in BOUNDARIES:
            for name in _span_names(prefix):
                self._id(name)

    def _id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.extra.append(0)
            self.seen.append(set())
        return nid

    def _open(self, nid, start):
        self.spans_total += 1
        idx = len(self.span_name)
        if idx < SPAN_CAP:
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(start)
            self.span_parent.append(self.stack[-1][1])
        else:
            idx = -1
        frame = [0.0, idx]
        self.stack.append(frame)
        return frame

    def _close(self, nid, frame, start, end):
        self.stack.pop()
        dur = end - start
        self.stack[-1][0] += dur
        self.calls[nid] += 1
        self.self_s[nid] += dur - frame[0]
        if frame[1] >= 0:
            self.span_end[frame[1]] = end

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        nid = self._id(name)
        start = time.perf_counter()
        frame = self._open(nid, start)
        try:
            yield
        finally:
            self._close(nid, frame, start, time.perf_counter())

    def _wrapper(self, prefix, fn, extra):
        clock = time.perf_counter
        if prefix == "cocycle.pair":
            kind_ids = {}

            def nid_of(args):
                kind = args[0].kind
                nid = kind_ids.get(kind)
                if nid is None:
                    nid = kind_ids[kind] = self._id("cocycle.pair.%s" % kind)
                return nid
        else:
            fixed = self._id(prefix)

            def nid_of(args):
                return fixed

        def wrapper(*args, **kwargs):
            nid = nid_of(args)
            if extra == "reuse":
                self.seen[nid].add(args + tuple(sorted(kwargs.items())))
            elif extra == "cells" and args[0]:
                self.extra[nid] += len(args[0]) * len(args[0][0])
            start = clock()
            frame = self._open(nid, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, frame, start, clock())
            if extra == "basis_size":
                self.extra[nid] += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    def _counter(self, fn):
        def init(*args, **kwargs):
            self.created += 1
            fn(*args, **kwargs)
        return init

    def install(self):
        """Rebind every boundary under all of its names in `unitwist.*`."""
        for prefix, module, path, extra, _ in BOUNDARIES + (CREATED + (None, ALL),):
            try:
                orig = _resolve(module, path)
            except KeyError:
                self.missing.append(prefix)
                continue
            if prefix == CREATED[0]:
                new = self._counter(orig)
            else:
                new = self._wrapper(prefix, orig, extra)
            if not self._rebind(orig, new):
                self.missing.append(prefix)
        if self.missing:
            sys.stderr.write("trace: boundaries not found: %s\n" % ", ".join(self.missing))

    def _rebind(self, orig, new):
        found = False
        for modname, mod in list(sys.modules.items()):
            if modname != "unitwist" and not modname.startswith("unitwist."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))
                    found = True
                elif isinstance(val, type) and val.__module__.startswith("unitwist"):
                    for cattr, cval in list(vars(val).items()):
                        if cval is orig:
                            setattr(val, cattr, new)
                            self._undo.append((val, cattr, orig))
                            found = True
        return found

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def metrics(self):
        """Per-layer metrics as {name: value}; absent boundaries are left out."""
        out = {}
        missing = set(self.missing)
        for prefix, _, _, extra, _ in BOUNDARIES:
            if prefix in missing:
                continue
            for name in _span_names(prefix):
                nid = self.ids[name]
                calls = self.calls[nid]
                out[name + ".calls"] = calls
                out[name + ".self_s"] = self.self_s[nid]
                if extra == "reuse":
                    out[name + ".reuse"] = 1.0 - len(self.seen[nid]) / calls if calls else 0.0
                elif extra:
                    out[name + "." + extra] = self.extra[nid]
            if prefix == "poly.Poly.mul" and CREATED[0] not in missing:
                out[CREATED[0]] = self.created
        return out

    def write_spans(self, path):
        """Write the kept spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({"name": self.names[self.span_name[i]],
                                     "start": self.span_start[i],
                                     "end": self.span_end[i],
                                     "parent": self.span_parent[i]},
                                    separators=(",", ":")) + "\n")
