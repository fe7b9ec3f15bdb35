"""The names the benchmark harness in `perfbench/` reaches into the engine by.

The tracer rebinds each boundary it lists; a boundary it cannot resolve is
dropped from the per-layer metrics with only a stderr note.  The workloads
call a few engine functions directly.  This test resolves all of them, so a
change that deletes or renames one fails here first.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _load_tracer()
TRACED = tracer.BOUNDARIES + (tracer.CREATED,)


@pytest.mark.parametrize("prefix,module,path", [b[:3] for b in TRACED],
                         ids=[b[0] for b in TRACED])
def test_tracer_boundary_resolves(prefix, module, path):
    importlib.import_module(module)
    assert callable(tracer._resolve(module, path)), prefix


@pytest.mark.parametrize("module,name", [("cli", "build_context"), ("cli", "report_lines"),
                                         ("strata", "stratum_presentation"), ("catalog", "get")])
def test_workload_entry_point_exists(module, name):
    assert callable(getattr(importlib.import_module("unitwist." + module), name))
