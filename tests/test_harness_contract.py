"""The names and fields the benchmark tracer in ``perfbench/`` relies on.

``perfbench/spans.py`` patches every ``(module, attribute)`` of its
``PATCH_POINTS`` with ``setattr`` and reads a few fields of what the
patched functions return, so renaming or deleting any of them breaks a
traced benchmark run.  The file is loaded by path and not modified.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from chplanner.planner import PlanResult

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    points = _spans_module().PATCH_POINTS
    assert points
    missing = [
        f"{module}.{attr}" for module, attr, *_ in points
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_plan_result_has_the_fields_the_tracer_reads():
    fields = {f.name for f in dataclasses.fields(PlanResult)}
    assert {"feasible", "iterations", "path"} <= fields


def test_scenario_kernel_has_the_csr_arrays(built_scenarios):
    # built_scenarios makes its kernels with cli.scenario_kernel.
    _, _, kernel, _ = built_scenarios("intersection")
    for name in ("indptr", "targets", "probs"):
        assert hasattr(kernel, name), name
