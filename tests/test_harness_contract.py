"""The names and fields the benchmark harness in ``perfbench/`` relies on.

``perfbench/spans.py`` patches every ``(module, attribute)`` of its
``PATCH_POINTS`` with ``setattr`` and reads a few fields of what the
patched functions return, and ``perfbench/run.py`` runs episodes and reads
their logs, so renaming or deleting any of them breaks a benchmark run.
The harness files are loaded by path or run, and not modified.
"""

import dataclasses
import importlib
import importlib.util
import json
import subprocess
import sys
import threading
from pathlib import Path

from chplanner.cli import EpisodeLog, StepRecord, run_episode, write_episode_csv
from chplanner.planner import PlanResult

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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
    # built_scenarios makes its kernels with cli.scenario_kernel.  The names
    # are checked on the class: reading them would build the whole CSR view
    # of the shared kernel and keep it for the session.  The traced run below
    # reads the arrays themselves.
    _, _, kernel, _ = built_scenarios("intersection")
    for name in ("indptr", "targets", "probs"):
        assert isinstance(getattr(type(kernel), name, None), property), name


def test_patch_points_are_called_on_the_main_thread(tmp_path, monkeypatch):
    # The tracer's span stack is not thread-safe, so every patched name must
    # be called on the main thread, also while a start-up runs work on a
    # second thread (the Q builds' second worker).  A start-up calls each
    # anchor and the content hash through cli's names.
    from chplanner import cli, hierarchy
    from chplanner.traffic import default_config

    calls = []

    def spy(key, fn):
        def wrapper(*args, **kwargs):
            calls.append((key, threading.current_thread() is threading.main_thread()))
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr, *_ in _spans_module().PATCH_POINTS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, spy(f"{module_name}.{attr}", getattr(module, attr)))
    monkeypatch.setattr(hierarchy, "_worker_count", lambda n_tails: min(2, n_tails))
    config = default_config("intersection")
    scenario, built, _ = cli.build_artifacts(config, tmp_path / "cache")
    kernel = cli.scenario_kernel(scenario, built)
    cli.run_episode(scenario, built, kernel, config.levels[0], 0)

    assert calls and all(on_main for _, on_main in calls), calls
    names = [key for key, _ in calls]
    assert names.count("chplanner.cli.level0_policy") == 2
    assert names.count("chplanner.cli.hierarchy_content_hash") == 1
    assert names.count("chplanner.hierarchy.compute_q") == 3
    assert names.count("chplanner.planner.optimize") >= 1


def test_episode_log_has_the_fields_the_harness_reads(built_scenarios, tmp_path):
    step_fields = {f.name for f in dataclasses.fields(StepRecord)}
    assert {
        "t", "state", "posteriors", "ego_action", "human_action", "expected_reward",
        "constraint_probability", "feasible", "wall_ms",
    } <= step_fields
    assert {"records", "seed"} <= {f.name for f in dataclasses.fields(EpisodeLog)}

    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    log = run_episode(scenario, hierarchy, kernel, scenario.config.levels[0], 0)
    assert log.seed == 0 and log.num_steps == len(log.records) - 1
    assert isinstance(log.violated, bool)
    # The self-test corrupts a record this way to check that a run fails.
    rec = dataclasses.replace(log.records[0], feasible=True, constraint_probability=0.5)
    assert (rec.feasible, rec.constraint_probability) == (True, 0.5)
    write_episode_csv(tmp_path / "episode.csv", scenario, log)


def test_traced_benchmark_run_is_correct():
    # The traced mode resolves every patch point, reads the kernel's arrays
    # and requires one optimize call per planning step.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-build-intersection",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
