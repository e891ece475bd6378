"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that every metric the harness prints is declared in BENCHMARK.json,
that each output check fires on a deliberately corrupted result, that a
corrupted episode makes a whole run exit non-zero, that the traced-run
wrappers intercept the calls they claim to on a real run, and that the
harness refuses to run in a directory without the program.  Takes under
a minute on two cores; exits non-zero if any test fails.
"""

from __future__ import annotations

import common  # noqa: I001  (pins thread pools before numpy is imported)

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path

import checks
import run
import spans

common.import_chplanner()
from chplanner import cli  # noqa: E402
from chplanner.traffic import VehicleState  # noqa: E402


def _spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _record(t, posteriors=(0.5, 0.5), feasible=True, probability=0.995):
    vehicle = VehicleState(s_x=0.0, s_y=0.0, v=4.0)
    return cli.StepRecord(
        t=t, state=0, ego=vehicle, human=vehicle, posteriors=posteriors, ego_action=0,
        human_action=0, expected_reward=1.0, constraint_probability=probability,
        feasible=feasible, fallback=not feasible, safe=True, wall_ms=1.0,
    )


def _log(records):
    return cli.EpisodeLog(scenario="intersection", human_level=1, seed=7, records=records,
                          outcome={}, violated=False, end_reason="complete")


def _run_harness(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_metric_names_declared():
    spec = _spec()
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == units, f"{key}: BENCHMARK.json {declared} != harness {units}"
        for m in spec[key]:
            assert m["better"] in ("higher", "lower"), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) and max(bounds.values()) <= 0.25, bounds
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_episode_checks_fire():
    good = _log([_record(0), _record(1, feasible=False, probability=0.5),
                 _record(2, probability=None, feasible=None)])
    assert checks.episode_problems(good, 0.01) == []
    off_by_1e8 = _log([_record(0, posteriors=(0.5, 0.5 + 1e-8))])
    assert checks.episode_problems(off_by_1e8, 0.01), "posterior sum check did not fire"
    unsafe = _log([_record(0, probability=0.98)])
    assert checks.episode_problems(unsafe, 0.01), "chance-constraint check did not fire"


def test_run_level_checks_fire():
    assert checks.violation_problems(2, 100, 0.02) == []
    assert checks.violation_problems(20, 100, 0.02), "violation-rate check did not fire"
    assert checks.p95_sample_problems(10) == []
    assert checks.p95_sample_problems(9), "p95 sample-count check did not fire"
    assert checks.replay_problems(b"a", b"a") == []
    assert checks.replay_problems(b"a", b"b"), "replay check did not fire"
    listing = {"hierarchy.npz": (10, 1)}
    assert checks.cache_problems(listing, dict(listing), "warm") == []
    assert checks.cache_problems(listing, {"hierarchy.npz": (10, 2)}, "warm")
    assert checks.cache_problems({}, {}, "warm"), "empty cache not reported"
    assert checks.hash_problems("a", "a") == [] and checks.hash_problems("a", "b")


def test_interception_check_fires():
    span = (0, "planner.optimize", 0.0, 1.0, -1, "episode-0", [True, 0])
    problems = spans.interception_problems([span])
    assert any("cli.run_episode" in p for p in problems), problems
    assert any("planning steps" in p for p in problems), problems


def test_corrupted_episode_fails_run():
    """A run whose planner reports an unsafe 'feasible' plan must exit 1."""
    original = cli.run_episode

    def corrupted(*args, **kwargs):
        log = original(*args, **kwargs)
        log.records[0] = replace(log.records[0], feasible=True, constraint_probability=0.5)
        return log

    out = io.StringIO()
    cli.run_episode = corrupted
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "cold-build-intersection", "--seed", "0",
                             "--seconds", "1", "--trace", "0"])
    finally:
        cli.run_episode = original
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False, (code, result)
    assert result["failed"] > 0, result


def test_traced_run_intercepts():
    proc = _run_harness(common.ROOT, "--workload", "cold-build-intersection", "--seed", "3",
                        "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    nonzero = [
        "traffic.make_scenario_s", "traffic.level0_s", "hierarchy.content_hash_s",
        "hierarchy.load_s", "hierarchy.compute_q_s.ego.k1", "hierarchy.compute_q_s.ego.k2",
        "hierarchy.compute_q_s.env.k1", "hierarchy.compute_q_s.env.k2", "hierarchy.save_s",
        "hierarchy.compute_q_calls", "hierarchy.cache_hit_ratio", "inference.build_kernel_s",
        "inference.bayes_update_ms_p50", "inference.bayes_update_calls",
        "planner.optimize_ms_p50", "planner.path_vertex", "cli.episode_s_p50",
        "cli.loop_self_ms_per_step",
    ]
    if metrics["planner.path_ascent"]:
        nonzero += ["planner.ascent_iterations", "planner.project_calls", "planner.project_s"]
    zero = [name for name in nonzero if not metrics[name] > 0]
    assert not zero, f"wrappers saw no work for {zero}"


def test_refuses_without_program():
    common.WORK.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=common.WORK))
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(common.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_harness(bare, "--workload", "cold-build-intersection", "--seed", "0",
                            "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except Exception:  # report every failing test, not just the first
            failures += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
        else:
            print(f"PASS {test.__name__}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
