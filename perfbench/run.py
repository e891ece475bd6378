"""chplanner benchmark: decision latency, episode throughput, set-up and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one closed-loop client in one single-threaded process.  The
episode loop is the client; every planning step waits for the previous
one, and episode ``i`` uses seed ``N + i`` against a human of level
``levels[i % 2]`` (levels 1 and 2 alternate).  Each run uses its own
temporary cache directory under ``.bench_build/runs/`` and removes it at
the end.

Workloads (see DESIGN.md for why each exists):

* ``closed-loop-overtaking`` -- the cache is filled by a separate, untimed
  process; the run times ``SETUPS`` cache-hit start-ups, then runs episodes.
* ``cold-build-intersection`` -- the run times ``SETUPS`` full builds, each
  into an empty cache directory, then starts up from the last one's cache
  and runs episodes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it records spans around each layer's public
functions (see spans.py) during the set-ups, runs the episode loop
untraced, then replays the same episodes traced; the two loop times give
the tracing overhead.  In a traced run the warm workloads fill their cache
with a traced build, so every workload traces the hierarchy's write path.
The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only if every output check passed.
"""

from __future__ import annotations

import common  # noqa: I001  (pins thread pools before numpy is imported)

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    config: str
    cold: bool


WORKLOADS = {
    "closed-loop-overtaking": Workload("overtaking", cold=False),
    "cold-build-intersection": Workload("intersection", cold=True),
}

# Timed set-ups per run; setup_s is their median.
SETUPS = 3
# Enough steps for checks.MIN_ABOVE_P95 samples above p95.
MIN_PLAN_SAMPLES = 200
# Every run completes these episodes, so their CSV digest depends on the
# seed alone and can be compared between runs.
DIGEST_EPISODES = 10
# The episode loop stops taking more samples after this long.
LOOP_CAP_S = 60.0
# Frozen regression bar on the episode violation rate: epsilon + 0.01.
VIOLATION_MARGIN = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "plan_step_ms_p50": "ms",
    "plan_step_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "traffic.make_scenario_s": "s",
    "traffic.level0_s": "s",
    "traffic.num_states": "count",
    "hierarchy.content_hash_s": "s",
    "hierarchy.load_s": "s",
    "hierarchy.cache_hit_ratio": "ratio",
    "hierarchy.compute_q_s.ego.k1": "s",
    "hierarchy.compute_q_s.ego.k2": "s",
    "hierarchy.compute_q_s.env.k1": "s",
    "hierarchy.compute_q_s.env.k2": "s",
    "hierarchy.compute_q_calls": "count",
    "hierarchy.save_s": "s",
    "hierarchy.cache_mb": "MB",
    "inference.build_kernel_s": "s",
    "inference.kernel_nnz": "count",
    "inference.kernel_mb": "MB",
    "inference.bayes_update_ms_p50": "ms",
    "inference.bayes_update_calls": "count",
    "inference.floor_retries": "count",
    "planner.optimize_ms_p50": "ms",
    "planner.optimize_ms_p95": "ms",
    "planner.path_vertex": "count",
    "planner.path_ascent": "count",
    "planner.path_infeasible": "count",
    "planner.ascent_iterations": "count",
    "planner.project_calls": "count",
    "planner.project_s": "s",
    "cli.episode_s_p50": "s",
    "cli.steps_per_episode": "count",
    "cli.loop_self_ms_per_step": "ms",
    "trace.overhead_pct": "%",
}


class SetupError(RuntimeError):
    """The workload could not be set up, so nothing can be measured."""


# ---------------------------------------------------------------------------
# Cache directories.


def cache_listing(directory: Path) -> dict[str, tuple[int, int]]:
    """Relative path -> (size, mtime) of every file under ``directory``."""
    return {
        p.relative_to(directory).as_posix(): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in directory.rglob("*")
        if p.is_file()
    }


def source_key() -> str:
    """sha256 over this checkout's chplanner sources.

    The hierarchy's content hash covers its inputs, not the code that builds
    it, so stored caches are kept apart per program version.
    """
    h = hashlib.sha256()
    package = common.SRC / "chplanner"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(package).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def copy_missing(src: Path, dst: Path) -> None:
    """Copy files of ``src`` that ``dst`` lacks; each copy lands atomically."""
    if not src.is_dir():
        return
    for path in src.rglob("*"):
        target = dst / path.relative_to(src)
        if path.is_file() and not target.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            partial = target.with_name(target.name + ".partial")
            shutil.copyfile(path, partial)
            os.replace(partial, target)


def prefill(config_name: str, cache: Path, run_dir: Path, trace: bool) -> list[tuple]:
    """Fill ``cache`` in a separate process; returns that process's spans.

    Untraced runs seed the directory from a store of caches that earlier
    runs built from the same sources (``source_key``), so the child only
    reads it; the first run of a program version builds and stores.
    Traced runs build from an empty directory so the build is traced.
    """
    store = common.WORK / "cache-store" / source_key()
    cache.mkdir(parents=True)
    if not trace:
        copy_missing(store, cache)
    cmd = [sys.executable, str(HERE / "prefill.py"), "--config", config_name,
           "--cache-dir", str(cache)]
    span_file = run_dir / "prefill-spans.jsonl"
    if trace:
        cmd += ["--spans", str(span_file)]
    proc = subprocess.run(cmd, env=common.child_env(), capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SetupError(f"pre-fill failed ({proc.returncode}): {proc.stderr.strip()}")
    copy_missing(cache, store)
    return spans.load_spans(span_file) if trace else []


# ---------------------------------------------------------------------------
# One pass: set-ups, then the episode loop.


@dataclass
class Pass:
    setup_s: list[float] = field(default_factory=list)
    episode_s: list[float] = field(default_factory=list)
    logs: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    episodes_attempted: int = 0
    content_hash: str = ""
    cache_dir: Path | None = None
    artifacts: tuple | None = None


def _start(cli, config, cache: Path):
    scenario, hierarchy, content_hash = cli.build_artifacts(config, cache)
    kernel = cli.scenario_kernel(scenario, hierarchy)
    return (scenario, hierarchy, kernel), content_hash


def run_setups(cli, config, workload: Workload, run_dir: Path, prefilled: Path | None,
               tracer: spans.Tracer, out: Pass) -> None:
    if workload.cold:
        for i in range(SETUPS):
            out.artifacts = None  # one build alive at a time
            cache = Path(tempfile.mkdtemp(prefix=f"cold-{i}-", dir=run_dir))
            tracer.group = f"setup-cold-{i}"
            tic = time.perf_counter()
            out.artifacts, built = _start(cli, config, cache)
            out.setup_s.append(time.perf_counter() - tic)
        # The start-up of the simulate run that follows the last build.
        before = cache_listing(cache)
        out.artifacts = None
        tracer.group = "setup-reload"
        out.artifacts, out.content_hash = _start(cli, config, cache)
        out.problems += checks.cache_problems(before, cache_listing(cache), "reload after build")
        out.problems += checks.hash_problems(built, out.content_hash)
    else:
        cache = prefilled
        before = cache_listing(cache)
        for i in range(SETUPS):
            out.artifacts = None  # one kernel alive at a time, as in a real start-up
            tracer.group = f"setup-{i}"
            tic = time.perf_counter()
            out.artifacts, out.content_hash = _start(cli, config, cache)
            out.setup_s.append(time.perf_counter() - tic)
        out.problems += checks.cache_problems(before, cache_listing(cache), "warm start")
    out.cache_dir = cache


def run_episodes(cli, config, seed: int, seconds: float, count: int | None,
                 tracer: spans.Tracer, out: Pass) -> None:
    """Episode loop: ``count`` episodes, or until ``seconds`` and the floors are met."""
    scenario, hierarchy, kernel = out.artifacts
    levels = config.levels
    samples = 0
    start = time.perf_counter()

    def more(i: int) -> bool:
        if count is not None:
            return i < count
        elapsed = time.perf_counter() - start
        short = samples < MIN_PLAN_SAMPLES or i < DIGEST_EPISODES
        return elapsed < seconds or (short and elapsed < LOOP_CAP_S)

    i = 0
    while more(i):
        level, episode_seed = levels[i % len(levels)], seed + i
        tracer.group = f"episode-{i}"
        tic = time.perf_counter()
        try:
            log = cli.run_episode(scenario, hierarchy, kernel, level, episode_seed)
        except Exception as exc:  # count the failure, keep measuring
            out.errors.append(f"seed {episode_seed} level {level}: {type(exc).__name__}: {exc}")
        else:
            out.episode_s.append(time.perf_counter() - tic)
            out.logs.append(log)
            samples += log.num_steps
        i += 1
    out.episodes_attempted = i


# ---------------------------------------------------------------------------
# Checks and metrics.


def csv_bytes(cli, scenario, log, run_dir: Path) -> bytes:
    path = run_dir / "episode.csv"
    cli.write_episode_csv(path, scenario, log)
    return path.read_bytes()


def csv_digest(cli, scenario, logs, run_dir: Path) -> str:
    h = hashlib.sha256()
    for log in logs[:DIGEST_EPISODES]:
        h.update(csv_bytes(cli, scenario, log, run_dir))
    return h.hexdigest()


def check_pass(p: Pass, epsilon: float) -> tuple[int, int]:
    """Apply the per-episode checks; returns (attempted, failed) for the pass.

    A failed set-up check counts as one failed set-up; an episode fails if
    it raised or any of its steps failed a check.
    """
    failed = bool(p.problems) + len(p.errors)
    for log in p.logs:
        problems = checks.episode_problems(log, epsilon)
        p.problems += problems
        failed += bool(problems)
    p.problems += p.errors
    return p.episodes_attempted + len(p.setup_s), failed


def plan_samples_ms(logs) -> list[float]:
    return [r.wall_ms for log in logs for r in log.records[:-1]]


def end_to_end_metrics(p: Pass) -> dict[str, float]:
    plan_ms = plan_samples_ms(p.logs)
    return {
        "setup_s": statistics.median(p.setup_s),
        "episodes_per_s": len(p.logs) / sum(p.episode_s),
        "plan_step_ms_p50": statistics.median(plan_ms),
        "plan_step_ms_p95": spans.p95(plan_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer_metrics(traced: Pass, untraced: Pass, tracer: spans.Tracer, ego: int):
    scenario, _, kernel = untraced.artifacts
    out = spans.layer_metrics(tracer.spans, ego)
    out["traffic.num_states"] = scenario.spec.num_states
    out["hierarchy.cache_mb"] = sum(s for s, _ in cache_listing(untraced.cache_dir).values()) / 1e6
    out["inference.kernel_nnz"] = int(kernel.probs.size)
    out["inference.kernel_mb"] = (
        kernel.indptr.nbytes + kernel.targets.nbytes + kernel.probs.nbytes
    ) / 1e6
    out["trace.overhead_pct"] = 100.0 * (sum(traced.episode_s) / sum(untraced.episode_s) - 1.0)
    return out


def expected_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit as BENCHMARK.json declares them for this mode."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    code = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    table = {}
    for metric in declared:
        if metric.get("better") not in ("higher", "lower"):
            raise ValueError(f"BENCHMARK.json: {metric['name']} has no better-direction")
        table[metric["name"]] = metric["unit"]
    if table != code:
        raise ValueError(
            f"BENCHMARK.json metrics {sorted(table.items())} do not match the "
            f"harness {sorted(code.items())}"
        )
    return table


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in common.THREAD_VARS},
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first episode; episode i uses seed + i")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed episode loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args, cli, traffic, ego: int, run_dir: Path) -> tuple[dict, list[str], int, int, dict]:
    workload = WORKLOADS[args.workload]
    config = traffic.load_config(workload.config)
    trace = bool(args.trace)
    tracer = spans.Tracer()

    prefilled = None
    if not workload.cold:
        prefilled = run_dir / "cache"
        tracer.extend(prefill(workload.config, prefilled, run_dir, trace))

    # Set-ups are traced in a traced run; the episode loop then runs untraced,
    # and its episodes are replayed with tracing on to measure the overhead.
    base = Pass()
    if trace:
        tracer.install()
    try:
        run_setups(cli, config, workload, run_dir, prefilled, tracer, base)
    finally:
        tracer.uninstall()
    run_episodes(cli, config, args.seed, args.seconds, None, tracer, base)
    attempted, failed = check_pass(base, config.epsilon)
    if not base.logs:
        raise SetupError("no episode completed: " + "; ".join(base.errors[:3]))
    problems = list(base.problems)
    scenario, hierarchy, kernel = base.artifacts
    digest = csv_digest(cli, scenario, base.logs, run_dir)

    # Run-level checks: each failure counts as one failed operation.
    run_checks = []
    violations = sum(log.violated for log in base.logs)
    bar = config.epsilon + VIOLATION_MARGIN
    run_checks += checks.violation_problems(violations, len(base.logs), bar)
    plan_ms = plan_samples_ms(base.logs)
    cut = spans.p95(plan_ms)
    above_p95 = sum(v > cut for v in plan_ms)
    run_checks += checks.p95_sample_problems(above_p95)

    if trace:
        traced = Pass(artifacts=base.artifacts)
        with tracer:
            run_episodes(cli, config, args.seed, args.seconds, base.episodes_attempted,
                         tracer, traced)
        a, f = check_pass(traced, config.epsilon)
        attempted, failed = attempted + a, failed + f
        problems += traced.problems
        run_checks += spans.interception_problems(tracer.spans)
        steps = sum(log.num_steps for log in traced.logs)
        planned = sum(1 for s in tracer.spans if s[spans.NAME] == "planner.receding_horizon_step")
        if steps != planned:
            run_checks.append(f"traced {planned} planning steps, episode logs hold {steps}")
        if csv_digest(cli, scenario, traced.logs, run_dir) != digest:
            run_checks.append("traced episodes differ from the untraced ones")
        tracer.dump(common.WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer_metrics(traced, base, tracer, ego)
    else:
        replay = cli.run_episode(scenario, hierarchy, kernel, config.levels[0], args.seed)
        run_checks += checks.replay_problems(
            csv_bytes(cli, scenario, base.logs[0], run_dir),
            csv_bytes(cli, scenario, replay, run_dir),
        )
        metrics = end_to_end_metrics(base)
    problems += run_checks
    failed = min(attempted, failed + len(run_checks))

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setups": len(base.setup_s),
        "episodes": len(base.logs),
        "plan_samples": len(plan_ms),
        "plan_samples_above_p95": above_p95,
        "episode_loop_s": sum(base.episode_s),
        "violations": violations,
        "violation_bar": bar,
        "csv_sha256_first_episodes": DIGEST_EPISODES,
        "csv_sha256": digest,
        "content_hash": base.content_hash,
    }
    return metrics, problems, attempted, failed, info


def report(metrics: dict, units: dict, info: dict, attempted: int, failed: int,
           problems: list[str]) -> None:
    m = info["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} threads={','.join(f'{k}={v}' for k, v in m['threads'].items())}")
    print(f"workload {info['workload']} seed={info['seed']} seconds={info['seconds']} "
          f"trace={info['trace']}")
    samples = {
        "setup_s": f"median of {info['setups']} set-ups",
        "episodes_per_s": f"{info['episodes']} episodes in {info['episode_loop_s']:.2f} s",
        "plan_step_ms_p50": f"{info['plan_samples']} steps",
        "plan_step_ms_p95": f"{info['plan_samples']} steps, "
                            f"{info['plan_samples_above_p95']} above p95",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, value in metrics.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(f"  failed_ratio = {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    print(f"  violations = {info['violations']}/{info['episodes']} episodes "
          f"(frozen bar {info['violation_bar']:g})")
    print(f"  csv_sha256[first {DIGEST_EPISODES} episodes] = {info['csv_sha256']}")
    print(f"  content_hash = {info['content_hash']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("info " + json.dumps(info, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.import_chplanner()
        units = expected_metrics(bool(args.trace))
    except (common.MissingProgram, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from chplanner import cli, traffic
    from chplanner.game import EGO

    runs = common.WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        metrics, problems, attempted, failed, info = run(args, cli, traffic, EGO, run_dir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {name: metrics[name] for name in units}  # BENCHMARK.json order
    report(metrics, units, info, attempted, failed, problems)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
