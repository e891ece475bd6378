"""In-memory spans around the public functions of each chplanner layer.

The tracer patches module attributes from outside the package: every call
through a patched name records one span (name, start, end, parent span,
group) and, for a few functions, a small ``info`` value read from the call's
arguments or result.  Nothing under ``src/`` is modified; ``uninstall``
restores the original functions.

The patch points are the names each caller actually looks up at call time:
``chplanner.cli`` imported most layer functions into its own namespace, so
those are patched there; ``compute_q``, ``optimize`` and
``project_to_simplex`` are called through their own modules' globals.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path


def _compute_q_info(args, kwargs, result):
    return [int(result.player), int(result.level)]


def _bayes_info(args, kwargs, result):
    floor = kwargs.get("floor", args[4] if len(args) > 4 else 0.0)
    return bool(floor > 0.0)


def _optimize_info(args, kwargs, result):
    return [bool(result.feasible), int(result.iterations)]


# (module, attribute, span name, info extractor)
PATCH_POINTS = (
    ("chplanner.cli", "build_artifacts", "cli.build_artifacts", None),
    ("chplanner.cli", "scenario_kernel", "cli.scenario_kernel", None),
    ("chplanner.cli", "run_episode", "cli.run_episode", None),
    ("chplanner.cli", "make_scenario", "traffic.make_scenario", None),
    ("chplanner.cli", "level0_policy", "traffic.level0_policy", None),
    ("chplanner.cli", "hierarchy_content_hash", "hierarchy.content_hash", None),
    ("chplanner.cli", "load_hierarchy", "hierarchy.load", None),
    ("chplanner.cli", "build_hierarchy", "hierarchy.build", None),
    ("chplanner.cli", "save_hierarchy", "hierarchy.save", None),
    ("chplanner.hierarchy", "compute_q", "hierarchy.compute_q", _compute_q_info),
    ("chplanner.cli", "build_kernel", "inference.build_kernel", None),
    ("chplanner.cli", "bayes_update", "inference.bayes_update", _bayes_info),
    ("chplanner.cli", "receding_horizon_step", "planner.receding_horizon_step", None),
    ("chplanner.planner", "optimize", "planner.optimize", _optimize_info),
    ("chplanner.planner", "project_to_simplex", "planner.project_to_simplex", None),
)

SPAN_NAMES = tuple(p[2] for p in PATCH_POINTS)

# A span is a tuple (id, name, start, end, parent id or -1, group, info).
ID, NAME, START, END, PARENT, GROUP, INFO = range(7)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.group: str = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, info):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            group = self.group
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, group,
                 None if info is None else info(args, kwargs, result))
            )
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr, name, info in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def extend(self, spans) -> None:
        """Append spans recorded by another process, renumbering their ids."""
        offset = self._next_id
        for s in spans:
            parent = s[PARENT] + offset if s[PARENT] >= 0 else -1
            self.spans.append((s[ID] + offset, s[NAME], s[START], s[END], parent,
                               s[GROUP], s[INFO]))
            self._next_id = max(self._next_id, s[ID] + offset + 1)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def load_spans(path: Path) -> list[tuple]:
    with open(path) as f:
        return [tuple(json.loads(line)) for line in f]


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _durations(spans, name):
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def _median_per_group(spans, name, keep=lambda s: True) -> float:
    """Median over groups of the time one group spent in ``name``."""
    per_group: dict[str, float] = {}
    for s in spans:
        if s[NAME] == name and keep(s):
            per_group[s[GROUP]] = per_group.get(s[GROUP], 0.0) + s[END] - s[START]
    return statistics.median(per_group.values()) if per_group else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    """95th percentile (``statistics.quantiles`` exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20)[18]


def layer_metrics(spans, ego_player: int) -> dict[str, float]:
    """Per-layer numbers computed from the spans of one traced run.

    Set-up and build timings are medians over set-ups (or builds) of the
    time each spent in the layer; ``compute_q_calls`` is per build.
    """
    out: dict[str, float] = {}
    out["traffic.make_scenario_s"] = _median_per_group(spans, "traffic.make_scenario")
    out["traffic.level0_s"] = _median_per_group(spans, "traffic.level0_policy")

    out["hierarchy.content_hash_s"] = _median_per_group(spans, "hierarchy.content_hash")
    out["hierarchy.load_s"] = _median_per_group(spans, "hierarchy.load")
    builds = {s[PARENT] for s in spans if s[NAME] == "hierarchy.build"}
    lookups = [s for s in spans if s[NAME] == "cli.build_artifacts"]
    hits = sum(1 for s in lookups if s[ID] not in builds)
    out["hierarchy.cache_hit_ratio"] = hits / len(lookups) if lookups else 0.0
    for player in ("ego", "env"):
        for level in (1, 2):
            out[f"hierarchy.compute_q_s.{player}.k{level}"] = _median_per_group(
                spans, "hierarchy.compute_q",
                lambda s: (s[INFO][0] == ego_player) == (player == "ego") and s[INFO][1] == level,
            )
    q_calls = len(_durations(spans, "hierarchy.compute_q"))
    out["hierarchy.compute_q_calls"] = q_calls / len(builds) if builds else 0.0
    out["hierarchy.save_s"] = _median_per_group(spans, "hierarchy.save")

    out["inference.build_kernel_s"] = _median_per_group(spans, "inference.build_kernel")
    bayes = [s for s in spans if s[NAME] == "inference.bayes_update"]
    out["inference.bayes_update_ms_p50"] = 1000.0 * _median([s[END] - s[START] for s in bayes])
    out["inference.bayes_update_calls"] = len(bayes)
    out["inference.floor_retries"] = sum(1 for s in bayes if s[INFO])

    plans = [s for s in spans if s[NAME] == "planner.optimize"]
    plan_ms = [1000.0 * (s[END] - s[START]) for s in plans]
    out["planner.optimize_ms_p50"] = _median(plan_ms)
    out["planner.optimize_ms_p95"] = p95(plan_ms)
    out["planner.path_vertex"] = sum(1 for s in plans if s[INFO][0] and s[INFO][1] == 0)
    out["planner.path_ascent"] = sum(1 for s in plans if s[INFO][0] and s[INFO][1] > 0)
    out["planner.path_infeasible"] = sum(1 for s in plans if not s[INFO][0])
    out["planner.ascent_iterations"] = sum(s[INFO][1] for s in plans)
    project = _durations(spans, "planner.project_to_simplex")
    out["planner.project_calls"] = len(project)
    out["planner.project_s"] = sum(project)

    episodes = [s for s in spans if s[NAME] == "cli.run_episode"]
    out["cli.episode_s_p50"] = _median([s[END] - s[START] for s in episodes])
    steps = sum(1 for s in spans if s[NAME] == "planner.receding_horizon_step")
    out["cli.steps_per_episode"] = steps / len(episodes) if episodes else 0.0
    own = self_times(spans)
    loop_self = sum(own[s[ID]] for s in episodes)
    out["cli.loop_self_ms_per_step"] = 1000.0 * loop_self / steps if steps else 0.0
    return out


def interception_problems(spans) -> list[str]:
    """Wrappers that saw no call although a traced run exercises them.

    Every traced run builds a hierarchy and starts up from the cache.
    """
    counts = {name: 0 for name in SPAN_NAMES}
    for s in spans:
        counts[s[NAME]] += 1
    required = [
        "cli.build_artifacts", "cli.scenario_kernel", "cli.run_episode",
        "traffic.make_scenario", "traffic.level0_policy", "hierarchy.content_hash",
        "inference.build_kernel", "inference.bayes_update",
        "planner.receding_horizon_step", "planner.optimize", "hierarchy.build",
        "hierarchy.compute_q", "hierarchy.save", "hierarchy.load",
    ]
    if any(s[INFO][1] > 0 for s in spans if s[NAME] == "planner.optimize"):
        required.append("planner.project_to_simplex")
    problems = [f"wrapper {name} intercepted no call" for name in required if counts[name] == 0]
    if counts["planner.optimize"] != counts["planner.receding_horizon_step"]:
        problems.append(
            f"{counts['planner.optimize']} optimize spans for "
            f"{counts['planner.receding_horizon_step']} planning steps"
        )
    return problems
