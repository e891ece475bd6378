"""Command-line harness: build policy caches, run seeded episodes, evaluate.

Subcommands
-----------
``build``
    Construct the scenario and its policy hierarchy, write the versioned
    cache, print the content hash.
``simulate``
    Run one closed-loop episode (planning ego vs. a simulated level-k
    human), writing a per-step CSV log, a long-format belief CSV, a JSON
    summary and optional per-step SVG snapshots.
``evaluate``
    Run a batch of seeds per human level and write an aggregate report.

Exit codes: 0 ok, 1 ``evaluate`` lost at least one seed to an error (the
report, with its ``failed_seeds`` lists, is still written), 2 configuration
error (a bad config or flag, or an output path below a file), 3 aborted on
an infeasible plan.

Episodes are reproducible: the master seed spawns two independent
generators (human sampling, ego sampling), so identical
(config, level, seed) triples give byte-identical CSV logs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .game import EGO, ENV
from .hierarchy import (
    Hierarchy,
    build_hierarchy,
    hierarchy_content_hash,
    load_hierarchy,
    save_hierarchy,
)
from .inference import (
    AugmentedKernel,
    InconsistentObservationError,
    bayes_update,
    build_kernel,
    init_belief,
)
from .planner import Planner, maximin_plan, receding_horizon_step
from .render import render_step
from .traffic import (
    Scenario,
    ScenarioConfig,
    classify_outcome,
    episode_complete,
    hierarchy_key,
    level0_policy,
    load_config,
    make_scenario,
)

__all__ = [
    "EpisodeLog",
    "StepRecord",
    "InfeasiblePlanAbort",
    "build_artifacts",
    "run_episode",
    "write_episode_csv",
    "write_belief_csv",
    "evaluate_batch",
    "main",
    "entry",
]

DEFAULT_CACHE_DIR = ".chplanner-cache"

EPISODE_CSV_COLUMNS = (
    "t", "ego_x", "ego_y", "ego_v", "human_x", "human_y", "human_v",
    "ego_action", "human_action",
)
# ... followed by one "posterior_level_<k>" column per level, then:
EPISODE_CSV_TAIL = (
    "expected_reward", "constraint_probability", "feasible", "fallback", "safe",
)


class InfeasiblePlanAbort(RuntimeError):
    """Raised when the plan is infeasible and the abort policy is active."""


@dataclass(slots=True)
class StepRecord:
    """One step of an episode: the state, the belief held in it, and the plan.

    The last record of a log is the terminal state and has no actions, plan
    or timing.  The vehicle positions and the safety flag are functions of
    ``state`` and are decoded when a log is written.  ``feasible`` and the
    plan values are ``None`` when the ego did not plan (the maximin
    baseline, or the terminal record); a ``False`` marks a step that
    executed the probability-maximizing fallback.
    """

    t: int
    state: int
    posteriors: tuple[float, ...]
    ego_action: int | None
    human_action: int | None
    expected_reward: float | None
    constraint_probability: float | None
    feasible: bool | None
    wall_ms: float


@dataclass(slots=True)
class EpisodeLog:
    """The records of one episode, ``num_steps + 1`` of them, and its outcome."""

    scenario: str
    human_level: int
    seed: int
    records: list[StepRecord]
    outcome: dict
    end_reason: str

    @property
    def num_steps(self) -> int:
        return len(self.records) - 1

    @property
    def violated(self) -> bool:
        return bool(self.outcome["violation"])

    def final_posteriors(self) -> tuple[float, ...]:
        return self.records[-1].posteriors


def build_artifacts(
    config: ScenarioConfig, cache_dir: str | Path = DEFAULT_CACHE_DIR
) -> tuple[Scenario, Hierarchy, str]:
    """Scenario plus its (possibly cached) policy hierarchy and content hash.

    A cache file that cannot be read (for instance one truncated by a killed
    process), that holds another build or whose env tables do not have the
    game's ``(|X|, |U2|)`` shape counts as a miss: the hierarchy is rebuilt
    and the file replaced.

    The content hash covers the game's factors (see
    :func:`~chplanner.traffic.hierarchy_key`), not its joint reward tables
    or anchors, so a hit builds the scenario, hashes a few hundred KB and
    loads the archive; only a miss computes the level-0 anchors and
    builds the hierarchy, whose Q builds split their work between two
    threads on a machine with two cores.  ``hierarchy_content_hash`` and,
    on a miss, ``level0_policy`` are called through this module's names on
    the calling thread, where a tracer can patch them.
    """
    scenario = make_scenario(config)
    content_hash = hierarchy_content_hash(*hierarchy_key(scenario))
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"hierarchy-{content_hash[:16]}.npz"
    if path.exists():
        try:
            hierarchy, stored = load_hierarchy(path)
            shape = (scenario.spec.num_states, scenario.spec.num_env_actions)
            if (
                stored == content_hash
                and hierarchy.k_max == config.k_max
                and all(policy.probs.shape == shape for policy in hierarchy.env_policies)
            ):
                return scenario, hierarchy, content_hash
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
            pass
    hierarchy = build_hierarchy(
        scenario.spec, config.k_max, level0_policy(scenario, EGO), level0_policy(scenario, ENV),
        config.softmax_temperature,
    )
    save_hierarchy(path, hierarchy, content_hash)
    return scenario, hierarchy, content_hash


def scenario_kernel(scenario: Scenario, hierarchy: Hierarchy) -> AugmentedKernel:
    """Augmented kernel over the configured hypothesis levels.

    The kernel references the scenario's two successor tables and the
    hierarchy's env tables and computes its rows on demand, so this
    allocates nothing table-sized.
    """
    env_policies = {k: hierarchy.env(k) for k in scenario.config.levels}
    return build_kernel(scenario.spec, env_policies)


def scenario_planner(scenario: Scenario, kernel: AugmentedKernel) -> Planner:
    """Planner over the raw scenario objective (safety lives in the constraint)."""
    return Planner(
        kernel=kernel,
        reward=scenario.ego_objective,
        safe_set=scenario.spec.safe_set,
        epsilon=scenario.config.epsilon,
        discount=scenario.config.discount,
        horizon=scenario.config.horizon,
    )


def _sample(rng: np.random.Generator, probs: np.ndarray) -> int:
    return int(rng.choice(probs.size, p=probs / probs.sum()))


def run_episode(
    scenario: Scenario,
    hierarchy: Hierarchy,
    kernel: AugmentedKernel,
    human_level: int,
    seed: int,
    ego_controller: str = "planner",
) -> EpisodeLog:
    """One closed-loop episode of the planning ego against a level-k human.

    Each step checks the state, plans from the level belief, samples both
    actions, and updates the belief by Bayes' rule on the observed
    successor.  The episode ends at a violation, on completion, or after
    ``step_cap`` steps; the cap, the infeasibility policy and every planning
    setting come from ``scenario.config``.  ``ego_controller`` selects the
    ego's decision rule: the chance-constrained planner (default) or the
    robust ``"maximin"`` baseline.
    """
    config = scenario.config
    if not 0 <= human_level <= hierarchy.k_max:
        raise ValueError(f"human level {human_level} not in the built hierarchy")
    if ego_controller not in ("planner", "maximin"):
        raise ValueError(f"unknown ego controller {ego_controller!r}")

    human_probs = hierarchy.env(human_level).probs
    children = np.random.SeedSequence(seed).spawn(2)
    human_rng = np.random.default_rng(children[0])
    ego_rng = np.random.default_rng(children[1])

    planner = scenario_planner(scenario, kernel)
    state = scenario.initial_state
    belief = init_belief(state, config.level_prior, scenario.spec.num_states)

    records: list[StepRecord] = []
    end_reason = "step_cap"
    for t in range(config.step_cap):
        if not scenario.is_safe(state):
            end_reason = "violation"
            break
        if episode_complete(scenario, state):
            end_reason = "complete"
            break
        tic = time.perf_counter()
        if ego_controller == "maximin":
            seq = maximin_plan(scenario.spec, state, config.horizon, config.discount)
            u1 = int(seq[0])
            plan = None
        else:
            u1, plan = receding_horizon_step(planner, belief, ego_rng)
            if not plan.feasible and config.on_infeasible == "abort":
                raise InfeasiblePlanAbort(
                    f"no feasible plan at t={t} (best probability "
                    f"{plan.constraint_probability:.6f})"
                )
        wall_ms = (time.perf_counter() - tic) * 1000.0
        u2 = _sample(human_rng, human_probs[state])
        values = (None,) * 3 if plan is None else (
            plan.expected_reward, plan.constraint_probability, plan.feasible
        )
        records.append(StepRecord(t, state, tuple(belief.weights), u1, u2, *values, wall_ms))
        next_state = scenario.spec.successor(state, u1, u2)
        try:
            belief = bayes_update(kernel, belief, u1, next_state)
        except InconsistentObservationError:
            # Every level's mass came out 0, so any positive floor gives the
            # uniform posterior; the floor's value does not matter.
            belief = bayes_update(kernel, belief, u1, next_state, floor=1e-9)
        state = next_state

    records.append(
        StepRecord(len(records), state, tuple(belief.weights), None, None, None, None, None, 0.0)
    )
    return EpisodeLog(
        scenario=config.name,
        human_level=human_level,
        seed=seed,
        records=records,
        outcome=classify_outcome(scenario, [rec.state for rec in records]),
        end_reason=end_reason,
    )


# ---------------------------------------------------------------------------
# Serialization.  Numeric formats are frozen so identical runs give
# byte-identical files; wall-clock timings deliberately stay out of the CSV.


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9f}"


def episode_csv_header(levels: tuple[int, ...]) -> list[str]:
    cols = list(EPISODE_CSV_COLUMNS)
    cols += [f"posterior_level_{k}" for k in levels]
    cols += list(EPISODE_CSV_TAIL)
    return cols


def write_episode_csv(path: str | Path, scenario: Scenario, log: EpisodeLog) -> None:
    """Per-step CSV; positions, speeds and the safety flag are decoded from the state."""
    lines = [",".join(episode_csv_header(scenario.config.levels))]
    for rec in log.records:
        ego, human = scenario.decode(rec.state)
        ego_xy = None if ego is None else scenario.ego_grid.world_xy(ego)
        human_xy = None if human is None else scenario.human_grid.world_xy(human)
        row = [
            _fmt(rec.t),
            _fmt(None if ego_xy is None else ego_xy[0]),
            _fmt(None if ego_xy is None else ego_xy[1]),
            _fmt(None if ego is None else ego.v),
            _fmt(None if human_xy is None else human_xy[0]),
            _fmt(None if human_xy is None else human_xy[1]),
            _fmt(None if human is None else human.v),
            _fmt(rec.ego_action),
            _fmt(rec.human_action),
        ]
        row += [_fmt(p) for p in rec.posteriors]
        row += [
            _fmt(rec.expected_reward),
            _fmt(rec.constraint_probability),
            _fmt(rec.feasible),
            _fmt(rec.feasible is False),
            _fmt(scenario.is_safe(rec.state)),
        ]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_belief_csv(path: str | Path, scenario: Scenario, log: EpisodeLog) -> None:
    lines = ["t,level,posterior"]
    for rec in log.records:
        for k, p in zip(scenario.config.levels, rec.posteriors):
            lines.append(f"{rec.t},{k},{p:.9f}")
    Path(path).write_text("\n".join(lines) + "\n")


def episode_summary(log: EpisodeLog) -> dict:
    """Deterministic episode summary; wall-clock stats live in the log only."""
    return {
        "scenario": log.scenario,
        "human_level": log.human_level,
        "seed": log.seed,
        "steps": log.num_steps,
        "end_reason": log.end_reason,
        "violated": log.violated,
        "outcome": log.outcome,
        "final_posteriors": list(log.final_posteriors()),
    }


def mean_plan_ms(log: EpisodeLog) -> float:
    plan_ms = [r.wall_ms for r in log.records[:-1]]
    return (sum(plan_ms) / len(plan_ms)) if plan_ms else 0.0


def _mean(values: list) -> float | None:
    return sum(values) / len(values) if values else None


def _outcome_stats(outcomes: list[dict]) -> dict:
    """Report fields derived from the episodes' outcome dicts.

    Each flag ``f`` gives ``f_rate`` and each ``<event>_step`` gives
    ``mean_<event>_step``, both over the episodes where the field is not ``None``.
    """
    stats: dict = {}
    for key in outcomes[0] if outcomes else ():
        values = [o[key] for o in outcomes if o[key] is not None]
        if key.endswith("_step"):
            stats[f"mean_{key}"] = _mean(values)
        elif all(isinstance(v, bool) for v in values):
            stats[f"{key}_rate"] = _mean(values)
    return stats


def evaluate_batch(
    scenario: Scenario,
    hierarchy: Hierarchy,
    kernel: AugmentedKernel,
    seeds: list[int],
    levels: tuple[int, ...] | None = None,
) -> dict:
    """Seed batch per human level: outcome frequencies and safety statistics."""
    config = scenario.config
    levels = config.levels if levels is None else levels
    report: dict = {"scenario": config.name, "seeds": list(seeds), "per_level": {}}
    for level in levels:
        level_idx = config.levels.index(level)
        episodes = []
        failures = []
        for seed in seeds:
            try:
                log = run_episode(scenario, hierarchy, kernel, level, seed)
            except Exception as exc:  # keep the batch alive; record the loss
                failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
                continue
            episodes.append(log)
        stats: dict = {
            "episodes": len(episodes),
            "failed_seeds": failures,
            "violation_rate": None,  # replaced by the outcomes' rate unless every seed failed
            "mean_steps": _mean([e.num_steps for e in episodes]),
            "mean_final_posterior_true": _mean([e.final_posteriors()[level_idx] for e in episodes]),
            "mean_plan_ms": _mean([mean_plan_ms(e) for e in episodes]),
        }
        stats.update(_outcome_stats([e.outcome for e in episodes]))
        report["per_level"][str(level)] = stats
    return report


# ---------------------------------------------------------------------------
# Command implementations.


def _load_config_or_exit(path: str) -> ScenarioConfig:
    try:
        return load_config(path)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _with_flags(config: ScenarioConfig, **flags: tuple[str, object]) -> ScenarioConfig:
    """``config`` with the command-line flags that override its fields applied.

    ``flags`` maps a field to ``(flag, value)``, and a ``None`` value means
    the flag was not given.  The config checks each value; a rejected one
    exits 2 with a message naming the flag.
    """
    for field, (flag, value) in flags.items():
        if value is None:
            continue
        try:
            config = dataclasses.replace(config, **{field: value})
        except ValueError as exc:
            print(f"config error: {flag} {value}: {exc}", file=sys.stderr)
            raise SystemExit(2) from exc
    return config


def cmd_build(args: argparse.Namespace) -> int:
    config = _load_config_or_exit(args.config)
    _, _, content_hash = build_artifacts(config, args.cache_dir)
    print(content_hash)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _with_flags(
        _load_config_or_exit(args.config),
        step_cap=("--steps", args.steps),
        on_infeasible=("--on-infeasible", args.on_infeasible),
        seed=("--seed", args.seed),
    )
    if args.human_level not in config.levels:
        print(f"config error: human level {args.human_level} not in {config.levels}",
              file=sys.stderr)
        return 2
    scenario, hierarchy, _ = build_artifacts(config, args.cache_dir)
    kernel = scenario_kernel(scenario, hierarchy)
    try:
        log = run_episode(scenario, hierarchy, kernel, args.human_level, config.seed)
    except InfeasiblePlanAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    if args.snapshots is not None:
        snapshots = Path(args.snapshots)
        snapshots.mkdir(parents=True, exist_ok=True)
        for rec in log.records:
            svg = render_step(scenario, *scenario.decode(rec.state), rec.t)
            (snapshots / f"step_{rec.t:03d}.svg").write_text(svg)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_episode_csv(prefix.with_suffix(".csv"), scenario, log)
    write_belief_csv(prefix.parent / f"{prefix.name}_beliefs.csv", scenario, log)
    summary = episode_summary(log)
    (prefix.parent / f"{prefix.name}_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    print(json.dumps(summary["outcome"], sort_keys=True))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _with_flags(_load_config_or_exit(args.config), seed=("--seed", args.seed))
    if args.seeds < 0:
        print(f"config error: --seeds must be >= 0, got {args.seeds}", file=sys.stderr)
        return 2
    seeds = [config.seed + i for i in range(args.seeds)]
    levels = config.levels if args.human_level is None else (args.human_level,)
    if any(level not in config.levels for level in levels):
        print(f"config error: human level {args.human_level} not in {config.levels}",
              file=sys.stderr)
        return 2
    if args.seeds == 0:
        report = {"scenario": config.name, "seeds": [], "per_level": {}}
    else:
        scenario, hierarchy, _ = build_artifacts(config, args.cache_dir)
        kernel = scenario_kernel(scenario, hierarchy)
        report = evaluate_batch(scenario, hierarchy, kernel, seeds, levels)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    for level, stats in report["per_level"].items():
        print(f"level {level}: {json.dumps(stats, sort_keys=True)}")
    failed = sum(len(stats["failed_seeds"]) for stats in report["per_level"].values())
    if failed:
        print(f"evaluate: {failed} episode(s) failed; see failed_seeds in {out}",
              file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chplanner",
        description=(
            "Chance-constrained receding-horizon driving simulator with "
            "online inference of the other driver's reasoning level"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", required=True,
        help="path to a YAML config, or a builtin scenario name "
             "(intersection, overtaking, merging)",
    )
    common.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="directory for hierarchy caches")

    p_build = sub.add_parser("build", parents=[common],
                             help="build and cache the policy hierarchy")
    p_build.set_defaults(func=cmd_build)

    p_sim = sub.add_parser("simulate", parents=[common], help="run one episode")
    p_sim.add_argument("--human-level", type=int, default=1,
                       help="reasoning level of the simulated human driver")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="master seed (default: config seed)")
    p_sim.add_argument("--steps", type=int, default=None,
                       help="step cap, >= 1 (default: config step_cap)")
    p_sim.add_argument("--snapshots", default=None, metavar="DIR",
                       help="write one top-down SVG per step into DIR")
    p_sim.add_argument("--on-infeasible", choices=("abort", "fallback"), default=None,
                       help="what to do when no feasible plan exists")
    p_sim.add_argument("--out", default="episode",
                       help="output prefix for CSV/JSON logs")
    p_sim.set_defaults(func=cmd_simulate)

    p_eval = sub.add_parser("evaluate", parents=[common],
                            help="run a seed batch per human level")
    p_eval.add_argument("--seeds", type=int, default=100,
                        help="number of consecutive seeds to run")
    p_eval.add_argument("--seed", type=int, default=None,
                        help="first seed of the batch (default: config seed)")
    p_eval.add_argument("--human-level", type=int, default=None,
                        help="restrict the batch to one human level")
    p_eval.add_argument("--out", default="evaluation.json",
                        help="aggregate report path")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Output directories are checked before anything is built or run.
    directories = [("--cache-dir", Path(args.cache_dir))]
    if getattr(args, "out", None) is not None:
        directories.append(("--out", Path(args.out).parent))
    if getattr(args, "snapshots", None) is not None:
        directories.append(("--snapshots", Path(args.snapshots)))
    for flag, directory in directories:
        if any(p.exists() and not p.is_dir() for p in (directory, *directory.parents)):
            print(f"config error: {flag} {directory} is not a directory", file=sys.stderr)
            return 2
    if args.command == "evaluate" and Path(args.out).is_dir():
        print(f"config error: --out {args.out} is a directory", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
