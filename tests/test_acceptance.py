"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The seed batches behind the statistical criteria are built once per session
and shared; every number asserted here is produced by the code under test,
never copied in.
"""

import itertools
import json
import time

import numpy as np
import pytest

from chplanner.cli import main, run_episode
from chplanner.game import ENV
from chplanner.hierarchy import compute_q, softmax_policy
from chplanner.inference import bayes_update, build_kernel, init_belief
from chplanner.planner import (
    DecisionProfile,
    constraint_probability,
    expected_reward,
    maximin_plan,
)

from oracles import (
    monte_carlo_joint_safety,
    open_loop_q_oracle,
    profile_value_oracle,
    joint_successor,
    random_game,
    random_policy,
)
from test_inference import _two_level_observation_kernel

SEEDS_PER_LEVEL = 50
LEVELS = (1, 2)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_planning_instance(rng):
    """Instance within the oracle-equivalence family: |X x K| <= 24."""
    num_levels = int(rng.integers(1, 3))
    n_e = int(rng.integers(1, 4))
    n_h = int(rng.integers(1, 12 // num_levels // n_e + 1))
    nx = n_e * n_h
    nu1 = int(rng.integers(2, 4))
    nu2 = int(rng.integers(2, 4))
    horizon = int(rng.integers(1, 4))
    spec, _, r1, _, safe = random_game(rng, n_e, n_h, nu1, nu2, horizon=horizon)
    policies = {k: random_policy(rng, k, ENV, nx, nu2) for k in range(1, num_levels + 1)}
    kernel = build_kernel(spec, policies)
    prior = rng.dirichlet(np.ones(num_levels))
    start = int(rng.integers(0, nx))
    belief = init_belief(start, prior, nx)
    stages = rng.dirichlet(np.ones(nu1), size=horizon)
    return spec, r1, safe, policies, kernel, prior, start, belief, stages, num_levels


@pytest.fixture(scope="session")
def seed_batches(built_scenarios):
    """per scenario -> per level -> 50 seeded episode logs, plus timings."""
    logs = {}
    timings = {}
    for name in ("intersection", "overtaking", "merging"):
        scenario, hierarchy, kernel, _ = built_scenarios(name)
        tic = time.perf_counter()
        logs[name] = {
            level: [
                run_episode(scenario, hierarchy, kernel, level, seed)
                for seed in range(SEEDS_PER_LEVEL)
            ]
            for level in LEVELS
        }
        timings[name] = time.perf_counter() - tic
    return logs, timings


def test_criterion_1_expected_reward_oracle_equivalence():
    rng = np.random.default_rng(2024)
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        spec, r1, safe, policies, kernel, prior, start, belief, stages, k = (
            _random_planning_instance(rng)
        )
        fast = expected_reward(
            kernel, r1, belief, DecisionProfile(stages), spec.discount
        )
        slow, _ = profile_value_oracle(
            spec, policies, prior, start, stages,
            safe, lambda s: r1[s], spec.discount,
        )
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - tic
    _report(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"200 instances, max |error| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_constraint_probability_oracle_and_monte_carlo():
    rng = np.random.default_rng(2025)
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        spec, r1, safe, policies, kernel, prior, start, belief, stages, k = (
            _random_planning_instance(rng)
        )
        fast = constraint_probability(
            kernel, safe, belief, DecisionProfile(stages)
        )
        _, slow = profile_value_oracle(
            spec, policies, prior, start, stages,
            safe, lambda s: 0.0, spec.discount,
        )
        worst = max(worst, abs(fast - slow))
    enum_elapsed = time.perf_counter() - tic

    mc_ok = True
    mc_detail = []
    for _ in range(10):
        spec, r1, safe, policies, kernel, prior, start, belief, stages, k = (
            _random_planning_instance(rng)
        )
        exact = constraint_probability(
            kernel, safe, belief, DecisionProfile(stages)
        )
        p_hat, se = monte_carlo_joint_safety(
            spec, policies, prior, start, stages,
            safe, 1_000_000, rng,
        )
        mc_ok &= abs(exact - p_hat) <= 3.0 * se + 1e-12
        mc_detail.append(abs(exact - p_hat) / max(se, 1e-12))
    _report(
        2,
        worst < 1e-10 and enum_elapsed < 10.0 and mc_ok,
        f"max |error| = {worst:.2e} ({enum_elapsed:.1f}s); "
        f"MC deviations (in SEs): max {max(mc_detail):.2f}",
    )


def test_criterion_3_level_k_oracle_and_softmax_properties():
    rng = np.random.default_rng(2026)
    worst_q = 0.0
    for _ in range(20):
        n_e, n_h = (int(n) for n in rng.integers(1, 4, size=2))
        nx = n_e * n_h
        nu1 = int(rng.integers(2, 4))
        nu2 = int(rng.integers(2, 4))
        horizon = int(rng.integers(1, 4))
        spec, *_ = random_game(rng, n_e, n_h, nu1, nu2, horizon=horizon)
        player = int(rng.choice([1, 2]))
        opp_player = 2 if player == 1 else 1
        opp = random_policy(rng, 0, opp_player, nx, spec.num_actions(opp_player))
        q = compute_q(spec, player, opp)
        worst_q = max(worst_q, np.abs(q.values - open_loop_q_oracle(spec, player, opp)).max())

        pol = softmax_policy(q)
        assert np.abs(pol.probs.sum(axis=1) - 1.0).max() < 1e-9
        shifted = softmax_policy(
            type(q)(q.level, q.player, q.values + rng.normal() * 10)
        )
        assert np.abs(pol.probs - shifted.probs).max() < 1e-12
    _report(3, worst_q < 1e-9, f"20 games, max |Q error| = {worst_q:.2e}")


def test_criterion_4_bayesian_filter(seed_batches):
    kernel = _two_level_observation_kernel(0.8, 0.2)
    prior = init_belief(0, [0.5, 0.5], 2)
    exact_ok = np.allclose(
        bayes_update(kernel, prior, 0, 1).weights, [0.8, 0.2], atol=1e-12
    )
    kernel_u = _two_level_observation_kernel(0.6, 0.6)
    exact_ok &= np.allclose(
        bayes_update(kernel_u, init_belief(0, [0.3, 0.7], 2), 0, 1).weights,
        [0.3, 0.7], atol=1e-12,
    )
    kernel_x = _two_level_observation_kernel(0.8, 0.0)
    exact_ok &= np.allclose(
        bayes_update(kernel_x, prior, 0, 1).weights, [1.0, 0.0], atol=1e-12
    )

    logs, _ = seed_batches
    episodes = [(lv, log) for lv in LEVELS for log in logs["intersection"][lv]]
    hits = sum(log.final_posteriors()[lv - 1] >= 0.9 for lv, log in episodes)
    rate = hits / len(episodes)
    _report(
        4,
        exact_ok and rate >= 0.9,
        f"hand cases exact: {exact_ok}; posterior>=0.9 in {hits}/{len(episodes)} episodes",
    )


def test_criterion_5_chance_constraint_enforcement(seed_batches, built_scenarios,
                                                   tmp_path, cache_dir):
    logs, _ = seed_batches
    rates = {}
    for name, per_level in logs.items():
        episodes = [log for lv in LEVELS for log in per_level[lv]]
        rates[name] = sum(log.violated for log in episodes) / len(episodes)
    bound = 0.01 + 0.01
    ok = all(rate <= bound for rate in rates.values())

    # The evaluate command must report the same statistic.
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--config", "intersection", "--cache-dir", str(cache_dir),
        "--seeds", str(SEEDS_PER_LEVEL), "--seed", "0", "--out", str(out),
    ])
    report = json.loads(out.read_text())
    reported = [report["per_level"][str(lv)]["violation_rate"] for lv in LEVELS]
    per_level_rates = [
        sum(l.violated for l in logs["intersection"][lv]) / SEEDS_PER_LEVEL
        for lv in LEVELS
    ]
    ok &= code == 0 and reported == per_level_rates
    _report(
        5,
        ok,
        "violation rates "
        + ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
        + f" (bound {bound}); cmd_evaluate agrees: {reported == per_level_rates}",
    )


def test_criterion_6_scenario_regression(seed_batches):
    logs, _ = seed_batches
    n = SEEDS_PER_LEVEL
    bar = 0.8 * n

    inter = logs["intersection"]
    default_ok = (
        inter[1][0].outcome["ego_crossed_first"]
        and not inter[2][0].outcome["ego_crossed_first"]
    )
    first_vs_l1 = sum(l.outcome["ego_crossed_first"] for l in inter[1])
    yields_vs_l2 = sum(not l.outcome["ego_crossed_first"] for l in inter[2])
    inter_ok = default_ok and first_vs_l1 >= bar and yields_vs_l2 >= bar

    over = logs["overtaking"]
    d1, d2 = over[1][0].outcome, over[2][0].outcome
    default_ok = (
        d1["completed"] and d2["completed"]
        and d1["completion_step"] < d2["completion_step"]
    )
    pairs = 0
    for l1, l2 in zip(over[1], over[2]):
        o1, o2 = l1.outcome, l2.outcome
        if o1["completed"] and o2["completed"] and (
            o1["completion_step"] < o2["completion_step"]
        ):
            pairs += 1
    over_ok = default_ok and pairs >= bar

    merge = logs["merging"]
    m1, m2 = merge[1][0].outcome, merge[2][0].outcome
    default_ok = (
        m1["merged"] and m1["merged_ahead"] and m1["merged_in_section"]
        and m2["merged"] and not m2["merged_ahead"] and m2["merged_in_section"]
    )
    ahead_l1 = sum(
        bool(l.outcome["merged"] and l.outcome["merged_ahead"]
             and l.outcome["merged_in_section"])
        for l in merge[1]
    )
    behind_l2 = sum(
        bool(l.outcome["merged"] and not l.outcome["merged_ahead"]
             and l.outcome["merged_in_section"])
        for l in merge[2]
    )
    merge_ok = default_ok and ahead_l1 >= bar and behind_l2 >= bar

    _report(
        6,
        inter_ok and over_ok and merge_ok,
        f"intersection first/yields {first_vs_l1}/{yields_vs_l2} of {n}; "
        f"overtaking strict-order pairs {pairs}/{n}; "
        f"merging ahead/behind {ahead_l1}/{behind_l2} of {n}",
    )


def test_criterion_7_maximin_baseline(built_scenarios, seed_batches):
    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    horizon = scenario.config.horizon
    seq = maximin_plan(scenario.spec, scenario.initial_state)
    robust = True
    for env_seq in itertools.product(
        range(scenario.spec.num_env_actions), repeat=horizon
    ):
        x = scenario.initial_state
        for tau in range(horizon):
            x = joint_successor(scenario.spec, x, seq[tau], env_seq[tau])
            robust &= bool(scenario.spec.safe_set[x])

    mm_log = run_episode(
        scenario, hierarchy, kernel, 1, seed=0, ego_controller="maximin"
    )

    def final_ego_x(log):
        egos = (scenario.decode(r.state)[0] for r in log.records)
        return [ego.s_x for ego in egos if ego is not None][-1]

    mm_final = final_ego_x(mm_log)
    logs, _ = seed_batches
    ch_final = np.mean([final_ego_x(log) for log in logs["intersection"][1]])
    _report(
        7,
        robust and not mm_log.violated and mm_final <= ch_final,
        f"robust under all {scenario.spec.num_env_actions ** horizon} opponent "
        f"sequences: {robust}; final s_x {mm_final:.1f} <= CH mean {ch_final:.1f}",
    )


def test_criterion_8_byte_identical_simulation(tmp_path, cache_dir):
    args = [
        "simulate", "--config", "intersection", "--cache-dir", str(cache_dir),
        "--human-level", "2", "--seed", "11",
    ]
    assert main(args + ["--out", str(tmp_path / "a" / "episode")]) == 0
    assert main(args + ["--out", str(tmp_path / "b" / "episode")]) == 0
    same = (
        (tmp_path / "a" / "episode.csv").read_bytes()
        == (tmp_path / "b" / "episode.csv").read_bytes()
    )
    _report(8, same, "two cmd_simulate runs, identical (config, level, seed)")


def test_criterion_9_performance_envelope(built_scenarios, seed_batches, monkeypatch):
    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    from chplanner import planner as planner_module
    from chplanner.cli import scenario_planner

    # seed_batches has planned this belief already: time a solve, not a lookup.
    monkeypatch.setattr(planner_module, "_plan_memo", {})
    planner = scenario_planner(scenario, kernel)
    belief = init_belief(
        scenario.initial_state, scenario.config.level_prior, scenario.spec.num_states
    )
    tic = time.perf_counter()
    planner.plan(belief)
    step_time = time.perf_counter() - tic

    _, timings = seed_batches
    slowest = max(timings.values())
    _report(
        9,
        step_time < 1.0 and slowest < 600.0,
        f"planning step {step_time * 1000:.0f} ms; slowest 100-episode batch "
        f"{slowest:.2f}s",
    )
