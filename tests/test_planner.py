import builtins
import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from chplanner.game import ENV, PolicyTable, read_only
from chplanner.inference import AugmentedKernel, Belief, build_kernel, init_belief
from chplanner.planner import (
    DecisionProfile,
    NoRobustPlanError,
    PlanResult,
    constraint_probability,
    expected_reward,
    maximin_plan,
    optimize,
    project_to_simplex,
    receding_horizon_step,
)
from chplanner import planner
from chplanner.cli import run_episode, scenario_planner
from chplanner.planner import _CompiledHorizon, _branch_and_bound, _closed_form, _solve

from conftest import make_spec
from oracles import (
    JointGame, JointTableKernel, lp_bound_oracle, pair_grid_oracle, profile_value_oracle,
    random_game, random_policy, two_stage_grid_oracle,
)


def _random_instance(rng, grid=None, nu1=None, nu2=None, horizon=None, num_levels=2):
    n_e, n_h = grid or (int(rng.integers(1, 3)), int(rng.integers(2, 4)))
    nx = n_e * n_h
    nu1 = nu1 or int(rng.integers(2, 4))
    nu2 = nu2 or int(rng.integers(2, 4))
    horizon = horizon or int(rng.integers(1, 4))
    spec, table, r1, r2, safe = random_game(rng, n_e, n_h, nu1, nu2, horizon=horizon)
    policies = {
        k: random_policy(rng, k, ENV, nx, nu2) for k in range(1, num_levels + 1)
    }
    kernel = build_kernel(spec, policies)
    prior = rng.dirichlet(np.ones(num_levels))
    belief = init_belief(int(rng.integers(0, nx)), prior, nx)
    stages = rng.dirichlet(np.ones(nu1), size=horizon)
    return spec, table, r1, safe, policies, kernel, prior, belief, stages


def test_decision_profile_validation():
    with pytest.raises(ValueError):
        DecisionProfile(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        DecisionProfile(np.array([0.5, 0.5]))
    # NaN fails every comparison, so the range and sum checks must not miss it.
    with pytest.raises(ValueError, match="stage 0 is not a distribution"):
        DecisionProfile([[np.nan, 1.0]])
    with pytest.raises(ValueError, match="stage 1 is not a distribution"):
        DecisionProfile([[1.0, 0.0], [np.inf, 0.0]])
    p = DecisionProfile.uniform(3, 4)
    assert p.horizon == 3 and p.num_actions == 4
    d = DecisionProfile.deterministic([2, 0], 3)
    assert d.stages[0, 2] == 1.0 and d.stages[1, 0] == 1.0


def test_decision_profile_holds_a_read_only_copy():
    stages = np.array([[0.25, 0.75]])
    profile = DecisionProfile(stages)
    stages[0] = [1.0, 0.0]
    assert profile.stages[0, 0] == 0.25
    with pytest.raises(ValueError, match="read-only"):
        profile.stages[0, 0] = 1.0


def test_expected_reward_single_step_deterministic():
    spec = make_spec([[1], [1]], [[0]], [0.0, 5.0], [0.0, 0.0], [True, True], horizon=1)
    kernel = build_kernel(spec, {1: PolicyTable(1, ENV, np.ones((2, 1)))})
    belief = init_belief(0, [1.0], 2)
    profile = DecisionProfile.deterministic([0], 1)
    value = expected_reward(kernel, np.array([0.0, 5.0]), belief, profile, 0.9)
    assert value == pytest.approx(5.0, abs=1e-12)


def test_expected_reward_zero_vector_gives_zero():
    rng = np.random.default_rng(0)
    spec, _, _, _, _, kernel, _, belief, stages = _random_instance(rng, horizon=3)
    value = expected_reward(
        kernel, np.zeros(spec.num_states), belief, DecisionProfile(stages), 0.9
    )
    assert value == 0.0


def test_expected_reward_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    spec, _, r1, safe, policies, kernel, prior, belief, stages = _random_instance(
        rng, grid=(2, 2), nu1=2, nu2=2, horizon=2
    )
    start = belief.state
    value = expected_reward(
        kernel, r1, belief, DecisionProfile(stages), spec.discount
    )
    oracle, _ = profile_value_oracle(
        spec, policies, prior, start, stages, safe, lambda s: r1[s], spec.discount
    )
    assert value == pytest.approx(oracle, abs=1e-10)


def test_constraint_probability_all_safe_is_one():
    rng = np.random.default_rng(2)
    spec, _, _, _, _, kernel, _, belief, stages = _random_instance(rng, horizon=3)
    prob = constraint_probability(
        kernel, np.ones(spec.num_states, bool), belief, DecisionProfile(stages)
    )
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_constraint_probability_single_step_violation_mass():
    # One-step game: env splits 0.3/0.7 between an unsafe and a safe state.
    env = [[1, 2], [1, 1], [2, 2]]  # one ego cell
    spec = make_spec([[0]], env, np.zeros(3), np.zeros(3), [True, False, True], horizon=1)
    policy = PolicyTable(1, ENV, np.array([[0.3, 0.7], [0.5, 0.5], [0.5, 0.5]]))
    kernel = build_kernel(spec, {1: policy})
    belief = init_belief(0, [1.0], 3)
    prob = constraint_probability(
        kernel, spec.safe_set, belief, DecisionProfile.deterministic([0], 1)
    )
    assert prob == pytest.approx(0.7, abs=1e-12)


def test_constraint_probability_zeroing_matches_path_enumeration():
    # Three-step chains where states can violate at different depths; the
    # violation mass must be counted exactly once per trajectory.
    rng = np.random.default_rng(3)
    for _ in range(10):
        spec, _, r1, safe, policies, kernel, prior, belief, stages = _random_instance(
            rng, grid=(2, 2), nu1=2, nu2=2, horizon=3, num_levels=2
        )
        start = belief.state
        prob = constraint_probability(
            kernel, spec.safe_set, belief, DecisionProfile(stages)
        )
        _, oracle = profile_value_oracle(
            spec, policies, prior, start, stages, safe, lambda s: 0.0, spec.discount
        )
        assert prob == pytest.approx(oracle, abs=1e-12)


def test_constraint_probability_monotone_in_safe_sets():
    rng = np.random.default_rng(4)
    spec, _, _, safe, _, kernel, _, belief, stages = _random_instance(rng, horizon=3)
    prob_small = constraint_probability(
        kernel, safe, belief, DecisionProfile(stages)
    )
    bigger = safe.copy()
    bigger[np.flatnonzero(~bigger)[:1]] = True
    prob_big = constraint_probability(
        kernel, bigger, belief, DecisionProfile(stages)
    )
    assert prob_big >= prob_small - 1e-12


def test_objective_affine_per_stage():
    """Three-point collinearity: fixing other stages, J is affine in one stage."""
    rng = np.random.default_rng(5)
    spec, _, r1, safe, _, kernel, _, belief, stages = _random_instance(
        rng, grid=(2, 3), nu1=3, nu2=2, horizon=3
    )
    reward = r1
    for tau in range(3):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        vals = []
        for gamma in (a, b, 0.5 * (a + b)):
            s = stages.copy()
            s[tau] = gamma
            r = expected_reward(kernel, reward, belief, DecisionProfile(s), spec.discount)
            p = constraint_probability(kernel, safe, belief, DecisionProfile(s))
            vals.append((r, p))
        assert vals[2][0] == pytest.approx(0.5 * (vals[0][0] + vals[1][0]), abs=1e-10)
        assert vals[2][1] == pytest.approx(0.5 * (vals[0][1] + vals[1][1]), abs=1e-10)


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_vertex_values_match_enumeration_oracle(horizon):
    # The point-mass belief against the path oracle, which weighs every
    # level separately; the last draw's prior rules one of three levels out.
    rng = np.random.default_rng(30 + horizon)
    for trial in range(4):
        spec, _, r1, safe, policies, kernel, prior, belief, _ = _random_instance(
            rng, horizon=horizon, num_levels=3 if trial == 3 else 2
        )
        if trial == 3:
            prior = np.array([prior[0] + prior[1], 0.0, prior[2]])
            belief = Belief(state=belief.state, weights=prior)
        nu = spec.num_ego_actions
        compiled = _CompiledHorizon(
            kernel, r1, safe, horizon, belief, spec.discount
        )
        rewards, probs = compiled.vertex_values()
        assert rewards.shape == probs.shape == (nu**horizon,)
        start = belief.state
        for i, actions in enumerate(itertools.product(range(nu), repeat=horizon)):
            oracle_r, oracle_p = profile_value_oracle(
                spec, policies, prior, start,
                DecisionProfile.deterministic(actions, nu).stages,
                safe, lambda s: r1[s], spec.discount,
            )
            assert rewards[i] == pytest.approx(oracle_r, abs=1e-10)
            assert probs[i] == pytest.approx(oracle_p, abs=1e-10)


def test_optimize_unconstrained_attains_best_vertex():
    rng = np.random.default_rng(7)
    spec, _, r1, safe, _, kernel, _, belief, _ = _random_instance(
        rng, grid=(2, 3), nu1=3, nu2=2, horizon=3
    )
    reward = r1
    result = optimize(kernel, reward, safe, belief, 1.0, spec.discount, 3)
    assert result.feasible
    best = -np.inf
    for actions in itertools.product(range(3), repeat=3):
        profile = DecisionProfile.deterministic(actions, 3)
        best = max(best, expected_reward(kernel, reward, belief, profile, spec.discount))
    assert result.expected_reward >= best - 1e-6


def test_optimize_empty_safe_set_reports_infeasible():
    rng = np.random.default_rng(8)
    spec, _, r1, _, _, kernel, _, belief, _ = _random_instance(rng, horizon=2)
    empty = np.zeros(spec.num_states, bool)
    result = optimize(
        kernel, r1, empty, belief, 0.01, spec.discount, 2
    )
    assert not result.feasible
    assert result.path == "infeasible"
    assert result.constraint_probability == 0.0


def test_optimize_concentrates_on_dominant_safe_action():
    # Action 0 leads to a safe, high-reward state; action 1 to an unsafe,
    # low-reward one.  The optimum is the pure safe action.
    ego = [[1, 2], [1, 1], [2, 2]]  # one env cell
    spec = make_spec(ego, [[0]], [0.0, 10.0, 2.0], np.zeros(3), [True, True, False], horizon=3)
    kernel = build_kernel(spec, {1: PolicyTable(1, ENV, np.ones((3, 1)))})
    belief = init_belief(0, [1.0], 3)
    result = optimize(
        kernel, np.array([0.0, 10.0, 2.0]), spec.safe_set, belief,
        0.01, spec.discount, 3,
    )
    assert result.feasible
    assert result.profile.stages[0, 0] >= 0.99


def test_optimize_randomizes_at_the_constraint_boundary():
    # The unsafe action is worth more; the optimum mixes it in with mass
    # epsilon, beating every feasible vertex.
    ego = [[1, 2], [1, 1], [2, 2]]  # one env cell
    spec = make_spec(ego, [[0]], [0.0, 1.0, 100.0], np.zeros(3), [True, True, False],
                     horizon=1)
    kernel = build_kernel(spec, {1: PolicyTable(1, ENV, np.ones((3, 1)))})
    belief = init_belief(0, [1.0], 3)
    result = optimize(
        kernel, np.array([0.0, 1.0, 100.0]), spec.safe_set, belief,
        0.05, spec.discount, 1,
    )
    assert result.feasible
    assert result.constraint_probability == pytest.approx(0.95, abs=1e-6)
    assert result.profile.stages[0, 1] == pytest.approx(0.05, abs=1e-6)
    assert result.expected_reward > 1.0 + 1e-6  # better than the safe vertex
    # With one stage the single-stage mix is the LP optimum itself.
    assert result.path == "closed-form"
    assert result.gap == 0.0
    assert result.iterations == 0


@pytest.mark.parametrize("epsilon", [0.126, 0.144, 0.16])
def test_closed_form_nudges_a_rounded_down_mix_back_to_feasible(epsilon):
    # Action 0 stays safe with probability 0.9, action 1 is unsafe but worth
    # more.  For these epsilons the exact boundary weight threshold / 0.9
    # evaluates a float below the threshold; the plan must still take the
    # closed-form path and be feasible.
    # The ego moves to cell 1 under action 0 and to cell 2 under action 1;
    # env action 1 moves the env vehicle to cell 1.  State (1, 0) is safe
    # and worth 1, every state with ego cell 2 or env cell 1 is unsafe and
    # worth 10.
    rewards = [0.0, 0.0, 1.0, 10.0, 10.0, 10.0]
    spec = make_spec([[1, 2], [1, 1], [2, 2]], [[0, 1], [1, 1]], rewards, np.zeros(6),
                     [True, True, True, False, False, False], horizon=1)
    policy = PolicyTable(1, ENV, np.array([[0.9, 0.1]] + [[0.5, 0.5]] * 5))
    kernel = build_kernel(spec, {1: policy})
    belief = init_belief(0, [1.0], 6)
    threshold = 1.0 - epsilon
    lam = threshold / 0.9
    exact = DecisionProfile(np.array([[lam, 1.0 - lam]]))
    assert constraint_probability(kernel, spec.safe_set, belief, exact) < threshold
    result = optimize(
        kernel, spec.ego_reward_table, spec.safe_set, belief, epsilon, spec.discount, 1,
    )
    assert result.path == "closed-form" and result.gap == 0.0
    assert result.constraint_probability >= threshold
    assert constraint_probability(
        kernel, spec.safe_set, belief, result.profile
    ) == result.constraint_probability
    assert result.profile.stages[0, 0] == pytest.approx(lam, abs=1e-12)


def test_closed_form_plans_match_oracle_and_stay_feasible():
    # Every closed-form plan's reward and probability agree with path
    # enumeration, and the probability reaches 1 - epsilon.
    rng = np.random.default_rng(40)
    seen = 0
    while seen < 25:
        nu1 = int(rng.integers(2, 5))
        spec, _, r1, safe, policies, kernel, prior, belief, _ = _random_instance(rng, nu1=nu1)
        epsilon = float(rng.choice([0.01, 0.05, 0.2, 0.5]))
        result = optimize(
            kernel, r1, safe, belief, epsilon, spec.discount, spec.horizon
        )
        if result.path != "closed-form":
            continue
        seen += 1
        start = belief.state
        oracle_r, oracle_p = profile_value_oracle(
            spec, policies, prior, start, result.profile.stages, safe,
            lambda s: r1[s], spec.discount,
        )
        assert result.expected_reward == pytest.approx(oracle_r, abs=1e-10)
        assert result.constraint_probability == pytest.approx(oracle_p, abs=1e-10)
        assert result.feasible and result.iterations == 0 and result.gap == 0.0
        assert result.constraint_probability >= 1.0 - epsilon


def _gap_test_draw(rng, horizon=None):
    """One random constrained-planning draw: instance plus epsilon.

    The instance is a :class:`JointGame` on a random joint table of 2 to 6
    states, drawn as these draws always were, so the solver checks below
    and the pinned draws keep their instances; its kernel serves the rows
    the package's kernel would.
    """
    nu1 = int(rng.integers(2, 5))
    nx, nu2 = int(rng.integers(2, 7)), int(rng.integers(2, 4))
    horizon = horizon or int(rng.integers(1, 4))
    table = rng.integers(0, nx, size=(nx, nu1, nu2))
    r1 = rng.normal(size=nx)
    rng.normal(size=nx)  # the env reward, which no planner reads
    safe = rng.random(nx) < 0.7
    if not safe.any():
        safe[rng.integers(0, nx)] = True
    game = JointGame(table, 0.9, horizon)
    policies = {k: random_policy(rng, k, ENV, nx, nu2) for k in (1, 2)}
    kernel = JointTableKernel(game, policies)
    prior = rng.dirichlet(np.ones(2))
    belief = init_belief(int(rng.integers(0, nx)), prior, nx)
    stages = rng.dirichlet(np.ones(nu1), size=horizon)
    instance = game, table, r1, safe, policies, kernel, prior, belief, stages
    return instance, float(rng.choice([0.01, 0.05, 0.2, 0.5]))


def test_optimize_gap_is_bound_minus_value():
    # On random instances: every plan reports the exact evaluation of its
    # own profile, and every feasible plan is proved optimal (gap 0): no
    # plan beats the brute-force LP bound, and none is beaten by a feasible
    # point of a lattice over two-action mixes at every stage.
    rng = np.random.default_rng(41)
    paths = set()
    for _ in range(200):
        (spec, _, r1, safe, policies, kernel, prior, belief, _), epsilon = _gap_test_draw(rng)
        result = optimize(
            kernel, r1, safe, belief, epsilon, spec.discount, spec.horizon
        )
        paths.add(result.path)
        compiled = _CompiledHorizon(kernel, r1, safe, spec.horizon, belief, spec.discount)
        assert (result.expected_reward, result.constraint_probability) == compiled.evaluate(
            result.profile.stages
        ), result.path
        assert result.gap == 0.0 and result.iterations == 0
        if not result.feasible:
            assert result.path == "infeasible"
            continue
        assert result.constraint_probability >= 1.0 - epsilon
        oracle_args = (
            spec, policies, prior, belief.state, spec.horizon, safe,
            lambda s: r1[s], spec.discount, 1.0 - epsilon,
        )
        assert result.expected_reward <= lp_bound_oracle(*oracle_args) + 1e-10
        assert result.expected_reward >= pair_grid_oracle(*oracle_args) - 1e-10
        if result.path == "branch-and-bound":
            # The closed-form mix (or the best feasible vertex) is the
            # search's first incumbent.
            vertex_r, vertex_p = compiled.vertex_values()
            feasible = np.flatnonzero(vertex_p >= 1.0 - epsilon)
            best_feas = int(feasible[np.argmax(vertex_r[feasible])])
            _, cf_r, cf_p, _ = _closed_form(compiled, vertex_r, vertex_p, 1.0 - epsilon, best_feas)
            assert cf_p >= 1.0 - epsilon and result.expected_reward >= cf_r
    assert paths == {"infeasible", "unconstrained", "closed-form", "branch-and-bound"}


@pytest.mark.parametrize("horizon", [2, 3])
def test_sweep_plans_beat_the_two_stage_grid_oracle(horizon):
    # Every branch-and-bound plan is proved optimal, at least as good as
    # the best feasible point of a 101 x 101 lattice over every two-stage
    # mix, and feasible.
    rng = np.random.default_rng(50 + horizon)
    seen = 0
    while seen < 6:
        (spec, _, r1, safe, policies, kernel, prior, belief, _), epsilon = _gap_test_draw(
            rng, horizon
        )
        result = optimize(kernel, r1, safe, belief, epsilon, spec.discount, horizon)
        if result.path != "branch-and-bound":
            continue
        seen += 1
        best = two_stage_grid_oracle(
            spec, policies, prior, belief.state, horizon, safe,
            lambda s: r1[s], spec.discount, 1.0 - epsilon,
        )
        assert result.gap == 0.0
        assert result.expected_reward >= best - 1e-10
        assert constraint_probability(kernel, safe, belief, result.profile) >= 1.0 - epsilon


class _TableHorizon:
    """A two-stage horizon given by its vertex tables, for the search alone."""

    def __init__(self, r, p):
        self.r, self.p, self.num_actions = r, p, r.shape[0]

    def evaluate(self, stages):
        return stages[0] @ self.r @ stages[1], stages[0] @ self.p @ stages[1]


@pytest.mark.parametrize("transpose", [False, True])
def test_pair_mix_finds_the_boundary_end_on_either_stage(transpose):
    # Only the first stage's action moves the probability (0.5 or 1.0) and
    # only its safe action 0 costs reward, so the boundary P = 0.8 is the
    # line where that stage puts 0.6 on action 0, and the best point is its
    # end where the second stage takes its better action 0: R = 0.4, which
    # is the LP bound.  Transposed, the stages swap roles.  The search
    # starts from the best feasible vertex, worth 0.
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    p = np.array([[1.0, 1.0], [0.5, 0.5]])
    if transpose:
        r, p = r.T, p.T
    reward, prob, stages, bound = _branch_and_bound(
        _TableHorizon(r, p), r.ravel(), p.ravel(), 0.8, (0.0, 0.0, 1.0, np.eye(2)[[0, 0]]),
        0.4, 1e-12,
    )
    assert reward == pytest.approx(0.4, abs=1e-12) and bound == pytest.approx(0.4, abs=1e-12)
    assert prob >= 0.8
    safe, free = stages[::-1] if transpose else stages
    assert safe == pytest.approx([0.6, 0.4], abs=1e-12)
    assert np.array_equal(free, [1.0, 0.0])


def _pinned_draw(seed, draw):
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        (spec, _, r1, safe, policies, kernel, prior, belief, _), epsilon = _gap_test_draw(rng)
    return spec, r1, safe, policies, kernel, prior, belief, epsilon


@pytest.mark.parametrize("seed, draw, parent_reward", [
    # Two-stage mixes over vertex bases miss this three-stage mix.
    (7, 1076, -0.2640315923967308),
    # Here one mixed corner term is about 1e-8, where the textbook root
    # formula of a bilinear boundary lost 0.23 %.
    (11, 5508, 0.3838398847844077),
    # The best mix re-scores a float below 1 - epsilon; without the nudge
    # it is dropped and the plan falls to 1.618.
    (7, 654, 1.7098921772576055),
])
def test_sweep_beats_pinned_ascent_plans(seed, draw, parent_reward):
    # The reward the projected-gradient ascent used to reach on these draws;
    # the branch-and-bound plan beats it and is proved optimal.
    spec, r1, safe, _, kernel, _, belief, epsilon = _pinned_draw(seed, draw)
    result = optimize(kernel, r1, safe, belief, epsilon, spec.discount, spec.horizon)
    assert result.path == "branch-and-bound" and result.feasible
    assert result.gap == 0.0
    assert result.expected_reward >= parent_reward
    assert result.constraint_probability >= 1.0 - epsilon


def test_box_budget_stops_the_search_with_a_valid_bound(monkeypatch):
    # A search cut short by the box budget reports a positive gap, and
    # reward plus gap still bounds the optimum the full search proves,
    # within the brute-force LP bound.
    spec, r1, safe, policies, kernel, prior, belief, epsilon = _pinned_draw(7, 1076)
    args = (kernel, r1, safe, belief, epsilon, spec.discount, spec.horizon)
    optimum = _solve(*args).expected_reward
    monkeypatch.setattr(planner, "BOX_BUDGET", 60)
    result = _solve(*args)
    assert result.path == "branch-and-bound" and result.feasible and result.gap > 0.0
    assert result.constraint_probability >= 1.0 - epsilon
    assert result.expected_reward <= optimum
    assert result.expected_reward + result.gap >= optimum - 1e-10
    assert result.expected_reward + result.gap <= lp_bound_oracle(
        spec, policies, prior, belief.state, spec.horizon, safe,
        lambda s: r1[s], spec.discount, 1.0 - epsilon,
    ) + 1e-10


def test_optimize_is_deterministic():
    rng = np.random.default_rng(9)
    spec, _, r1, safe, _, kernel, _, belief, _ = _random_instance(
        rng, grid=(2, 3), nu1=3, nu2=2, horizon=3
    )
    args = (kernel, r1, safe, belief, 0.1, spec.discount, 3)
    a = _solve(*args)  # the memo's premise, so not through the memo
    b = _solve(*args)
    assert np.array_equal(a.profile.stages, b.profile.stages)
    assert (a.expected_reward, a.constraint_probability, a.feasible, a.iterations) == (
        b.expected_reward, b.constraint_probability, b.feasible, b.iterations
    )


def test_optimize_result_honors_feasibility_invariant():
    # Whenever feasible is reported, the exact probability meets 1 - epsilon.
    rng = np.random.default_rng(21)
    for _ in range(15):
        spec, _, r1, safe, _, kernel, _, belief, _ = _random_instance(rng)
        epsilon = float(rng.choice([0.0, 0.01, 0.2, 0.5, 1.0]))
        result = optimize(
            kernel, r1, safe, belief,
            epsilon, spec.discount, spec.horizon,
        )
        assert 0.0 <= result.constraint_probability <= 1.0
        if result.feasible:
            assert result.constraint_probability >= 1.0 - epsilon
        else:
            assert result.path == "infeasible"


def test_optimize_rejects_bad_epsilon():
    rng = np.random.default_rng(10)
    spec, _, r1, safe, _, kernel, _, belief, _ = _random_instance(rng, horizon=2)
    with pytest.raises(ValueError):
        optimize(kernel, r1, safe, belief, 1.5, spec.discount, 2)


@pytest.mark.parametrize("discount", [float("nan"), 0.0, -1.0, 2.0])
def test_optimize_rejects_bad_discount(discount):
    rng = np.random.default_rng(10)
    spec, _, r1, safe, _, kernel, _, belief, _ = _random_instance(rng, horizon=2)
    with pytest.raises(ValueError, match="discount"):
        optimize(kernel, r1, safe, belief, 0.1, discount, 2)


def test_optimize_rejects_empty_horizon():
    rng = np.random.default_rng(10)
    spec, _, r1, safe, _, kernel, _, belief, _ = _random_instance(rng, horizon=2)
    with pytest.raises(ValueError, match="horizon"):
        optimize(kernel, r1, safe, belief, 0.1, spec.discount, 0)


def _assert_same_plan(a: PlanResult, b: PlanResult) -> None:
    for f in dataclasses.fields(PlanResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "profile":
            assert x.stages.dtype == y.stages.dtype
            assert np.array_equal(x.stages, y.stages)
        else:
            assert x == y, f.name


@pytest.fixture
def empty_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(planner, "_plan_memo", memo)
    return memo


def _frozen_reward(spec):
    """The spec's ego reward as an array the memo may key on."""
    return read_only(spec.ego_reward_table.copy(), float)


def test_optimize_memo_returns_the_exact_first_plan(empty_memo):
    rng = np.random.default_rng(31)
    for _ in range(20):
        spec, _, _, _, _, kernel, _, belief, _ = _random_instance(rng)
        epsilon = float(rng.choice([0.0, 0.05, 0.2, 1.0]))
        args = (kernel, _frozen_reward(spec), spec.safe_set, belief, epsilon,
                spec.discount, spec.horizon)
        first = optimize(*args)
        assert optimize(*args) is first
        assert optimize(*args[:3], Belief(belief.state, belief.weights.copy()),
                        *args[4:]) is first
        _assert_same_plan(first, _solve(*args))
    assert len(empty_memo) == 20


def test_optimize_memo_exact_on_scenario_beliefs(built_scenarios, empty_memo):
    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    log = run_episode(scenario, hierarchy, kernel, 2, seed=3)
    plans = scenario_planner(scenario, kernel)
    for rec in log.records[:-1]:
        belief = Belief(rec.state, rec.posteriors)
        first = plans.plan(belief)
        assert plans.plan(belief) is first
        assert first.expected_reward == rec.expected_reward
        _assert_same_plan(first, _solve(
            kernel, scenario.ego_objective, scenario.spec.safe_set, belief,
            plans.epsilon, plans.discount, plans.horizon,
        ))


def test_optimize_memo_never_mixes_inputs(empty_memo):
    rng = np.random.default_rng(32)
    spec, _, _, _, policies, kernel, _, belief, _ = _random_instance(
        rng, grid=(2, 3), nu1=3, nu2=2, horizon=3
    )
    reward, safe = _frozen_reward(spec), spec.safe_set
    base = (kernel, reward, safe, belief, 0.1, 0.9, 3)
    first = optimize(*base)
    variants = {
        "kernel": (build_kernel(spec, policies), reward, safe, belief, 0.1, 0.9, 3),
        "reward": (kernel, read_only(reward.copy(), float), safe, belief, 0.1, 0.9, 3),
        "safe set": (kernel, reward, read_only(safe.copy(), bool), belief, 0.1, 0.9, 3),
        "state": (kernel, reward, safe, Belief((belief.state + 1) % 6, belief.weights),
                  0.1, 0.9, 3),
        "weights": (kernel, reward, safe, Belief(belief.state, belief.weights[::-1]),
                    0.1, 0.9, 3),
        "epsilon": (kernel, reward, safe, belief, 0.2, 0.9, 3),
        "discount": (kernel, reward, safe, belief, 0.1, 0.8, 3),
        "horizon": (kernel, reward, safe, belief, 0.1, 0.9, 2),
    }
    for name, args in variants.items():
        result = optimize(*args)
        assert result is not first, name
        _assert_same_plan(result, _solve(*args))
    assert optimize(*base) is first


def test_optimize_memo_checks_identity_beyond_id(monkeypatch, empty_memo):
    # Make every kernel share one id, as a dead kernel's id may be reused.
    monkeypatch.setattr(
        planner, "id",
        lambda obj: 0 if isinstance(obj, AugmentedKernel) else builtins.id(obj),
        raising=False,
    )
    rng = np.random.default_rng(36)
    spec, _, _, _, policies, kernel, _, belief, _ = _random_instance(rng, horizon=2)
    args = (_frozen_reward(spec), spec.safe_set, belief, 0.1, 0.9, 2)
    first = optimize(kernel, *args)
    flipped = {k: PolicyTable(k, ENV, p.probs[:, ::-1]) for k, p in policies.items()}
    other = build_kernel(spec, flipped)
    second = optimize(other, *args)
    assert second is not first
    _assert_same_plan(second, _solve(other, *args))
    assert len(empty_memo) == 1  # the entry was replaced, not duplicated


def test_optimize_memo_skips_writeable_inputs(empty_memo):
    rng = np.random.default_rng(33)
    spec, _, _, _, _, kernel, _, belief, _ = _random_instance(rng, horizon=2)
    reward = spec.ego_reward_table.copy()
    a = optimize(kernel, reward, spec.safe_set, belief, 0.1, 0.9, 2)
    reward[:] = -reward
    b = optimize(kernel, reward, spec.safe_set, belief, 0.1, 0.9, 2)
    assert empty_memo == {}
    _assert_same_plan(b, _solve(kernel, reward, spec.safe_set, belief, 0.1, 0.9, 2))
    assert a is not b


def test_optimize_memo_skips_read_only_views_of_writeable_arrays(empty_memo):
    rng = np.random.default_rng(37)
    spec, _, _, _, _, kernel, _, belief, _ = _random_instance(rng, horizon=2)
    base = spec.ego_reward_table.copy()
    reward = base[:]
    reward.flags.writeable = False
    args = (kernel, reward, spec.safe_set, belief, 0.1, 0.9, 2)
    a = optimize(*args)
    base[:] = -base
    b = optimize(*args)
    assert empty_memo == {}
    assert a is not b
    _assert_same_plan(b, _solve(*args))


def test_optimize_memo_keeps_no_kernel_alive(empty_memo):
    rng = np.random.default_rng(34)
    spec, _, _, _, _, kernel, _, belief, _ = _random_instance(rng, horizon=2)
    optimize(kernel, _frozen_reward(spec), spec.safe_set, belief, 0.1, 0.9, 2)
    ref = weakref.ref(kernel)
    del kernel
    gc.collect()
    assert ref() is None
    [(refs, _)] = empty_memo.values()
    assert refs[0]() is None


def test_optimize_memo_stays_within_its_cap(monkeypatch, empty_memo):
    monkeypatch.setattr(planner, "PLAN_MEMO_SIZE", 3)
    rng = np.random.default_rng(35)
    spec, _, _, _, _, kernel, _, _, _ = _random_instance(rng, grid=(2, 3), horizon=2)
    args = (kernel, _frozen_reward(spec), spec.safe_set)
    beliefs = [init_belief(x, [0.5, 0.5], 6) for x in range(6)]
    plans = []
    for belief in beliefs:
        plans.append(optimize(*args, belief, 0.1, 0.9, 2))
        assert len(empty_memo) <= 3
    assert optimize(*args, beliefs[-1], 0.1, 0.9, 2) is plans[-1]
    assert optimize(*args, beliefs[0], 0.1, 0.9, 2) is not plans[0]  # dropped first
    assert len(empty_memo) == 3


class _StubPlanner:
    def __init__(self, stages):
        self.result = PlanResult(
            profile=DecisionProfile(np.asarray(stages, float)),
            expected_reward=0.0,
            constraint_probability=1.0,
            feasible=True,
        )

    def plan(self, belief):
        return self.result


def test_receding_horizon_step_one_hot_is_deterministic():
    planner = _StubPlanner([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(0)
    actions = {receding_horizon_step(planner, None, rng)[0] for _ in range(20)}
    assert actions == {1}


def test_receding_horizon_step_seed_reproducibility():
    planner = _StubPlanner([[0.25, 0.75]])
    seq1 = [
        receding_horizon_step(planner, None, np.random.default_rng(42))[0]
        for _ in range(10)
    ]
    rng = np.random.default_rng(42)
    # A fresh generator restarted per draw must reproduce the first element.
    assert seq1[0] == receding_horizon_step(planner, None, np.random.default_rng(42))[0]
    seq2 = [receding_horizon_step(planner, None, rng)[0] for _ in range(10)]
    rng = np.random.default_rng(42)
    seq3 = [receding_horizon_step(planner, None, rng)[0] for _ in range(10)]
    assert seq2 == seq3


def test_receding_horizon_step_sampling_frequencies():
    planner = _StubPlanner([[0.25, 0.75]])
    rng = np.random.default_rng(123)
    n = 100_000
    draws = np.array([receding_horizon_step(planner, None, rng)[0] for _ in range(n)])
    assert abs((draws == 1).mean() - 0.75) < 0.01


def test_maximin_single_agent_coincides_with_exhaustive_optimum():
    rng = np.random.default_rng(11)
    nx, nu1 = 5, 3
    table = rng.integers(0, nx, size=(nx, nu1))
    r1 = rng.normal(size=nx)
    # One env cell: the opponent's two actions are irrelevant.
    spec = make_spec(table, [[0, 0]], r1, np.zeros(nx), np.ones(nx, bool), horizon=3)
    seq = maximin_plan(spec, 0)

    def value(actions):
        x, total, disc = 0, 0.0, 1.0
        for u in actions:
            x = int(table[x, u])
            total += disc * r1[x]
            disc *= spec.discount
        return total

    best = max(value(a) for a in itertools.product(range(nu1), repeat=3))
    assert value(seq) == pytest.approx(best, abs=1e-12)


def test_maximin_matches_matrix_minimax():
    # One-step simultaneous game: outcome states encode the payoff matrix.
    # Each vehicle moves from cell 0 to cell 1 + its action and stays.
    payoff = np.array([[1.0, -1.0], [-2.0, 3.0]])
    succ = [[1, 2], [1, 1], [2, 2]]
    rewards = np.zeros(9)
    for i in range(2):
        for j in range(2):
            rewards[(1 + i) * 3 + 1 + j] = payoff[i, j]
    spec = make_spec(succ, succ, rewards, np.zeros(9), np.ones(9, bool), horizon=1)
    seq = maximin_plan(spec, 0)
    achieved = min(rewards[spec.successor(0, seq[0], j)] for j in range(2))
    assert achieved == pytest.approx(payoff.min(axis=1).max(), abs=1e-12)


def test_maximin_single_safe_action():
    ego = [[1, 2], [1, 1], [2, 2]]  # one env cell
    spec = make_spec(ego, [[0]], [0.0, 1.0, 50.0], np.zeros(3), [True, True, False], horizon=1)
    assert maximin_plan(spec, 0) == (0,)


def test_maximin_raises_when_everything_violates():
    spec = make_spec([[1, 1], [1, 1]], [[0]], [0.0, 0.0], [0.0, 0.0], [True, False], horizon=2)
    with pytest.raises(NoRobustPlanError):
        maximin_plan(spec, 0)


@pytest.mark.parametrize("kwargs, fragment", [
    ({"horizon": 0}, "horizon must be >= 1"), ({"horizon": -1}, "horizon must be >= 1"),
    ({"discount": float("nan")}, "discount"), ({"discount": 0.0}, "discount"),
    ({"discount": 1.5}, "discount"),
])
def test_maximin_rejects_bad_horizon_and_discount(kwargs, fragment):
    spec = make_spec([[1, 1], [1, 1]], [[0]], [0.0, 1.0], [0.0, 0.0], [True, True], horizon=2)
    with pytest.raises(ValueError, match=fragment):
        maximin_plan(spec, 0, **kwargs)


@given(arrays(float, array_shapes(min_dims=1, max_dims=2, max_side=8),
              elements=st.floats(-10, 10)))
@settings(max_examples=200, deadline=None)
def test_project_to_simplex_returns_simplex_point(values):
    out = project_to_simplex(values)
    assert out.shape == values.shape
    assert out.min() >= 0.0
    assert np.allclose(out.sum(axis=-1), 1.0, rtol=0.0, atol=1e-9)
    if values.ndim == 2:
        # Rows are projected independently, with the same arithmetic as a
        # one-row call.
        rows = np.vstack([project_to_simplex(row) for row in values])
        assert np.array_equal(out, rows)


def test_project_to_simplex_fixed_point():
    v = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_to_simplex(v), v, atol=1e-12)
