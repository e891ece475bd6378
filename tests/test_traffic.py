import numpy as np
import pytest

from chplanner.game import EGO, ENV
from chplanner.traffic import (
    ScenarioConfig,
    VehicleGrid,
    VehicleState,
    classify_outcome,
    config_from_dict,
    default_config,
    episode_complete,
    level0_policy,
    make_scenario,
    vehicle_step,
)
from chplanner import traffic

import itertools
import json
import yaml
from dataclasses import asdict, replace
from importlib import resources

from oracles import classify_outcome_oracle, episode_complete_oracle, outcome_events_oracle


def test_vehicle_step_textbook_kinematics():
    out = vehicle_step(VehicleState(0.0, 1.8, 10.0), accel=2.0, lane_cmd="keep")
    assert out == VehicleState(11.0, 1.8, 12.0)


def test_vehicle_step_rest_stays_at_rest():
    out = vehicle_step(VehicleState(5.0, 1.8, 0.0), accel=0.0, lane_cmd="keep")
    assert out == VehicleState(5.0, 1.8, 0.0)


def test_vehicle_step_instantaneous_lane_change():
    out = vehicle_step(
        VehicleState(7.0, 1.8, 4.0), accel=0.0, lane_cmd="left",
        lane_centers=(1.8, 5.4),
    )
    assert out.s_y == 5.4
    assert out.s_x == 11.0  # longitudinal update applies in the same step


def test_vehicle_step_speed_clamps_keep_position_consistent():
    # Braking at rest: no backward drift.
    out = vehicle_step(VehicleState(5.0, 1.8, 0.0), accel=-2.0, lane_cmd="keep")
    assert out == VehicleState(5.0, 1.8, 0.0)
    # Accelerating at the cap: position advances at the capped speed.
    out = vehicle_step(VehicleState(0.0, 1.8, 12.0), accel=2.0, lane_cmd="keep", v_max=12.0)
    assert out == VehicleState(12.0, 1.8, 12.0)


def test_vehicle_step_rejects_bad_lane_commands():
    with pytest.raises(ValueError):
        vehicle_step(VehicleState(0.0, 1.8, 4.0), 0.0, "up")
    with pytest.raises(ValueError):
        vehicle_step(VehicleState(0.0, 1.8, 4.0), 0.0, "left", lane_centers=(1.8,))
    with pytest.raises(ValueError):
        vehicle_step(VehicleState(0.0, 2.0, 4.0), 0.0, "keep", lane_centers=(1.8,))


@pytest.mark.parametrize("name", ["intersection", "overtaking", "merging"])
def test_grid_closure_no_rounding_drift(name):
    """Every grid state lands exactly on a grid node under every action."""
    scenario = make_scenario(default_config(name))
    for grid, actions, cap in (
        (scenario.ego_grid, scenario.ego_actions, scenario.config.ego_v_max),
        (scenario.human_grid, scenario.env_actions, scenario.config.human_v_max),
    ):
        for code in range(0, grid.num_cells, max(1, grid.num_cells // 500)):
            state = grid.decode(code)
            for accel, cmd in actions:
                centers = grid.lane_centers
                idx = centers.index(state.s_y)
                effective = cmd
                if cmd == "left" and idx + 1 >= len(centers):
                    effective = "keep"
                if cmd == "right" and idx == 0:
                    effective = "keep"
                nxt = vehicle_step(
                    state, accel, effective,
                    dt=scenario.config.dt, v_max=cap, lane_centers=centers,
                )
                if grid.pos_min <= nxt.s_x <= grid.pos_max:
                    grid.encode(nxt)  # raises if off-grid


def test_intersection_safe_set_euclidean_margin():
    scenario = make_scenario(default_config("intersection"))
    # World positions: ego (6, -1.8), human (1.8, 3): 6.38 m apart, safe at
    # the 1.2 * 5 = 6 m margin.
    ego = VehicleState(6.0, -1.8, 0.0)
    assert scenario.is_safe(scenario.encode(ego, VehicleState(3.0, 1.8, 0.0)))
    # Human at (1.8, 2): 5.66 m apart, unsafe.
    assert not scenario.is_safe(scenario.encode(ego, VehicleState(2.0, 1.8, 0.0)))
    # Cross-check the predicate against an independent distance computation.
    rng = np.random.default_rng(0)
    for _ in range(50):
        e = VehicleState(float(rng.integers(-20, 49)), -1.8, 0.0)
        h = VehicleState(float(rng.integers(-20, 49)), 1.8, 0.0)
        dist = np.hypot(e.s_x - 1.8, -1.8 - h.s_x)
        assert scenario.is_safe(scenario.encode(e, h)) == (dist >= 6.0)


def test_overtaking_safe_set_requires_gap_or_lane():
    scenario = make_scenario(default_config("overtaking"))
    # Same lane, 8 m gap: 8 >= 1.6 * 5, safe.
    assert scenario.is_safe(
        scenario.encode(VehicleState(20.0, 1.8, 0.0), VehicleState(28.0, 1.8, 0.0))
    )
    # Same lane, 6 m gap: unsafe (grid step is 2 m).
    assert not scenario.is_safe(
        scenario.encode(VehicleState(22.0, 1.8, 0.0), VehicleState(28.0, 1.8, 0.0))
    )
    # Different lanes, no longitudinal gap: safe.
    assert scenario.is_safe(
        scenario.encode(VehicleState(28.0, 5.4, 0.0), VehicleState(28.0, 1.8, 0.0))
    )


def test_merging_section_clause():
    scenario = make_scenario(default_config("merging"))
    human = VehicleState(120.0, 5.4, 0.0)  # far away, collision clause holds
    # Inside the section: either lane is fine.
    assert scenario.is_safe(scenario.encode(VehicleState(50.0, 1.8, 0.0), human))
    assert scenario.is_safe(scenario.encode(VehicleState(50.0, 5.4, 0.0), human))
    # Past the section end the ego must be in the left lane.
    human_far = VehicleState(52.0, 5.4, 0.0)
    assert not scenario.is_safe(scenario.encode(VehicleState(102.0, 1.8, 0.0), human_far))
    assert scenario.is_safe(scenario.encode(VehicleState(102.0, 5.4, 0.0), human_far))
    # At 100 m exactly the right lane is still legal.
    assert scenario.is_safe(scenario.encode(VehicleState(100.0, 1.8, 0.0), human))


def test_safe_sets_symmetric_in_positions_except_merging_section():
    # The collision clauses depend only on |dx|, |dy|; swapping the two
    # vehicles' world positions leaves them unchanged.
    inter = make_scenario(default_config("intersection"))
    a = inter.encode(VehicleState(-2.0, -1.8, 0.0), VehicleState(-2.0, 1.8, 0.0))
    # Swap: ego takes the human's world point (x=1.8 -> ego frame pos 1.8?);
    # mirrored pair with identical |dx|, |dy|:
    b = inter.encode(VehicleState(1.8 + (-2.0 - 1.8), -1.8, 0.0),
                     VehicleState(-1.8 + (-2.0 + 1.8), 1.8, 0.0))
    assert inter.is_safe(a) == inter.is_safe(b)

    over = make_scenario(default_config("overtaking"))
    a = over.encode(VehicleState(20.0, 1.8, 0.0), VehicleState(26.0, 1.8, 0.0))
    b = over.encode(VehicleState(26.0, 1.8, 0.0), VehicleState(20.0, 1.8, 0.0))
    assert over.is_safe(a) == over.is_safe(b)

    merge = make_scenario(default_config("merging"))
    # Collision clause symmetric; the section clause reads the ego only.
    a = merge.encode(VehicleState(104.0, 1.8, 0.0), VehicleState(40.0, 5.4, 0.0))
    b = merge.encode(VehicleState(40.0, 1.8, 0.0), VehicleState(104.0, 5.4, 0.0))
    assert not merge.is_safe(a)  # ego past 100 in the right lane
    assert merge.is_safe(b)  # human position never triggers the clause


def test_reward_monotonicity():
    inter = make_scenario(default_config("intersection"))
    by_pos = {}
    for code in range(inter.ego_grid.num_cells):
        s = inter.ego_grid.decode(code)
        joint = inter.encode(s, VehicleState(-20.0, 1.8, 0.0))
        by_pos.setdefault(s.s_x, inter.ego_objective[joint])
        assert inter.ego_objective[joint] == by_pos[s.s_x]
    xs = sorted(by_pos)
    assert all(by_pos[a] < by_pos[b] for a, b in zip(xs, xs[1:]))

    merge = make_scenario(default_config("merging"))
    w = merge.config.lane_width
    right = merge.encode(VehicleState(60.0, w / 2, 8.0), VehicleState(40.0, 3 * w / 2, 8.0))
    left = merge.encode(VehicleState(60.0, 3 * w / 2, 8.0), VehicleState(40.0, 3 * w / 2, 8.0))
    assert merge.ego_objective[left] - merge.ego_objective[right] == pytest.approx(10.0 * w)


def test_default_epsilon_encodes_99_percent_confidence():
    for name in ("intersection", "overtaking", "merging"):
        assert default_config(name).epsilon == 0.01


def _frozen_best_first_actions(scenario, player, state):
    """Exhaustive single-agent search against a frozen other vehicle."""
    import itertools

    config = scenario.config
    n_h = scenario.human_grid.num_codes
    if player == EGO:
        from chplanner.traffic import _vehicle_successors

        succ = _vehicle_successors(scenario.ego_grid, scenario.ego_actions, config.dt)
        frozen = lambda x, u: succ[x // n_h, u] * n_h + (x % n_h)
        rewards = scenario.spec.ego_reward_table
        n_actions = len(scenario.ego_actions)
    else:
        from chplanner.traffic import _vehicle_successors

        succ = _vehicle_successors(scenario.human_grid, scenario.env_actions, config.dt)
        frozen = lambda x, u: (x // n_h) * n_h + succ[x % n_h, u]
        rewards = scenario.spec.env_reward_table
        n_actions = len(scenario.env_actions)

    best = -np.inf
    best_first = set()
    for seq in itertools.product(range(n_actions), repeat=config.horizon):
        x, total, disc = state, 0.0, 1.0
        for u in seq:
            x = int(frozen(x, u))
            total += disc * float(rewards[x])
            disc *= config.discount
        if total > best + 1e-9:
            best, best_first = total, {seq[0]}
        elif total >= best - 1e-9:
            best_first.add(seq[0])
    return best_first


def test_level0_accelerates_on_open_road():
    scenario = make_scenario(default_config("intersection"))
    ego = VehicleState(-12.0, -1.8, 4.0)
    human = VehicleState(40.0, 1.8, 0.0)  # far past the conflict
    state = scenario.encode(ego, human)
    policy = level0_policy(scenario, EGO)
    pick = int(policy.probs[state].argmax())
    assert scenario.ego_actions[pick][0] == max(scenario.config.accel_set)
    assert pick in _frozen_best_first_actions(scenario, EGO, state)


def test_level0_never_collides_with_frozen_obstacle():
    scenario = make_scenario(default_config("overtaking"))
    policy = level0_policy(scenario, EGO)
    rng = np.random.default_rng(0)
    n_h = scenario.human_grid.num_codes
    from chplanner.traffic import _vehicle_successors

    succ = _vehicle_successors(scenario.ego_grid, scenario.ego_actions, scenario.config.dt)
    for _ in range(200):
        ego = VehicleState(
            s_x=float(rng.choice(scenario.ego_grid.positions[:-10])),
            s_y=float(rng.choice(scenario.ego_grid.lane_centers)),
            v=float(rng.choice(scenario.ego_grid.speeds)),
        )
        human = VehicleState(
            s_x=min(ego.s_x + float(rng.choice([6.0, 8.0, 12.0, 20.0])),
                    scenario.human_grid.pos_max),
            s_y=1.8,
            v=0.0,
        )
        state = scenario.encode(ego, human)
        if not scenario.is_safe(state):
            continue
        pick = int(policy.probs[state].argmax())
        nxt = int(succ[state // n_h, pick] * n_h + state % n_h)
        assert scenario.is_safe(nxt), (ego, human, scenario.ego_actions[pick])


def test_level0_brakes_at_occupied_conflict_cell():
    scenario = make_scenario(default_config("intersection"))
    # The other car sits frozen next to the crossing point; braking is the
    # only first action whose continuations stay clear of it.
    ego = VehicleState(-10.0, -1.8, 4.0)
    human = VehicleState(-2.0, 1.8, 0.0)  # world (1.8, -2.0)
    state = scenario.encode(ego, human)
    policy = level0_policy(scenario, EGO)
    pick = int(policy.probs[state].argmax())
    assert scenario.ego_actions[pick][0] == min(scenario.config.accel_set)
    assert pick in _frozen_best_first_actions(scenario, EGO, state)


def test_level0_policy_is_one_hot_and_softmax_flag_works():
    config = default_config("intersection")
    scenario = make_scenario(config)
    hard = level0_policy(scenario, ENV)
    assert set(np.unique(hard.probs)) == {0.0, 1.0}
    soft_scenario = make_scenario(replace(config, level0_softmax=True))
    soft = level0_policy(soft_scenario, ENV)
    # Graded (non-degenerate) action probabilities, not an argmax table;
    # entries may still underflow to zero next to a -1000 penalty.
    assert ((soft.probs > 0.0).sum(axis=1) > 1).any()
    assert set(np.unique(soft.probs)) != {0.0, 1.0}
    assert soft.level == 0


def _config_tree(name):
    text = resources.files("chplanner.configs").joinpath(f"{name}.yaml").read_text()
    return yaml.safe_load(text)


def test_config_rejects_bad_epsilon():
    tree = _config_tree("intersection")
    tree["planning"]["epsilon"] = 1.5
    with pytest.raises(ValueError, match=r"epsilon out of \[0,1\]"):
        config_from_dict(tree)


def test_config_rejects_grid_closure_violation():
    tree = _config_tree("intersection")
    tree["kinematics"]["accel_set"] = [-3.0, 0.0, 3.0]
    with pytest.raises(ValueError, match="grid closure"):
        config_from_dict(tree)


def test_config_rejects_off_grid_start():
    tree = _config_tree("intersection")
    tree["ego"]["start"]["pos"] = -12.5
    with pytest.raises(ValueError, match="ego_start"):
        config_from_dict(tree)
    # A replaced start is checked too: lane -1 must not wrap to the passing lane.
    with pytest.raises(ValueError, match="ego_start lane index -1"):
        replace(default_config("overtaking"), ego_start=(0.0, 8.0, -1))
    with pytest.raises(ValueError, match="human_start"):
        replace(default_config("overtaking"), human_start=(16.0, 7.0, 0))


def test_config_rejects_unknown_schema_version():
    tree = _config_tree("intersection")
    tree["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        config_from_dict(tree)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("name", "roundabout"), ("epsilon", -0.1), ("discount", 0.0), ("horizon", 0),
        ("step_cap", 0), ("seed", -1), ("dt", 0.0), ("pos_step", -2.0), ("v_step", 0.0),
        ("car_length", -5.0), ("car_length", float("inf")), ("lane_width", 0.0),
        ("lane_width", float("nan")), ("on_infeasible", "retry"), ("levels", (2, 1)),
        ("level_prior", (0.7, 0.7)), ("collision_penalty", float("-inf")),
        ("softmax_temperature", 0.0), ("softmax_temperature", float("nan")),
        ("accel_set", (-4.0, 4.0)), ("ego_v_max", 10.0), ("human_pos_max", 15.0),
        ("ego_start", (1.0, 8.0, 0)), ("horizon", 2.5), ("horizon", True),
        ("step_cap", 2.5), ("seed", 1.5), ("levels", (1.0, 2.0)),
        ("ego_v_max", float("inf")), ("ego_pos_max", float("inf")),
        ("human_pos_min", float("-inf")), ("level_prior", (float("nan"), float("nan"))),
        ("dt", float("nan")), ("dt", float("inf")), ("accel_set", (0.0, float("nan"))),
        ("ego_start", (float("nan"), 8.0, 0)), ("epsilon", float("nan")),
    ],
)
def test_config_checks_itself_at_construction(field, bad):
    # A direct ScenarioConfig(...) and dataclasses.replace run the checks a
    # parsed config gets, and the error names the offending field.
    config = default_config("overtaking")
    with pytest.raises(ValueError, match=field):
        replace(config, **{field: bad})
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{**asdict(config), field: bad})


def test_intersection_config_rejects_lane_changes():
    with pytest.raises(ValueError, match="ego_lane_change"):
        replace(default_config("intersection"), ego_lane_change=True)


def _leaf_paths(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


@pytest.mark.parametrize("name", ["intersection", "overtaking", "merging"])
def test_packaged_configs_hold_only_parsed_keys(name, monkeypatch):
    # Every leaf key of a packaged config is read by config_from_dict, so a
    # key whose value no code reads cannot linger in the shipped files.
    read = set()
    cfg_get = traffic._cfg_get

    def spy(tree, path, *args):
        read.add(path)
        return cfg_get(tree, path, *args)

    monkeypatch.setattr(traffic, "_cfg_get", spy)
    tree = _config_tree(name)
    config_from_dict(tree)
    assert set(_leaf_paths(tree)) - read == set()


def test_grid_decode_inverts_encode_on_every_cell():
    grid = VehicleGrid(
        pos_min=-4.0, pos_max=6.0, pos_step=2.5, v_max=3.0, v_step=1.5,
        lane_centers=(1.8, 5.4), heading="east",
    )
    assert grid.num_cells == 5 * 3 * 2
    assert grid.positions is grid.positions  # computed once per grid
    seen = set()
    for pos in grid.positions:
        for v in grid.speeds:
            for lane in grid.lane_centers:
                state = VehicleState(s_x=float(pos), s_y=lane, v=float(v))
                code = grid.encode(state)
                assert grid.decode(code) == state
                seen.add(code)
    assert seen == set(range(grid.num_cells))
    assert grid.decode(grid.done_code) is None


@pytest.mark.parametrize("name", ["intersection", "overtaking", "merging"])
def test_state_masks_match_scalar_oracle_on_every_state(name):
    scenario = make_scenario(default_config(name))
    config = scenario.config
    egos = [scenario.ego_grid.decode(c) for c in range(scenario.ego_grid.num_codes)]
    humans = [scenario.human_grid.decode(c) for c in range(scenario.human_grid.num_codes)]
    n = scenario.spec.num_states
    complete = np.empty(n, dtype=bool)
    expected = {event: np.zeros(n, dtype=bool) for event in scenario.events}
    defined = {event: np.zeros(n, dtype=bool) for event in scenario.events}
    # product() walks the pairs in joint-state order: ego code major.
    for state, (ego, human) in enumerate(itertools.product(egos, humans)):
        complete[state] = episode_complete_oracle(config, ego, human)
        events = outcome_events_oracle(config, ego, human)
        assert events.keys() == expected.keys()
        for event, value in events.items():
            if value is not None:
                expected[event][state] = value
                defined[event][state] = True
    assert np.array_equal(scenario.complete, complete)
    for event, mask in scenario.events.items():
        assert mask.dtype == bool and mask.shape == (n,)
        assert np.array_equal(mask[defined[event]], expected[event][defined[event]]), event
    for state in (scenario.initial_state, n - 1, int(np.flatnonzero(complete)[0])):
        assert episode_complete(scenario, state) is bool(complete[state])


@pytest.mark.parametrize("name", ["intersection", "overtaking", "merging"])
def test_classify_outcome_matches_oracle_on_random_walks(name):
    scenario = make_scenario(default_config(name))
    table = scenario.spec.transition_table
    rng = np.random.default_rng(2026)
    kinds: dict[str, set] = {}
    for _ in range(1000):
        state = (scenario.initial_state if rng.random() < 0.5
                 else int(rng.integers(scenario.spec.num_states)))
        walk = [state]
        for _ in range(int(rng.integers(1, 30))):
            state = int(table[state, rng.integers(table.shape[1]), rng.integers(table.shape[2])])
            walk.append(state)
        got = classify_outcome(scenario, walk)
        want = classify_outcome_oracle(scenario, walk)
        # JSON tells True from 1 and rejects numpy scalars.
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        for key, value in want.items():
            kinds.setdefault(key, set()).add(
                repr(value) if isinstance(value, bool) else type(value).__name__
            )
    # Every flag took both values, and every event both happened and did not.
    for key, seen in kinds.items():
        if key != "scenario":
            assert {"True", "False"} <= seen or {"int", "NoneType"} <= seen, (key, seen)
