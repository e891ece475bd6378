import numpy as np
import pytest

from chplanner.game import EGO, ENV
from chplanner.hierarchy import build_hierarchy, hierarchy_content_hash
from chplanner.traffic import (
    ScenarioConfig,
    VehicleGrid,
    VehicleState,
    classify_outcome,
    config_from_dict,
    default_config,
    episode_complete,
    hierarchy_key,
    level0_policy,
    make_scenario,
    vehicle_step,
)
from chplanner import traffic

import hashlib
import itertools
import json
import tracemalloc
from types import SimpleNamespace
import yaml
from dataclasses import asdict, fields, replace
from importlib import resources

from oracles import (
    classify_outcome_oracle,
    episode_complete_oracle,
    grid_closure_loop_reference,
    joint_successor,
    joint_table,
    level0_pick_row_reference,
    level0_row_reference,
    outcome_events_oracle,
)


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


@pytest.mark.parametrize("name", ["intersection", "overtaking", "merging"])
def test_level0_policy_is_bit_identical_to_row_form(name):
    # The anchors are computed action-major; they must equal the
    # (states, actions) row form bit for bit, the softmax variant included.
    config = default_config(name)
    for level0_softmax in (False, True):
        scenario = make_scenario(replace(config, level0_softmax=level0_softmax))
        for player in (EGO, ENV):
            got = level0_policy(scenario, player).probs
            assert got.flags.c_contiguous
            assert got.tobytes() == level0_row_reference(scenario, player).tobytes()


@pytest.mark.parametrize("name", ["intersection", "overtaking"])
@pytest.mark.parametrize("player", [EGO, ENV])
def test_level0_policy_gathers_no_reward_table(built_scenarios, name, player):
    # Each pass gathers the folded grid rewards + discount * values along
    # the moving vehicle's axis, so the anchor holds its action-major values,
    # one more table (argmax's transposed copy, then the returned probs) and
    # a few state vectors (two value grids, the folded grid, the pick and one
    # temporary), but no frozen successor table and no (actions, states)
    # table of gathered rewards.
    scenario = built_scenarios(name)[0]
    nx, n = scenario.spec.num_states, scenario.spec.num_actions(player)
    table = n * nx * 8
    bound = 2 * table + 6 * nx * 8
    tracemalloc.start()
    try:
        level0_policy(scenario, player)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


# sha256 of each packaged scenario's start-up tables, computed with the
# int64 transition table and the flat-index anchors that preceded the grid
# construction: the transition table as "<i8", both reward tables, the safe
# set, and both anchors' probs, deterministic and softmax.  No transition
# table is built any more; the oracle's joint table stands in for it.
STARTUP_TABLE_SHA256 = {
    "intersection": {
        "transition_table": "3a93963c374ebda7dd23097e7d0fa8ffc50f2bfb3065d3337917e7a0490e0979",
        "ego_reward_table": "5b4ba0d8c08cf40399083f42f09c11704a59b70552df6d782097f2e59bf92a8a",
        "env_reward_table": "452c7c45e1af7096387d1ee0d1e5e674894b4e261c9ffdd4fde73f1e5d840a6c",
        "safe_set": "3e418185aa6bb642936db825428ca00d5c7d57226992008c3133e042205e6703",
        "level0_ego": "96b404e4b3ce7470f7af40d73f508bc6f47224b428c72d4924f990c226fe94ce",
        "level0_env": "8696446a485610191ece0f665763425367d0f3a7ec14dd6ed3a42b925fa97f7a",
        "softmax_ego": "907063fb66f3688b2ebdd50994d8afdb078759d7eb471d50c1f45b8c35acae8d",
        "softmax_env": "83064c2fb2c2c967191b96de80af5adee02e519f895aaaa4ebea753c713e0bf4",
    },
    "overtaking": {
        "transition_table": "972efbb1d00c7e09a66c5bcb3e4c05ed63371a570134155f9287596ecd1d41aa",
        "ego_reward_table": "2446dfc2d2f4a2059b133c9326cdb5ca23f458f618340ec0f773c98949477862",
        "env_reward_table": "4b34500b4ecafbbcc6b66ee8fff0401b8466f59c7bd9545b03e73f0f9f8a617a",
        "safe_set": "5c927687c5601223c2c7d5b6e6c00d1c000d9e5afe1779f7ecbd8381eca5b2b7",
        "level0_ego": "0a8091cf8e51fd39014540a6988657d8fcf1b84a0a6b497f4cfb4ee89d727554",
        "level0_env": "fe59c8ea9f2a29dad85314e6a985df72e60446aacb642970246280c55fcb8339",
        "softmax_ego": "bb239dea4b5b6291ccb77bf38c1163230211fa2f211bf95b2a2bb89113c833e5",
        "softmax_env": "1c6237b4be5bdc126aa440418ce7941be6f220a78ecb4fdb000e6503ece0d0ff",
    },
    "merging": {
        "transition_table": "7b455e7dea6510c25689cc3f680c44b9285f6b1326970b8502f214127cf21107",
        "ego_reward_table": "e76a3d40fc83d314e25cae3d2a761270363a1b876a18d501366b710e5ef222af",
        "env_reward_table": "1f7a3669a79e23f32d5317b32368abe960075b767ea959310870334ac3b0ceab",
        "safe_set": "0e49f5d44219dc1c2eb40d25ef8b3fbebd894b33333d75165aff4216ec20ab79",
        "level0_ego": "b2e8d2e365ef765e5690981bf398554c57fccdfad0e94ab6117c07360994c202",
        "level0_env": "986cdc259ba75c1a7c2f40ffc722d10103bea3904cbfb2ec76246f103a18d3cf",
        "softmax_ego": "2fb2a05a69aa825578c06671b34494d37d16d369015c6a8ca5a229295c3c14e6",
        "softmax_env": "1f950a7a789dd1cc34fa494de4e21513ab9e31b1973844bfb67567cf6b83fc2e",
    },
}


@pytest.mark.parametrize("name", sorted(STARTUP_TABLE_SHA256))
def test_startup_tables_are_pinned(built_scenarios, name):
    def sha(arr, dtype):
        return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()

    scenario = built_scenarios(name)[0]
    spec = scenario.spec
    soft = make_scenario(replace(scenario.config, level0_softmax=True))
    assert spec.ego_successors.dtype == spec.env_successors.dtype == np.int32
    got = {
        "transition_table": sha(joint_table(spec), "<i8"),
        "ego_reward_table": sha(spec.ego_reward_table, "<f8"),
        "env_reward_table": sha(spec.env_reward_table, "<f8"),
        "safe_set": sha(spec.safe_set, bool),
        "level0_ego": sha(level0_policy(scenario, EGO).probs, "<f8"),
        "level0_env": sha(level0_policy(scenario, ENV).probs, "<f8"),
        "softmax_ego": sha(level0_policy(soft, EGO).probs, "<f8"),
        "softmax_env": sha(level0_policy(soft, ENV).probs, "<f8"),
    }
    assert got == STARTUP_TABLE_SHA256[name]


@pytest.mark.parametrize("name", ["intersection", "overtaking", "merging"])
def test_make_scenario_allocates_only_its_tables(name):
    # The game keeps the two vehicles' successor tables, no joint table, and
    # the objectives repeat or tile a vehicle's cell rewards: the peak is the
    # returned arrays plus under two state vectors, with no (states, actions)
    # table of gathered successors.
    config = default_config(name)
    tracemalloc.start()
    try:
        scenario = make_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    spec = scenario.spec
    kept = sum(arr.nbytes for arr in (
        spec.ego_successors, spec.env_successors, spec.ego_reward_table, spec.env_reward_table, spec.safe_set,
        scenario.ego_objective, scenario.env_objective, scenario.complete,
        *scenario.events.values(),
    ))
    assert peak < kept + 2 * spec.num_states * 8, (peak, kept)


@pytest.mark.parametrize("n, preferred", [(1, 0), (3, 1), (3, 0), (9, 4), (9, 8)])
def test_level0_pick_matches_row_argmax_with_coast_override(n, preferred):
    rng = np.random.default_rng(n * 10 + preferred)
    q = rng.integers(-3, 3, size=(300, n)).astype(float)  # many natural ties
    rows = np.arange(300)
    others = [a for a in range(n) if a != preferred]
    if others:
        # Coast tied with another action at the maximum.
        q[rows[:50], preferred] = q[rows[:50]].max(axis=1) + 1.0
        q[rows[:50], rng.choice(others, size=50)] = q[rows[:50], preferred]
    if len(others) >= 2:
        # Two non-coast actions tied above coast.
        a, b = rng.choice(others, size=2, replace=False)
        top = q[rows[50:100]].max(axis=1) + 1.0
        q[rows[50:100], a] = top
        q[rows[50:100], b] = top
    got = traffic._level0_pick(np.ascontiguousarray(q.T), q.max(axis=1), preferred)
    assert got.tobytes() == level0_pick_row_reference(q, preferred).tobytes()


# A 10,000-state intersection, and an overtaking game on the same grids
# whose ego may change lanes (the intersection admits no lane change).
SMALL_INTERSECTION = replace(
    default_config("intersection"), pos_step=0.5, ego_pos_min=-8.0, ego_pos_max=8.0,
    ego_v_max=4.0, ego_start=(-4.0, 2.0, 0), human_pos_min=-8.0, human_pos_max=8.0,
    human_v_max=4.0, human_start=(-4.0, 2.0, 0), horizon=2,
)
SMALL_OVERTAKING = replace(SMALL_INTERSECTION, name="overtaking", ego_lane_change=True)

# One valid change per ScenarioConfig field, made on the small intersection
# except for the lane-change flags.
PERTURBED = {
    "name": "overtaking",
    "dt": 2.0,
    "car_length": 3.0,
    "lane_width": 3.0,
    "accel_set": (-2.0, 0.0),
    "v_step": 1.0,
    "pos_step": 1.0,
    "ego_pos_min": -9.0,
    "ego_pos_max": 9.0,
    "ego_v_max": 6.0,
    "ego_lane_change": False,
    "ego_start": (-3.0, 2.0, 0),
    "human_pos_min": -9.0,
    "human_pos_max": 9.0,
    "human_v_max": 6.0,
    "human_lane_change": True,
    "human_start": (-3.0, 2.0, 0),
    "horizon": 3,
    "epsilon": 0.05,
    "discount": 0.8,
    "on_infeasible": "abort",
    "levels": (1, 3),
    "level_prior": (0.3, 0.7),
    "collision_penalty": -500.0,
    "softmax_temperature": 0.5,
    "level0_softmax": True,
    "step_cap": 10,
    "seed": 5,
}

# The fields no built table reads: they shape episodes only.
EPISODE_ONLY_FIELDS = {
    "ego_start", "human_start", "epsilon", "on_infeasible", "level_prior", "step_cap", "seed",
}


def _tables_and_key(config):
    """Both anchors' and every env table's shape and bytes, and the content hash."""
    scenario = make_scenario(config)
    anchors = (level0_policy(scenario, EGO), level0_policy(scenario, ENV))
    built = build_hierarchy(scenario.spec, config.k_max, *anchors, config.softmax_temperature)
    tables = tuple(
        (policy.probs.shape, policy.probs.tobytes()) for policy in (*anchors, *built.env_policies)
    )
    return tables, hierarchy_content_hash(*hierarchy_key(scenario))


def test_every_config_field_is_perturbed():
    assert set(PERTURBED) == {item.name for item in fields(ScenarioConfig)}


@pytest.mark.parametrize("field", sorted(PERTURBED))
def test_a_field_that_moves_a_built_table_moves_the_key(field):
    # The cache is keyed on the game's factors, not on its tables: every
    # change that reaches an anchor or an env table must reach the key, and
    # the episode-only fields reach neither, so their builds share a cache.
    base = SMALL_OVERTAKING if field.endswith("lane_change") else SMALL_INTERSECTION
    tables, key = _tables_and_key(base)
    new_tables, new_key = _tables_and_key(replace(base, **{field: PERTURBED[field]}))
    assert (new_tables == tables) == (field in EPISODE_ONLY_FIELDS)
    assert (new_key == key) == (field in EPISODE_ONLY_FIELDS)


def test_each_factor_of_the_game_is_in_the_key():
    scenario = make_scenario(SMALL_INTERSECTION)
    n_e, n_h = scenario.ego_grid.num_codes, scenario.human_grid.num_codes

    def successors(table):
        table = table.copy()
        table[3, 0] = (table[3, 0] + 1) % len(table)
        return table

    def ego_cell_objective(joint):
        grid = joint.reshape(n_e, n_h).copy()
        grid[5] += 1.0
        return grid.ravel()

    def human_cell_objective(joint):
        grid = joint.reshape(n_e, n_h).copy()
        grid[:, 5] += 1.0
        return grid.ravel()

    safe = scenario.spec.safe_set.copy()
    safe[np.flatnonzero(safe)[0]] = False
    variants = [
        replace(scenario, spec=replace(scenario.spec, ego_successors=successors(
            scenario.spec.ego_successors))),
        replace(scenario, spec=replace(scenario.spec, env_successors=successors(
            scenario.spec.env_successors))),
        replace(scenario, ego_objective=ego_cell_objective(scenario.ego_objective)),
        replace(scenario, env_objective=human_cell_objective(scenario.env_objective)),
        replace(scenario, spec=replace(scenario.spec, safe_set=safe)),
        replace(scenario, config=replace(scenario.config, collision_penalty=-999.0)),
        # The coast action moves to index 0.
        replace(scenario, ego_actions=scenario.ego_actions[1:] + scenario.ego_actions[:1]),
        replace(scenario, env_actions=scenario.env_actions[1:] + scenario.env_actions[:1]),
    ]
    keys = {hierarchy_content_hash(*hierarchy_key(s)) for s in (scenario, *variants)}
    assert len(keys) == len(variants) + 1


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


def _closure_config(**overrides):
    """The fields ``ScenarioConfig._check_grid_closure`` reads, overtaking's by default."""
    config = default_config("overtaking")
    fields = {name: getattr(config, name) for name in
              ("dt", "v_step", "pos_step", "accel_set", "ego_v_max", "human_v_max")}
    return SimpleNamespace(**{**fields, **overrides})


def _closure_error(config) -> str | None:
    try:
        ScenarioConfig._check_grid_closure(config)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("overrides", [
    {},
    {"accel_set": (-3.0, 0.0, 3.0)},
    {"pos_step": 2.0},
    {"dt": 0.5},
    {"dt": 0.75, "accel_set": (-2.0, 0.0, 2.0)},
    {"ego_v_max": 9.0, "human_v_max": 12.0, "accel_set": (-2.0, 0.0, 2.0)},
    {"ego_v_max": 12.0, "human_v_max": 8.0, "accel_set": (-1.0, 0.0, 2.0)},
    {"v_step": 0.5, "pos_step": 0.25, "accel_set": (-0.75, 0.0, 1.0)},
    {"accel_set": (0.0, 7.0), "ego_v_max": 6.0, "human_v_max": 4.0},
    # Speeds above the lower cap are not that vehicle's: counted, they would
    # fail, since v = 5 coasting under a cap of 4 would move 4.5.
    {"dt": 1.0, "v_step": 1.0, "pos_step": 1.0, "accel_set": (0.0,), "ego_v_max": 4.0,
     "human_v_max": 8.0},
])
def test_grid_closure_names_the_loops_first_error(overrides):
    config = _closure_config(**overrides)
    assert _closure_error(config) == grid_closure_loop_reference(config)


def test_grid_closure_matches_the_loop_on_random_grids():
    rng = np.random.default_rng(5)
    raised = 0
    for _ in range(200):
        v_step = float(rng.choice([0.5, 1.0, 2.0]))
        config = _closure_config(
            dt=float(rng.choice([0.25, 0.5, 1.0, 1.5])),
            v_step=v_step,
            pos_step=float(rng.choice([0.25, 0.5, 1.0, 2.0])),
            accel_set=(0.0, *rng.choice([-3.0, -2.0, -1.0, -0.5, 1.0, 2.0, 4.0], size=2)),
            ego_v_max=v_step * int(rng.integers(1, 13)),
            human_v_max=v_step * int(rng.integers(1, 13)),
        )
        want = grid_closure_loop_reference(config)
        raised += want is not None
        assert _closure_error(config) == want
    assert 0 < raised < 200  # both outcomes are exercised


def test_grid_closure_checks_a_fine_speed_grid_in_one_pass():
    # About 10**5 speeds.  A capped speed moves (v + v_max) / 2, half a step
    # off the coarse position grid for every other speed within 2 of the cap,
    # so the first error sits near the top of the speed axis.
    fine = _closure_config(dt=1.0, v_step=1e-4, pos_step=5e-5, accel_set=(0.0, 2.0),
                           ego_v_max=10.0, human_v_max=10.0)
    assert _closure_error(fine) is None
    coarse = SimpleNamespace(**{**vars(fine), "pos_step": 1e-4})
    message = _closure_error(coarse)
    assert message is not None and "v=8.0001, a=2.0 gives displacement" in message
    assert message == grid_closure_loop_reference(coarse)


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
        # Oversized problems, caught by arithmetic before anything is built:
        # 9^8 ego action sequences, level 40, about ten times MAX_STATES and
        # episodes of up to a billion steps.
        ("horizon", 8), ("levels", (1, 40)), ("ego_pos_max", 10_000.0),
        ("step_cap", 10**9), ("step_cap", traffic.MAX_STEP_CAP + 1),
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


def test_config_accepts_step_cap_up_to_its_bound():
    config = replace(default_config("overtaking"), step_cap=traffic.MAX_STEP_CAP)
    assert config.step_cap == traffic.MAX_STEP_CAP


def test_config_bounds_the_human_action_sequences():
    # 3 ego actions but 9 human ones: 9^8 human sequences would make each env
    # rung enumerate tens of millions of backups, so the human's count is
    # bounded like the ego's.
    with pytest.raises(ValueError, match="9\\^8 human action sequences"):
        replace(default_config("overtaking"), ego_lane_change=False,
                human_lane_change=True, horizon=8)


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
    spec = scenario.spec
    rng = np.random.default_rng(2026)
    kinds: dict[str, set] = {}
    for _ in range(1000):
        state = (scenario.initial_state if rng.random() < 0.5
                 else int(rng.integers(scenario.spec.num_states)))
        walk = [state]
        for _ in range(int(rng.integers(1, 30))):
            state = joint_successor(spec, state, int(rng.integers(spec.num_ego_actions)),
                                    int(rng.integers(spec.num_env_actions)))
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
