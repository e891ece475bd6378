import re
import tracemalloc

import numpy as np
import pytest

from chplanner.game import EGO, ENV, GameSpec, PolicyTable, check_rows, step
from chplanner.traffic import default_config, make_scenario, vehicle_step

from conftest import make_spec
from oracles import check_rows_scan_reference, joint_successor, random_game


def test_validate_well_formed_game_passes():
    # GameSpec checks its contract at construction, so a well-formed spec
    # builds and keeps its tables as given.
    spec = make_spec(
        ego=np.zeros((2, 2), dtype=int),
        env=np.zeros((1, 2), dtype=int),
        r1=[0.0, 1.0],
        r2=[1.0, 0.0],
        safe=[True, True],
    )
    assert (spec.num_states, spec.num_ego_actions, spec.num_env_actions) == (2, 2, 2)
    assert spec.grid == (2, 1)
    assert spec.discount == 0.9 and spec.horizon == 3


def test_state_layout_is_ego_major():
    # x = e * n_h + h over the (n_e, n_h) grid, and T composes the two moves.
    rng = np.random.default_rng(5)
    spec, table, *_ = random_game(rng, n_e=3, n_h=4, nu1=2, nu2=3)
    assert spec.grid == (3, 4) and spec.num_states == 12
    loops = [[[joint_successor(spec, x, u1, u2) for u2 in range(3)] for u1 in range(2)]
             for x in range(12)]
    assert table.tolist() == loops
    for x, u1, u2 in np.ndindex(table.shape):
        assert spec.successor(x, u1, u2) == table[x, u1, u2]
        e, h = divmod(x, 4)
        assert table[x, u1, u2] == spec.ego_successors[e, u1] * 4 + spec.env_successors[h, u2]


def test_memo_keyed_arrays_are_read_only():
    # planner.optimize keys its plan memo on the safe set, the ego objective
    # and the kernel, which reads its rows from the two successor tables.
    # They are held as int32, so only an int32 table is taken over; any
    # other is range-checked and copied.
    ego = np.zeros((2, 2), dtype=np.int32)
    env = np.zeros((1, 2), dtype=np.int32)
    safe = np.array([True, True])
    spec = make_spec(ego, env, np.array([0.0, 1.0]), [1.0, 0.0], safe)
    assert spec.safe_set is safe  # taken over, not copied
    assert spec.ego_successors is ego and spec.env_successors is env
    for arr, value in ((spec.safe_set, False), (ego, 1), (env, 0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = value
    assert spec.ego_reward_table.flags.writeable

    pair = np.array([[True, False]])
    spec = make_spec(ego, env, [0.0, 1.0], [1.0, 0.0], pair.ravel())
    pair[0, 0] = False  # a view is copied, so a write to its base cannot reach it
    assert spec.safe_set.tolist() == [True, False]

    scenario = make_scenario(default_config("merging"))
    with pytest.raises(ValueError, match="read-only"):
        scenario.ego_objective[0] = 0.0
    assert scenario.env_objective.flags.writeable


def test_spec_range_checks_the_table_before_narrowing_it():
    # The tables are held as int32.  An int64 entry of 2**32 + 1 would wrap
    # to 1, a valid cell, if it were cast first; it is checked in its own
    # dtype, and the error names the table and the (cell, action).
    for name, action in (("ego_successors", "u1"), ("env_successors", "u2")):
        table = np.zeros((2, 3), dtype=np.int64)
        table[1, 2] = 2**32 + 1
        assert table.astype(np.int32)[1, 2] == 1
        other = np.zeros((1, 1), dtype=np.int64)
        ego, env = (table, other) if name == "ego_successors" else (other, table)
        with pytest.raises(ValueError, match=rf"{name} out of range \[0, 2\) at "
                           rf"\(cell=1, {action}=2\): -> 4294967297"):
            make_spec(ego, env, [0.0, 0.0], [0.0, 0.0], [True, True])
        table[1, 2] = 1
        spec = make_spec(ego, env, [0.0, 0.0], [0.0, 0.0], [True, True])
        held = getattr(spec, name)
        assert held.dtype == np.int32
        assert held.tolist() == table.tolist()


def test_spec_rejects_2_to_the_31_states_by_shape():
    # Zero-stride views of 2**16 ego and 2**15 env cells hold 8 bytes each;
    # their 2**31 states are rejected from the shapes before any cast or
    # range check reads the tables.
    ego = np.broadcast_to(np.zeros((1, 1), dtype=np.int64), (2**16, 1))
    env = np.broadcast_to(np.zeros((1, 1), dtype=np.int64), (2**15, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"65536 x 32768 = 2147483648 states"):
            make_spec(ego, env, [0.0], [0.0], [True])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_spec_rejects_mismatched_table_shapes():
    # Construction checks the whole contract, so every malformed spec fails
    # with a ValueError that names the field.
    ego = np.zeros((2, 2), dtype=int)
    env = np.zeros((1, 2), dtype=int)
    ok = dict(ego_successors=ego, env_successors=env, ego_reward_table=[0.0, 1.0],
              env_reward_table=[1.0, 0.0], safe_set=[True, True], discount=0.9, horizon=3)
    spec = GameSpec(**ok)
    assert (spec.num_states, spec.num_ego_actions, spec.num_env_actions) == (2, 2, 2)
    out_of_range = ego.copy()
    out_of_range[1, 0] = 2  # index n_e
    negative = env.copy()
    negative[0, 1] = -1
    for field, bad, fragment in (
        ("ego_successors", np.zeros((2, 2, 2), int), r"must be 2-D \(cells x actions\)"),
        ("env_successors", np.zeros(2, int), r"must be 2-D"),
        ("env_reward_table", [0.0], None),
        ("safe_set", [True, True, False], None),
        ("ego_successors", np.zeros((0, 2), int), "at least one cell and one action"),
        ("ego_successors", np.zeros((2, 0), int), "at least one cell and one action"),
        ("env_successors", np.zeros((0, 2), int), "at least one cell and one action"),
        ("env_successors", np.zeros((1, 0), int), "at least one cell and one action"),
        ("ego_successors", out_of_range, r"\[0, 2\) at \(cell=1, u1=0\): -> 2"),
        ("env_successors", negative, r"\[0, 1\) at \(cell=0, u2=1\): -> -1"),
        ("discount", 0.0, r"discount out of \(0,1\]"),
        ("discount", 1.5, None),
        ("discount", float("nan"), None),
        ("horizon", 0, "horizon must be >= 1"),
        ("ego_reward_table", [0.0, np.inf], "ego_reward_table not finite at state 1"),
        ("env_reward_table", [np.nan, 0.0], "env_reward_table not finite at state 0"),
    ):
        with pytest.raises(ValueError, match=field) as err:
            GameSpec(**{**ok, field: bad})
        assert fragment is None or re.search(fragment, str(err.value))


@pytest.mark.parametrize("name, action", [("ego_successors", "u1"), ("env_successors", "u2")])
@pytest.mark.parametrize("bad", [-1, 3, -2**31, 2**31, -2**32 + 1, 2**32 + 1])
def test_spec_names_the_first_bad_successor_in_either_table(name, action, bad):
    # Out-of-range and negative entries, in int64 and beyond int32, are
    # named by table and (cell, action); a later bad entry is not the one
    # named.
    table = np.random.default_rng(0).integers(0, 3, size=(3, 4))
    table[1, 2] = bad
    table[2, 0] = -5
    other = np.zeros((2, 2), dtype=int)
    ego, env = (table, other) if name == "ego_successors" else (other, table)
    with pytest.raises(ValueError) as err:
        make_spec(ego, env, np.zeros(6), np.zeros(6), np.ones(6, bool))
    assert str(err.value) == f"{name} out of range [0, 3) at (cell=1, {action}=2): -> {bad}"


def test_validate_flags_out_of_range_transition():
    env = np.zeros((2, 2), dtype=int)
    env[1, 1] = 2  # index n_h
    with pytest.raises(ValueError) as err:
        make_spec(np.zeros((1, 2), int), env, [0, 0], [0, 0], [True, True])
    msg = str(err.value)
    assert "env_successors" in msg and "cell=1" in msg and "u2=1" in msg


def test_validate_flags_bad_discount():
    with pytest.raises(ValueError, match=r"discount out of \(0,1\]"):
        make_spec(np.zeros((2, 2), int), np.zeros((1, 2), int), [0, 0], [0, 0], [True, True],
                  discount=0.0)


def test_validate_flags_nonfinite_reward():
    with pytest.raises(ValueError, match="ego_reward"):
        make_spec(np.zeros((2, 2), int), np.zeros((1, 2), int), [0.0, np.inf], [0, 0],
                  [True, True])


def test_step_identity_transition():
    spec = make_spec(np.zeros((1, 2), int), np.zeros((1, 2), int), [0.0], [3.5], [True])
    assert step(spec, 0, 1, 0) == (0, 0.0, 3.5)


def test_step_two_state_flip():
    # Two ego cells that swap under either action, one env cell.
    spec = make_spec([[1, 1], [0, 0]], np.zeros((1, 2), int), [0.0, 2.0], [5.0, -1.0],
                     [True, True])
    assert step(spec, 0, 0, 0) == (1, 2.0, -1.0)
    assert step(spec, 1, 1, 1) == (0, 0.0, 5.0)


@pytest.mark.parametrize("bad", [(-1, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
def test_step_rejects_out_of_range(bad):
    spec = make_spec(np.zeros((2, 2), int), np.zeros((1, 2), int), [0, 0], [0, 0],
                     [True, True])
    with pytest.raises(ValueError):
        step(spec, *bad)


def test_step_totality_on_random_game():
    rng = np.random.default_rng(7)
    spec, *_ = random_game(rng, n_e=2, n_h=3, nu1=3, nu2=2)
    for x in range(spec.num_states):
        for u1 in range(spec.num_ego_actions):
            for u2 in range(spec.num_env_actions):
                nxt, r1, r2 = step(spec, x, u1, u2)
                assert 0 <= nxt < spec.num_states
                assert np.isfinite(r1) and np.isfinite(r2)


def _vehicle_step_cell(grid, cell, action, v_max, dt):
    """The cell ``vehicle_step`` moves ``cell`` to; a missing lane degrades to "keep"."""
    state = grid.decode(cell)
    if state is None:
        return grid.done_code  # the done cell is absorbing
    accel, cmd = action
    if cmd != "keep":
        idx = grid.lane_centers.index(state.s_y)
        if not 0 <= idx + (1 if cmd == "left" else -1) < len(grid.lane_centers):
            cmd = "keep"
    nxt = vehicle_step(state, accel, cmd, dt=dt, v_max=v_max, lane_centers=grid.lane_centers)
    if not grid.pos_min - 1e-9 <= nxt.s_x <= grid.pos_max + 1e-9:
        return grid.done_code
    return grid.encode(nxt)


def test_step_matches_vehicle_step_composition():
    """Each vehicle's successor table is its ``vehicle_step``, cell by cell."""
    for name in ("intersection", "overtaking", "merging"):
        _check_vehicle_step_composition(default_config(name))


def _check_vehicle_step_composition(config):
    scenario = make_scenario(config)
    spec = scenario.spec
    rng = np.random.default_rng(3)
    for grid, table, actions, v_max in (
        (scenario.ego_grid, spec.ego_successors, scenario.ego_actions, config.ego_v_max),
        (scenario.human_grid, spec.env_successors, scenario.env_actions, config.human_v_max),
    ):
        assert table.shape == (grid.num_codes, len(actions))
        cells = [*rng.integers(0, grid.num_cells, size=150), grid.done_code]
        for cell in cells:
            for u, action in enumerate(actions):
                assert table[cell, u] == _vehicle_step_cell(grid, int(cell), action, v_max,
                                                            config.dt)
    # And step composes the two moves on the joint state.
    for state in rng.integers(0, spec.num_states, size=20):
        u1 = int(rng.integers(0, spec.num_ego_actions))
        u2 = int(rng.integers(0, spec.num_env_actions))
        e, h = divmod(int(state), scenario.human_grid.num_codes)
        nxt, _, _ = step(spec, int(state), u1, u2)
        assert scenario.decode(nxt) == (
            scenario.ego_grid.decode(int(spec.ego_successors[e, u1])),
            scenario.human_grid.decode(int(spec.env_successors[h, u2])),
        )


def test_policy_table_validates_rows():
    with pytest.raises(ValueError):
        PolicyTable(0, EGO, np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        PolicyTable(0, ENV, np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError):
        PolicyTable(-1, EGO, np.array([[1.0]]))
    # NaN fails every comparison, so the range and sum checks must not miss it.
    with pytest.raises(ValueError, match="row 0 is not a distribution"):
        PolicyTable(level=0, player=ENV, probs=[[np.nan, np.nan]])
    with pytest.raises(ValueError, match="row 1 is not a distribution"):
        PolicyTable(level=0, player=ENV, probs=[[0.5, 0.5], [np.inf, 0.0]])
    table = PolicyTable(0, EGO, np.array([[0.25, 0.75]]))
    assert table.num_states == 1 and table.num_actions == 2


def _bad_entry(probs, i, value):
    probs[i, 0] = value


def _bad_sum(scale):
    def scale_row(probs, i):
        probs[i] *= scale
    return scale_row


@pytest.mark.parametrize("n", [2, 3, 9])
@pytest.mark.parametrize(
    "spoil",
    [
        lambda p, i: _bad_entry(p, i, np.nan),
        lambda p, i: _bad_entry(p, i, np.inf),
        lambda p, i: _bad_entry(p, i, -np.inf),
        lambda p, i: _bad_entry(p, i, -1e-6),
        lambda p, i: _bad_entry(p, i, 1.0 + 1e-6),
        _bad_sum(1.0 + 1e-8),
        # Either side of the tolerance: the whole-table check leaves rows
        # this close to the scan.
        _bad_sum(1.0 + 0.9e-9),
        _bad_sum(1.0 + 1.1e-9),
        _bad_sum(1.0 - 1.1e-9),
        None,
    ],
    ids=["nan", "inf", "-inf", "negative", "above-one", "sum-1e-8", "sum-0.9e-9",
         "sum-1.1e-9", "sum-minus-1.1e-9", "valid"],
)
def test_check_rows_names_the_rows_a_row_scan_names(n, spoil):
    rng = np.random.default_rng(n)
    for where in (0, 23, 49):
        probs = rng.dirichlet(np.ones(n), size=50)
        if spoil is not None:
            spoil(probs, where)
            if where < 49:
                spoil(probs, 49)  # a later bad row is not the one named
        message = check_rows_scan_reference(probs, "policy row")
        if message is None:
            check_rows(probs, "policy row")
        else:
            assert message.startswith(f"policy row {where} ")
            with pytest.raises(ValueError) as err:
                check_rows(probs, "policy row")
            assert str(err.value) == message
