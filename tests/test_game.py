import re
import tracemalloc

import numpy as np
import pytest

from chplanner.game import EGO, ENV, GameSpec, PolicyTable, check_rows, step
from chplanner.traffic import default_config, make_scenario, vehicle_step

from conftest import make_spec
from oracles import check_rows_scan_reference, random_game


def test_validate_well_formed_game_passes():
    # GameSpec checks its contract at construction, so a well-formed spec
    # builds and keeps its tables as given.
    spec = make_spec(
        table=np.zeros((2, 2, 2), dtype=int),
        r1=[0.0, 1.0],
        r2=[1.0, 0.0],
        safe=[True, True],
    )
    assert (spec.num_states, spec.num_ego_actions, spec.num_env_actions) == (2, 2, 2)
    assert spec.discount == 0.9 and spec.horizon == 3


def test_memo_keyed_arrays_are_read_only():
    # planner.optimize keys its plan memo on the safe set, the ego objective
    # and the kernel, which reads its rows from the transition table.  The
    # table is held as int32, so only an int32 table is taken over; any
    # other is range-checked and copied.
    table = np.zeros((2, 2, 2), dtype=np.int32)
    safe = np.array([True, True])
    spec = make_spec(table, np.array([0.0, 1.0]), [1.0, 0.0], safe)
    assert spec.safe_set is safe  # taken over, not copied
    assert spec.transition_table is table
    for arr, value in ((spec.safe_set, False), (spec.transition_table, 1)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = value
    assert spec.ego_reward_table.flags.writeable

    pair = np.array([[True, False]])
    spec = make_spec(table, [0.0, 1.0], [1.0, 0.0], pair.ravel())
    pair[0, 0] = False  # a view is copied, so a write to its base cannot reach it
    assert spec.safe_set.tolist() == [True, False]

    scenario = make_scenario(default_config("merging"))
    with pytest.raises(ValueError, match="read-only"):
        scenario.ego_objective[0] = 0.0
    assert scenario.env_objective.flags.writeable


def test_spec_range_checks_the_table_before_narrowing_it():
    # The table is held as int32.  An int64 entry of 2**32 + 1 would wrap to
    # 1, a valid state, if it were cast first; it is checked in its own dtype.
    table = np.zeros((2, 1, 1), dtype=np.int64)
    table[1, 0, 0] = 2**32 + 1
    assert table.astype(np.int32)[1, 0, 0] == 1
    with pytest.raises(ValueError, match=r"\(state=1, u1=0, u2=0\): -> 4294967297"):
        make_spec(table, [0.0, 0.0], [0.0, 0.0], [True, True])
    table[1, 0, 0] = 1
    spec = make_spec(table, [0.0, 0.0], [0.0, 0.0], [True, True])
    assert spec.transition_table.dtype == np.int32
    assert spec.transition_table.tolist() == table.tolist()


def test_spec_rejects_2_to_the_31_states_by_shape():
    # A zero-stride view of 2**31 states holds 8 bytes; the state count is
    # rejected from the shape before any cast or range check reads it.
    table = np.broadcast_to(np.zeros((1, 1, 1), dtype=np.int64), (2**31, 1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"transition_table has 2147483648 states"):
            make_spec(table, [0.0], [0.0], [True])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_spec_rejects_mismatched_table_shapes():
    # Construction checks the whole contract, so every malformed spec fails
    # with a ValueError that names the field.
    table = np.zeros((2, 2, 2), dtype=int)
    ok = dict(transition_table=table, ego_reward_table=[0.0, 1.0],
              env_reward_table=[1.0, 0.0], safe_set=[True, True], discount=0.9, horizon=3)
    spec = GameSpec(**ok)
    assert (spec.num_states, spec.num_ego_actions, spec.num_env_actions) == (2, 2, 2)
    out_of_range = table.copy()
    out_of_range[1, 0, 1] = 2  # index |X|
    negative = table.copy()
    negative[0, 1, 0] = -1
    for field, bad, fragment in (
        ("transition_table", np.zeros((2, 2), int), None),
        ("env_reward_table", [0.0], None),
        ("safe_set", [True, True, False], None),
        ("transition_table", np.zeros((0, 2, 2), int), "at least one state"),
        ("transition_table", np.zeros((2, 0, 2), int), "one action per player"),
        ("transition_table", out_of_range, r"\(state=1, u1=0, u2=1\): -> 2"),
        ("transition_table", negative, r"\(state=0, u1=1, u2=0\)"),
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


def test_validate_flags_out_of_range_transition():
    table = np.zeros((2, 2, 2), dtype=int)
    table[1, 0, 1] = 2  # index |X|
    with pytest.raises(ValueError) as err:
        make_spec(table, [0, 0], [0, 0], [True, True])
    msg = str(err.value)
    assert "state=1" in msg and "u1=0" in msg and "u2=1" in msg


def test_validate_flags_bad_discount():
    with pytest.raises(ValueError, match=r"discount out of \(0,1\]"):
        make_spec(np.zeros((2, 2, 2), int), [0, 0], [0, 0], [True, True], discount=0.0)


def test_validate_flags_nonfinite_reward():
    with pytest.raises(ValueError, match="ego_reward"):
        make_spec(np.zeros((2, 2, 2), int), [0.0, np.inf], [0, 0], [True, True])


def test_step_identity_transition():
    table = np.zeros((1, 2, 2), dtype=int)
    spec = make_spec(table, [0.0], [3.5], [True])
    assert step(spec, 0, 1, 0) == (0, 0.0, 3.5)


def test_step_two_state_flip():
    table = np.array([[[1, 1], [1, 1]], [[0, 0], [0, 0]]])
    spec = make_spec(table, [0.0, 2.0], [5.0, -1.0], [True, True])
    assert step(spec, 0, 0, 0) == (1, 2.0, -1.0)
    assert step(spec, 1, 1, 1) == (0, 0.0, 5.0)


@pytest.mark.parametrize("bad", [(-1, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
def test_step_rejects_out_of_range(bad):
    spec = make_spec(np.zeros((2, 2, 2), int), [0, 0], [0, 0], [True, True])
    with pytest.raises(ValueError):
        step(spec, *bad)


def test_step_totality_on_random_game():
    rng = np.random.default_rng(7)
    spec, *_ = random_game(rng, nx=6, nu1=3, nu2=2)
    for x in range(spec.num_states):
        for u1 in range(spec.num_ego_actions):
            for u2 in range(spec.num_env_actions):
                nxt, r1, r2 = step(spec, x, u1, u2)
                assert 0 <= nxt < spec.num_states
                assert np.isfinite(r1) and np.isfinite(r2)


def test_step_matches_vehicle_step_composition():
    """Joint-game transitions decompose into the two per-vehicle updates."""
    config = default_config("overtaking")
    scenario = make_scenario(config)
    rng = np.random.default_rng(3)
    states = rng.integers(0, scenario.spec.num_states, size=10)
    for state in states:
        ego, human = scenario.decode(int(state))
        if ego is None or human is None:
            continue
        u1 = int(rng.integers(0, scenario.spec.num_ego_actions))
        u2 = int(rng.integers(0, scenario.spec.num_env_actions))
        nxt, _, _ = step(scenario.spec, int(state), u1, u2)
        ego_next, human_next = scenario.decode(nxt)

        accel, cmd = scenario.ego_actions[u1]
        if cmd != "keep":
            # Commands toward a missing lane degrade to "keep" in-game.
            centers = scenario.ego_grid.lane_centers
            idx = centers.index(ego.s_y)
            if not 0 <= idx + (1 if cmd == "left" else -1) < len(centers):
                cmd = "keep"
        expected = vehicle_step(
            ego, accel, cmd,
            dt=config.dt, v_max=config.ego_v_max,
            lane_centers=scenario.ego_grid.lane_centers,
        )
        if ego_next is not None:
            assert ego_next == expected
        else:
            assert not (
                scenario.ego_grid.pos_min <= expected.s_x <= scenario.ego_grid.pos_max
            )

        h_accel, _ = scenario.env_actions[u2]
        h_expected = vehicle_step(
            human, h_accel, "keep",
            dt=config.dt, v_max=config.human_v_max,
            lane_centers=scenario.human_grid.lane_centers,
        )
        if human_next is not None:
            assert human_next == h_expected


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
