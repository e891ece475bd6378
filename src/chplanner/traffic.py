"""Driving scenarios: grids, kinematics, rewards, safe sets, level-0 drivers.

Three two-vehicle scenarios are provided: an unsignalized intersection
crossing, a two-lane overtaking maneuver, and a forced merge that must
happen inside a bounded road section.  Each scenario discretizes both
vehicles onto position/speed/lane grids that are closed under the
kinematics (no rounding drift), tabulates each vehicle's successor table
(the game is their product, see :class:`~chplanner.game.GameSpec`), and
installs the scenario's reward functions and safe set.

Each vehicle's state is expressed in its own travel frame: ``s_x`` is the
longitudinal position along its direction of travel, ``s_y`` the lateral
lane-center offset, ``v`` the longitudinal speed.  A per-vehicle heading
maps travel-frame states to world coordinates, which is where the safety
predicates live.

Leaving the modeled road section sends a vehicle into an absorbing "done"
cell with zero reward that is always safe; episodes normally terminate
before anyone reaches it.

The safe set, the episode-completion test and the outcome events are
per-state masks, tabulated together from one product grid of the two
vehicles' cells.

A :class:`ScenarioConfig` checks its whole contract when it is constructed,
start states and grid closure included, so :func:`make_scenario` trusts
any config it is given.  Config files are parsed strictly: flags must be
YAML booleans, numbers must not be booleans, and integer keys reject
fractions instead of truncating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from typing import Sequence

import numpy as np
import yaml

from .game import EGO, ENV, GameSpec, PolicyTable, read_only
from .hierarchy import softmax_policy, QTable

__all__ = [
    "SCENARIO_NAMES",
    "LANE_COMMANDS",
    "VehicleState",
    "VehicleGrid",
    "ScenarioConfig",
    "Scenario",
    "vehicle_step",
    "make_scenario",
    "hierarchy_key",
    "level0_policy",
    "default_config",
    "load_config",
    "episode_complete",
    "classify_outcome",
    "MERGE_SECTION",
]

SCENARIO_NAMES = ("intersection", "overtaking", "merging")
LANE_COMMANDS = ("keep", "left", "right")
CONFIG_SCHEMA_VERSION = 1

# Ego world-x range (m) of the merging scenario's merge section: the ego may
# be in either lane for ego_x in (start, end]; before it, only the right lane
# is safe, after it only the left lane.
MERGE_SECTION = (20.0, 100.0)

# The largest joint state count, open-loop action sequences of either player
# (|U1|^horizon for the ego's plans, |U2|^horizon for the human's Q-tables),
# reasoning level and episode step cap a config may ask for; the packaged
# configs have at most 234 k states, 729 sequences, level 2 and 30 steps.
MAX_STATES = 1_000_000
MAX_ACTION_SEQUENCES = 10_000
MAX_LEVEL = 10
MAX_STEP_CAP = 10_000

@dataclass(frozen=True, slots=True)
class VehicleState:
    """Travel-frame kinematic state: longitudinal position, lane center, speed."""

    s_x: float
    s_y: float
    v: float


def vehicle_step(
    state: VehicleState,
    accel: float,
    lane_cmd: str,
    *,
    dt: float = 1.0,
    v_max: float = 12.0,
    lane_centers: Sequence[float] = (1.8,),
) -> VehicleState:
    """Advance one vehicle by one sampling period.

    Speed integrates the commanded acceleration and saturates at ``0`` and
    ``v_max``; the position advances by ``dt * (v + v') / 2``, which equals
    the unsaturated second-order update whenever no clamp triggers and stays
    kinematically consistent when one does.  Lane changes complete within
    the step.

    Raises
    ------
    ValueError
        If ``lane_cmd`` is unknown or targets a lane that does not exist.
    """
    if lane_cmd not in LANE_COMMANDS:
        raise ValueError(f"unknown lane command {lane_cmd!r}")
    centers = sorted(lane_centers)
    try:
        lane_idx = next(i for i, c in enumerate(centers) if math.isclose(c, state.s_y))
    except StopIteration:
        raise ValueError(f"s_y={state.s_y} is not a lane center of {centers}") from None
    if lane_cmd == "left":
        lane_idx += 1
    elif lane_cmd == "right":
        lane_idx -= 1
    if not 0 <= lane_idx < len(centers):
        raise ValueError(f"no lane to the {lane_cmd} of s_y={state.s_y}")
    v_next = min(max(state.v + dt * accel, 0.0), v_max)
    s_next = state.s_x + dt * (state.v + v_next) / 2.0
    return VehicleState(s_x=s_next, s_y=centers[lane_idx], v=v_next)


@dataclass(frozen=True)
class VehicleGrid:
    """Discretization of one vehicle onto a position/speed/lane lattice."""

    pos_min: float
    pos_max: float
    pos_step: float
    v_max: float
    v_step: float
    lane_centers: tuple[float, ...]
    heading: str  # "east" or "north"

    @property
    def shape(self) -> tuple[int, int, int]:
        """Numbers of positions, speeds and lanes, counted without building an axis."""
        return (round((self.pos_max - self.pos_min) / self.pos_step) + 1,
                round(self.v_max / self.v_step) + 1, len(self.lane_centers))

    # The axes are computed once per grid: decoding a state reads them
    # several times, and the closed loop decodes every step.
    @cached_property
    def positions(self) -> np.ndarray:
        return self.pos_min + self.pos_step * np.arange(self.shape[0])

    @cached_property
    def speeds(self) -> np.ndarray:
        return self.v_step * np.arange(self.shape[1])

    @cached_property
    def num_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def done_code(self) -> int:
        return self.num_cells

    @property
    def num_codes(self) -> int:
        return self.num_cells + 1

    def encode(self, state: VehicleState) -> int:
        pos_idx = (state.s_x - self.pos_min) / self.pos_step
        v_idx = state.v / self.v_step
        if abs(pos_idx - round(pos_idx)) > 1e-6 or abs(v_idx - round(v_idx)) > 1e-6:
            raise ValueError(f"{state} is not on the grid")
        pos_idx, v_idx = int(round(pos_idx)), int(round(v_idx))
        if not 0 <= pos_idx < self.positions.size or not 0 <= v_idx < self.speeds.size:
            raise ValueError(f"{state} lies outside the grid bounds")
        lane_idx = next(
            (i for i, c in enumerate(self.lane_centers) if math.isclose(c, state.s_y)), None
        )
        if lane_idx is None:
            raise ValueError(f"s_y={state.s_y} is not a lane center of {self.lane_centers}")
        return (pos_idx * self.speeds.size + v_idx) * len(self.lane_centers) + lane_idx

    def decode(self, code: int) -> VehicleState | None:
        """Travel-frame state for a cell code; ``None`` for the done cell."""
        if code == self.done_code:
            return None
        n_lanes = len(self.lane_centers)
        lane_idx = code % n_lanes
        rest = code // n_lanes
        v_idx = rest % self.speeds.size
        pos_idx = rest // self.speeds.size
        return VehicleState(
            s_x=float(self.positions[pos_idx]),
            s_y=self.lane_centers[lane_idx],
            v=float(self.speeds[v_idx]),
        )

    def world_xy(self, state: VehicleState) -> tuple[float, float]:
        if self.heading == "east":
            return state.s_x, state.s_y
        if self.heading == "north":
            return state.s_y, state.s_x
        raise ValueError(f"unknown heading {self.heading!r}")


def _is_int(value) -> bool:
    """An integer and not a bool, which Python counts as an ``int``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one traffic scenario.

    Construction checks the whole contract, the start states included, and
    raises ``ValueError`` naming the field, so a config built from YAML, by
    ``dataclasses.replace`` or directly is checked exactly once.  Every
    float, on its own or in a tuple, must be finite; that is checked first.
    The sizes the planning stack enumerates are bounded by ``MAX_STATES``,
    ``MAX_ACTION_SEQUENCES`` and ``MAX_LEVEL``, checked by arithmetic before
    anything scaling with them is allocated, and an episode's length by
    ``MAX_STEP_CAP``.
    """

    name: str
    dt: float
    car_length: float
    lane_width: float
    accel_set: tuple[float, ...]
    v_step: float
    pos_step: float
    ego_pos_min: float
    ego_pos_max: float
    ego_v_max: float
    ego_lane_change: bool
    ego_start: tuple[float, float, int]  # (position, speed, lane index)
    human_pos_min: float
    human_pos_max: float
    human_v_max: float
    human_lane_change: bool
    human_start: tuple[float, float, int]
    horizon: int
    epsilon: float
    discount: float
    on_infeasible: str
    levels: tuple[int, ...]
    level_prior: tuple[float, ...]
    collision_penalty: float
    softmax_temperature: float
    level0_softmax: bool
    step_cap: int
    seed: int

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, (float, np.floating)) and not math.isfinite(x) for x in entries):
                raise ValueError(f"{item.name} must be finite, got {value!r}")
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario name {self.name!r}; expected one of {SCENARIO_NAMES}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon out of [0,1]: {self.epsilon!r}")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount out of (0,1]: {self.discount!r}")
        for name in ("horizon", "step_cap", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(map(_is_int, self.levels)):
            raise ValueError(f"levels must be integers, got {self.levels!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.step_cap < 1:
            raise ValueError(f"step_cap must be >= 1, got {self.step_cap}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dt <= 0 or self.pos_step <= 0 or self.v_step <= 0:
            raise ValueError("dt, pos_step and v_step must be positive")
        for name in ("car_length", "lane_width"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.on_infeasible not in ("abort", "fallback"):
            raise ValueError(f"on_infeasible must be 'abort' or 'fallback', got {self.on_infeasible!r}")
        if len(self.levels) != len(self.level_prior):
            raise ValueError("level_prior length must match levels")
        if any(k < 0 for k in self.levels) or sorted(set(self.levels)) != list(self.levels):
            raise ValueError("levels must be strictly increasing and nonnegative")
        if abs(sum(self.level_prior) - 1.0) > 1e-9 or min(self.level_prior) < 0:
            raise ValueError("level_prior must be a probability vector")
        if not self.softmax_temperature > 0.0:
            raise ValueError(
                f"softmax_temperature must be > 0, got {self.softmax_temperature!r}"
            )
        if 0.0 not in self.accel_set:
            raise ValueError("accel_set must contain 0")
        if self.name == "intersection" and (self.ego_lane_change or self.human_lane_change):
            raise ValueError("ego_lane_change and human_lane_change must be false: "
                             "intersection has no lane changes")
        for v_max, who in ((self.ego_v_max, "ego"), (self.human_v_max, "human")):
            if v_max <= 0 or abs(v_max / self.v_step - round(v_max / self.v_step)) > 1e-9:
                raise ValueError(f"{who}_v_max must be a positive multiple of v_step")
        for lo, hi, who in (
            (self.ego_pos_min, self.ego_pos_max, "ego"),
            (self.human_pos_min, self.human_pos_max, "human"),
        ):
            span = (hi - lo) / self.pos_step
            if hi <= lo or abs(span - round(span)) > 1e-9:
                raise ValueError(
                    f"{who}_pos_min..{who}_pos_max must span a whole number of grid steps"
                )
        self._check_size()
        self._check_grid_closure()
        self._check_starts()

    def _check_size(self) -> None:
        """Sizes by arithmetic, before a check or a build allocates arrays of them."""
        ego, human = _grids(self)
        if ego.num_codes * human.num_codes > MAX_STATES:
            raise ValueError(f"{ego.num_codes} ego x {human.num_codes} human cells exceed "
                             f"{MAX_STATES} states; narrow ego_pos_min..ego_pos_max or human_pos_"
                             "min..human_pos_max, lower a v_max, or coarsen pos_step or v_step")
        for who, lane_change in (("ego", self.ego_lane_change),
                                 ("human", self.human_lane_change)):
            nu = len(_actions(self, lane_change))
            # With nu >= 2 the bound is passed within bit_length() stages.
            if nu ** min(self.horizon, MAX_ACTION_SEQUENCES.bit_length()) > MAX_ACTION_SEQUENCES:
                raise ValueError(
                    f"horizon {self.horizon} gives {nu}^{self.horizon} {who} action sequences, "
                    f"over {MAX_ACTION_SEQUENCES}; lower horizon or accel_set")
        if self.k_max > MAX_LEVEL:
            raise ValueError(f"levels reach {self.k_max}, more than MAX_LEVEL = {MAX_LEVEL}")
        if self.step_cap > MAX_STEP_CAP:
            raise ValueError(
                f"step_cap {self.step_cap} is more than MAX_STEP_CAP = {MAX_STEP_CAP}")

    def _check_grid_closure(self) -> None:
        """Every (speed, acceleration) pair must land back on the grids.

        The first bad entry in the C order of the ``(speed, acceleration,
        cap, check)`` grid is named: a nested loop's order, speed first.
        """
        v_max = max(self.ego_v_max, self.human_v_max)
        v = self.v_step * np.arange(int(round(v_max / self.v_step)) + 1)[:, None, None]
        caps = np.array([self.ego_v_max, self.human_v_max])
        v2 = np.minimum(np.maximum(v + self.dt * np.array(self.accel_set)[:, None], 0.0), caps)
        values = np.stack([v2, self.dt * (v + v2) / 2.0], axis=-1)  # speed, displacement
        steps = values / np.array([self.v_step, self.pos_step])
        bad = (np.abs(steps - np.round(steps)) > 1e-9) & (v <= caps)[..., None]
        if bad.any():
            i, j, c, k = np.unravel_index(np.argmax(bad), bad.shape)
            step, what, grid = (("v_step", "speed", "v"),
                                ("pos_step", "displacement", "position"))[k]
            raise ValueError(
                f"grid closure violated (accel_set, dt, {step}): v={float(v[i, 0, 0])}, a="
                f"{self.accel_set[j]} gives {what} {float(values[i, j, c, k])} off the {grid} grid")

    def _check_starts(self) -> None:
        """Start states must sit on their grids; encoding checks everything."""
        for grid, start, who in zip(
            _grids(self), (self.ego_start, self.human_start), ("ego", "human")
        ):
            if not 0 <= start[2] < len(grid.lane_centers):
                raise ValueError(f"{who}_start lane index {start[2]} out of range")
            try:
                _start_code(grid, start)
            except ValueError as exc:
                raise ValueError(f"{who}_start: {exc}") from None

    @property
    def k_max(self) -> int:
        return max(self.levels)


def _lane_centers(config: ScenarioConfig, who: str) -> tuple[float, ...]:
    w = config.lane_width
    if config.name == "intersection":
        # Right-hand traffic: the eastbound ego keeps south of the center
        # line, the northbound human keeps east of it.
        return (-w / 2.0,) if who == "ego" else (w / 2.0,)
    if config.name == "overtaking":
        return (w / 2.0, 3.0 * w / 2.0) if who == "ego" else (w / 2.0,)
    # merging: ego starts in the right lane, the human occupies the left lane
    return (w / 2.0, 3.0 * w / 2.0) if who == "ego" else (3.0 * w / 2.0,)


def _grids(config: ScenarioConfig) -> tuple[VehicleGrid, VehicleGrid]:
    ego = VehicleGrid(
        pos_min=config.ego_pos_min,
        pos_max=config.ego_pos_max,
        pos_step=config.pos_step,
        v_max=config.ego_v_max,
        v_step=config.v_step,
        lane_centers=_lane_centers(config, "ego"),
        heading="east",
    )
    human = VehicleGrid(
        pos_min=config.human_pos_min,
        pos_max=config.human_pos_max,
        pos_step=config.pos_step,
        v_max=config.human_v_max,
        v_step=config.v_step,
        lane_centers=_lane_centers(config, "human"),
        heading="north" if config.name == "intersection" else "east",
    )
    return ego, human


def _start_code(grid: VehicleGrid, start: tuple[float, float, int]) -> int:
    """Cell code of a ``(position, speed, lane index)`` start state."""
    pos, v, lane = start
    return grid.encode(VehicleState(s_x=pos, s_y=grid.lane_centers[lane], v=v))


def _actions(config: ScenarioConfig, lane_change: bool) -> tuple[tuple[float, str], ...]:
    cmds = LANE_COMMANDS if lane_change else ("keep",)
    return tuple((a, cmd) for a in config.accel_set for cmd in cmds)


def _cells(grid: VehicleGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Travel-frame position, speed and lane index of every cell but the done cell."""
    n_lanes = len(grid.lane_centers)
    codes = np.arange(grid.num_cells)
    pos = grid.positions[codes // (n_lanes * grid.speeds.size)]
    v = grid.speeds[(codes // n_lanes) % grid.speeds.size]
    return pos, v, codes % n_lanes


def _vehicle_successors(
    grid: VehicleGrid, actions: Sequence[tuple[float, str]], dt: float
) -> np.ndarray:
    """Per-vehicle int32 successor codes, shape ``(num_codes, len(actions))``.

    A lane command whose target lane does not exist degrades to "keep";
    leaving the position range maps to the done cell, which is absorbing.
    """
    n_v = grid.speeds.size
    n_lanes = len(grid.lane_centers)
    pos, v, lane_idx = _cells(grid)

    out = np.empty((grid.num_codes, len(actions)), dtype=np.int32)
    for j, (a, cmd) in enumerate(actions):
        v2 = np.clip(v + dt * a, 0.0, grid.v_max)
        v2_idx = np.rint(v2 / grid.v_step).astype(np.int64)
        pos2 = pos + dt * (v + v2) / 2.0
        pos2_idx = np.rint((pos2 - grid.pos_min) / grid.pos_step).astype(np.int64)
        in_range = (pos2 >= grid.pos_min - 1e-9) & (pos2 <= grid.pos_max + 1e-9)
        shift = {"keep": 0, "left": 1, "right": -1}[cmd]
        lane2 = np.clip(lane_idx + shift, 0, n_lanes - 1)
        code2 = (pos2_idx * n_v + v2_idx) * n_lanes + lane2
        out[:-1, j] = np.where(in_range, code2, grid.done_code)
    out[-1, :] = grid.done_code
    return out


@dataclass(frozen=True)
class Scenario:
    """Everything the planner and the simulator need for one traffic game.

    ``complete`` and each mask in ``events`` hold one flag per joint state,
    like ``spec.safe_set``: whether an episode in that state is complete,
    and whether each outcome event holds there (see :func:`classify_outcome`).
    """

    config: ScenarioConfig
    spec: GameSpec
    ego_grid: VehicleGrid
    human_grid: VehicleGrid
    ego_actions: tuple[tuple[float, str], ...]
    env_actions: tuple[tuple[float, str], ...]
    ego_objective: np.ndarray  # raw (unpenalized) per-state planner reward
    env_objective: np.ndarray
    complete: np.ndarray
    events: dict[str, np.ndarray]
    initial_state: int

    def __post_init__(self):
        object.__setattr__(self, "ego_objective", read_only(self.ego_objective, float))

    @property
    def name(self) -> str:
        return self.config.name

    def decode(self, state: int) -> tuple[VehicleState | None, VehicleState | None]:
        e, h = divmod(state, self.human_grid.num_codes)
        return self.ego_grid.decode(e), self.human_grid.decode(h)

    def encode(self, ego: VehicleState | None, human: VehicleState | None) -> int:
        e = self.ego_grid.done_code if ego is None else self.ego_grid.encode(ego)
        h = self.human_grid.done_code if human is None else self.human_grid.encode(human)
        return e * self.human_grid.num_codes + h

    def is_safe(self, state: int) -> bool:
        return bool(self.spec.safe_set[state])


def _state_tables(
    config: ScenarioConfig, ego_grid: VehicleGrid, human_grid: VehicleGrid
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Safe set, completion mask and outcome-event masks, one flag per joint state.

    Each predicate is evaluated on the (ego cell x human cell) product grid
    from the cells' travel-frame positions and lanes.  A vehicle in the done
    cell has no position, so each predicate states its value there: a pair
    with a done vehicle is always safe, for instance.
    """
    n_e, n_h = ego_grid.num_codes, human_grid.num_codes
    e_pos, _, e_lane = _cells(ego_grid)
    h_pos, _, h_lane = _cells(human_grid)
    e_lat = np.asarray(ego_grid.lane_centers)[e_lane]
    h_lat = np.asarray(human_grid.lane_centers)[h_lane]

    # Each mask is a flat array that owns its data, so read_only takes it
    # over without a copy.
    def pairs(on_cells: np.ndarray, done: bool) -> np.ndarray:
        out = np.full(n_e * n_h, done)
        out.reshape(n_e, n_h)[:-1, :-1] = on_cells
        return out

    def ego_only(on_cells: np.ndarray, done: bool) -> np.ndarray:
        return np.repeat(np.append(on_cells, done), n_h)

    def human_only(on_cells: np.ndarray, done: bool) -> np.ndarray:
        return np.tile(np.append(on_cells, done), n_e)

    l_car = config.car_length
    w = config.lane_width
    if config.name == "intersection":
        # The eastbound ego's world point is (pos, lane), the northbound
        # human's (lane, pos).  Each vehicle crosses when it passes the
        # other's lane center, and is clear 1.2 car lengths further on.
        dx = np.abs(e_pos[:, None] - h_lat[None, :])
        dy = np.abs(e_lat[:, None] - h_pos[None, :])
        safe = pairs(dx**2 + dy**2 >= (1.2 * l_car) ** 2, True)
        ego_mark, human_mark = w / 2.0, -w / 2.0
        clear = 1.2 * l_car
        complete = pairs(
            (e_pos >= ego_mark + clear)[:, None] & (h_pos >= human_mark + clear)[None, :], True
        )
        events = {
            "ego_cross": ego_only(e_pos > ego_mark, True),
            "human_cross": human_only(h_pos > human_mark, True),
        }
        return safe, complete, events

    # Overtaking and merging: both vehicles travel east; ego lane 1 is the left lane.
    gap = e_pos[:, None] - h_pos[None, :]
    apart = (np.abs(gap) >= 1.6 * l_car) | (np.abs(e_lat[:, None] - h_lat[None, :]) >= w)
    in_left = e_lane == 1
    if config.name == "overtaking":
        overtaken = ~in_left[:, None] & (gap >= 1.6 * l_car)
        return pairs(apart, True), pairs(overtaken, True), {"overtake": pairs(overtaken, False)}

    start, end = MERGE_SECTION
    in_section = (e_pos > start) & (e_pos <= end)
    lane_ok = ((e_pos <= start) & ~in_left) | in_section | ((e_pos > end) & in_left)
    events = {
        "merge": ego_only(in_left, False),
        "merged_ahead": pairs(gap > 0.0, True),
        "merged_in_section": ego_only(in_section, False),
    }
    return pairs(apart & lane_ok[:, None], True), ego_only(in_left, True), events


def _vehicle_objective(config: ScenarioConfig, grid: VehicleGrid) -> np.ndarray:
    """Raw per-cell reward of one vehicle (done cell earns nothing)."""
    pos, _, lane_idx = _cells(grid)
    lat = np.asarray(grid.lane_centers)[lane_idx]
    if config.name == "intersection":
        r = pos
    elif config.name == "overtaking":
        r = 8.0 * pos - lat
    else:
        r = pos + 10.0 * lat
    return np.append(r, 0.0)


def make_scenario(config: ScenarioConfig) -> Scenario:
    """Build the full game for one scenario configuration."""
    ego_grid, human_grid = _grids(config)
    ego_actions = _actions(config, config.ego_lane_change)
    env_actions = _actions(config, config.human_lane_change)

    n_e, n_h = ego_grid.num_codes, human_grid.num_codes
    safe_joint, complete, events = _state_tables(config, ego_grid, human_grid)

    ego_obj = np.repeat(_vehicle_objective(config, ego_grid), n_h)
    env_obj = np.tile(_vehicle_objective(config, human_grid), n_e)
    penalty = np.where(safe_joint, 0.0, config.collision_penalty)
    spec = GameSpec(
        ego_successors=_vehicle_successors(ego_grid, ego_actions, config.dt),
        env_successors=_vehicle_successors(human_grid, env_actions, config.dt),
        ego_reward_table=ego_obj + penalty, env_reward_table=env_obj + penalty,
        safe_set=safe_joint, discount=config.discount, horizon=config.horizon,
    )

    initial = (_start_code(ego_grid, config.ego_start) * n_h
               + _start_code(human_grid, config.human_start))

    return Scenario(
        config=config, spec=spec, ego_grid=ego_grid, human_grid=human_grid,
        ego_actions=ego_actions, env_actions=env_actions, ego_objective=ego_obj,
        env_objective=env_obj, complete=read_only(complete, bool),
        events={name: read_only(mask, bool) for name, mask in events.items()},
        initial_state=initial,
    )


def hierarchy_key(scenario: Scenario) -> tuple[list[int], list[float], list[tuple]]:
    """The factors of a scenario's hierarchy, for ``hierarchy_content_hash``.

    The joint reward and level-0 tables are fixed functions of the
    successor tables, the cell objectives, the safe set and the header, so
    these few hundred KB stand for them.
    """
    config = scenario.config
    n_h = scenario.human_grid.num_codes
    ints = [
        scenario.ego_grid.num_codes, n_h, len(scenario.ego_actions),
        len(scenario.env_actions), config.horizon, config.k_max, config.level0_softmax,
        scenario.ego_actions.index((0.0, "keep")), scenario.env_actions.index((0.0, "keep")),
    ]
    floats = [config.discount, config.softmax_temperature, config.collision_penalty]
    arrays = [
        (scenario.spec.ego_successors, "<i4"),
        (scenario.spec.env_successors, "<i4"),
        (scenario.ego_objective[::n_h], "<f8"),  # one entry per ego cell
        (scenario.env_objective[:n_h], "<f8"),  # one entry per human cell
        (scenario.spec.safe_set, "|b1"),
    ]
    return ints, floats, arrays


def level0_policy(scenario: Scenario, player: int) -> PolicyTable:
    """Non-strategic anchor policy: optimize against a frozen other vehicle.

    For every joint state the vehicle solves its finite-horizon problem
    under the assumption that the other vehicle never moves, maximizing the
    scenario reward plus the collision penalty.  The default policy is the
    deterministic best first action, ties broken toward coasting
    (zero acceleration, keep lane) and then the lowest action index; the
    ``level0_softmax`` config flag switches to a softmax over the same
    values.
    The values live on the ``(ego cell, human cell)`` grid, gathered along
    the moving vehicle's axis with its successor table, action-major.
    A cache hit does not compute it (see :func:`hierarchy_key`).
    """
    config = scenario.config
    spec = scenario.spec
    succ = spec.successors(player)
    axis, actions = (0, scenario.ego_actions) if player == EGO else (1, scenario.env_actions)
    grid = spec.grid
    rewards = spec.rewards(player).reshape(grid)

    q = np.empty((len(actions), *grid))
    values = np.zeros(grid)
    for _ in range(config.horizon):
        folded = rewards + config.discount * values
        for u in range(len(actions)):
            # Mode "clip" writes straight into q[u]; every code is in range.
            np.take(folded, succ[:, u], axis=axis, out=q[u], mode="clip")
        values = np.maximum.reduce(q, axis=0)
    q = q.reshape(len(actions), spec.num_states)

    if config.level0_softmax:
        return softmax_policy(
            QTable(level=0, player=player, values=q.T), config.softmax_temperature
        )

    pick = _level0_pick(q, values.ravel(), actions.index((0.0, "keep")))
    probs = np.zeros((spec.num_states, len(actions)))
    probs[np.arange(spec.num_states), pick] = 1.0
    return PolicyTable(level=0, player=player, probs=probs)


def _level0_pick(q: np.ndarray, best: np.ndarray, preferred: int) -> np.ndarray:
    """Per state, ``preferred`` if it reaches ``best``, else the lowest action that does.

    ``q`` is action-major, ``(actions, states)``, and ``best`` its column
    maximum.  One pass per row, the last action first and ``preferred``
    last; ``argmax`` over axis 0 would copy the table transposed.
    """
    pick = np.empty(q.shape[1], dtype=np.intp)
    for a in (*range(len(q) - 1, -1, -1), preferred):
        np.copyto(pick, a, where=q[a] == best)
    return pick


# ---------------------------------------------------------------------------
# Episode semantics: completion tests and outcome classification.


def episode_complete(scenario: Scenario, state: int) -> bool:
    """True once the scenario's region of interest has been resolved.

    Intersection: both vehicles are 1.2 car lengths past the conflict
    point.  Overtaking: the ego is back in the right lane 1.6 car lengths
    ahead of the human.  Merging: the ego is in the left lane.  Reaching
    the done cell completes an episode, except the human's in merging.
    """
    return bool(scenario.complete[state])


def _first(mask: np.ndarray, states: Sequence[int]) -> int | None:
    """Index of the first state where ``mask`` holds, or ``None``."""
    return next((t for t, state in enumerate(states) if mask[state]), None)


def classify_outcome(scenario: Scenario, states: Sequence[int]) -> dict:
    """Summary of an episode trajectory (list of joint state indices).

    Each ``<event>_step`` is the first step at which that event's mask
    holds.  Intersection: ``ego_cross_step`` and ``human_cross_step``, when
    each vehicle passes the other's lane center.  Overtaking:
    ``completion_step``, when the overtake is complete.  Merging:
    ``merge_step``, when the ego enters the left lane, with whether it
    was then ahead of the human and inside the merge section.
    """
    events = scenario.events
    violated = any(not scenario.is_safe(s) for s in states)
    out: dict = {"scenario": scenario.name, "violation": violated}
    if scenario.name == "intersection":
        ego_step = _first(events["ego_cross"], states)
        human_step = _first(events["human_cross"], states)
        ego_first = ego_step is not None and (human_step is None or ego_step < human_step)
        out.update(ego_crossed_first=ego_first, ego_cross_step=ego_step,
                   human_cross_step=human_step)
    elif scenario.name == "overtaking":
        step = _first(events["overtake"], states)
        out.update(completed=step is not None, completion_step=step)
    else:
        step = _first(events["merge"], states)
        at = None if step is None else states[step]
        out.update(
            merged=step is not None,
            merge_step=step,
            merged_ahead=None if at is None else bool(events["merged_ahead"][at]),
            merged_in_section=None if at is None else bool(events["merged_in_section"][at]),
        )
    return out


# ---------------------------------------------------------------------------
# Configuration files.


def _cfg_get(tree: dict, path: str, cast=None, default=None):
    """Value at the dotted ``path`` passed through ``cast``, or ``default``.

    A missing key without a default, or a value ``cast`` rejects, is a ValueError."""
    node = tree
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if default is None or not isinstance(node, dict):
                raise ValueError(f"config is missing required key {path!r}")
            return default
        node = node[key]
    if cast is None:
        return node
    try:
        return cast(node)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key {path!r}: bad value {node!r} ({exc})") from exc


def _tuple_of(cast):
    return lambda node: tuple(cast(item) for item in node)


def _real(node) -> float:
    """A number; ``float()`` would read a YAML ``true`` as 1.0."""
    if isinstance(node, bool):
        raise ValueError("expected a number, not true or false")
    return float(node)


def _int(node) -> int:
    """An integer; ``int()`` would read ``true`` as 1 and truncate 2.5 to 2."""
    if isinstance(node, bool) or (isinstance(node, float) and not node.is_integer()):
        raise ValueError("expected an integer")
    return int(node)


def _flag(node) -> bool:
    """A YAML boolean; ``bool()`` would read any non-empty string as true."""
    if not isinstance(node, bool):
        raise ValueError("expected true or false")
    return node


def config_from_dict(tree: dict) -> ScenarioConfig:
    """Parse the nested config-file structure; the config checks itself."""
    version = _cfg_get(tree, "schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema_version {version!r}")

    def start(who: str) -> tuple[float, float, int]:
        pos = _cfg_get(tree, f"{who}.start.pos", _real)
        v = _cfg_get(tree, f"{who}.start.v", _real)
        return pos, v, _cfg_get(tree, f"{who}.start.lane", _int, 0)

    return ScenarioConfig(
        name=_cfg_get(tree, "scenario", str),
        dt=_cfg_get(tree, "kinematics.dt", _real),
        car_length=_cfg_get(tree, "kinematics.car_length", _real),
        lane_width=_cfg_get(tree, "kinematics.lane_width", _real),
        accel_set=_cfg_get(tree, "kinematics.accel_set", _tuple_of(_real)),
        v_step=_cfg_get(tree, "kinematics.v_step", _real),
        pos_step=_cfg_get(tree, "kinematics.pos_step", _real),
        ego_pos_min=_cfg_get(tree, "ego.pos_min", _real),
        ego_pos_max=_cfg_get(tree, "ego.pos_max", _real),
        ego_v_max=_cfg_get(tree, "ego.v_max", _real),
        ego_lane_change=_cfg_get(tree, "ego.lane_change", _flag),
        ego_start=start("ego"),
        human_pos_min=_cfg_get(tree, "human.pos_min", _real),
        human_pos_max=_cfg_get(tree, "human.pos_max", _real),
        human_v_max=_cfg_get(tree, "human.v_max", _real),
        human_lane_change=_cfg_get(tree, "human.lane_change", _flag),
        human_start=start("human"),
        horizon=_cfg_get(tree, "planning.horizon", _int),
        epsilon=_cfg_get(tree, "planning.epsilon", _real),
        discount=_cfg_get(tree, "planning.discount", _real),
        on_infeasible=_cfg_get(tree, "planning.on_infeasible", str, "fallback"),
        levels=_cfg_get(tree, "inference.levels", _tuple_of(_int)),
        level_prior=_cfg_get(tree, "inference.prior", _tuple_of(_real)),
        collision_penalty=_cfg_get(tree, "hierarchy.collision_penalty", _real),
        softmax_temperature=_cfg_get(tree, "hierarchy.temperature", _real, 1.0),
        level0_softmax=_cfg_get(tree, "hierarchy.level0_softmax", _flag, False),
        step_cap=_cfg_get(tree, "episode.step_cap", _int, 30),
        seed=_cfg_get(tree, "seed", _int, 0),
    )


def default_config(name: str) -> ScenarioConfig:
    """Packaged default configuration for one of the named scenarios."""
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    text = resources.files("chplanner.configs").joinpath(f"{name}.yaml").read_text()
    return config_from_dict(yaml.safe_load(text))


def load_config(path_or_name: str) -> ScenarioConfig:
    """Load a config from a YAML file path or a packaged scenario name."""
    if path_or_name in SCENARIO_NAMES:
        return default_config(path_or_name)
    with open(path_or_name, "r") as fh:
        try:
            tree = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path_or_name!r} is not valid YAML: {exc}") from exc
    if not isinstance(tree, dict):
        raise ValueError(f"config file {path_or_name!r} does not hold a mapping")
    return config_from_dict(tree)
