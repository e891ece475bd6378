"""Finite two-player dynamic-game primitives.

States and actions are dense integer indices; domain layers supply codecs
between indices and physical values.  Transitions are deterministic: all
stochasticity in the planning stack enters through the opponent's policy.
Every object here checks its contract when it is constructed and is
immutable afterwards, so a spec or policy that exists is well formed, and
specs, policies and the tables derived from them are safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EGO",
    "ENV",
    "ROW_SUM_TOL",
    "check_rows",
    "GameSpec",
    "PolicyTable",
    "read_only",
    "step",
]

EGO = 1
ENV = 2

# Tolerance for "rows of a stochastic table sum to one".
ROW_SUM_TOL = 1e-9


def check_rows(probs: np.ndarray, row: str) -> None:
    """Raise ``ValueError`` naming the first row of ``probs`` that is not a distribution.

    Entries must lie in [0, 1], which a NaN fails too, and each row must
    sum to one within ``ROW_SUM_TOL``.  One check over the whole table (its
    min, max and row sums) passes a valid table; only a table it does not
    pass is scanned row by row for the first bad row.
    """
    # einsum sums in another order than ``sum(axis=1)``, so it is held to
    # half the tolerance: that margin is far above any rounding difference,
    # so a table passed here passes the scan, and a borderline one is left
    # to the scan.  A NaN fails the min and max comparisons.
    if (
        probs.min(initial=0.0) >= -1e-12
        and probs.max(initial=1.0) <= 1.0 + 1e-12
        and np.abs(np.einsum("ij->i", probs) - 1.0).max(initial=0.0) <= ROW_SUM_TOL / 2
    ):
        return
    bad = ~((probs >= -1e-12) & (probs <= 1.0 + 1e-12)).all(axis=1)
    bad |= np.abs(probs.sum(axis=1) - 1.0) > ROW_SUM_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"{row} {i} is not a distribution (finite entries in [0, 1] summing "
            f"to 1 within {ROW_SUM_TOL}): {probs[i]!r}"
        )


def read_only(values, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array that no write can reach.

    An array that owns its data and has the dtype is taken over, not
    copied: it is marked read-only in place, so the caller's reference can
    no longer write to it either.  Anything else is copied first.  This is
    for the arrays ``planner.optimize`` keys its plan memo on, among them
    the transition and policy tables the inference kernel reads, and for
    the Q tables.
    """
    arr = np.asarray(values, dtype=dtype)
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Two-player dynamic game ``<X, U1 x U2, T, {R1, R2}, X_safe, discount, horizon>``.

    The game is held as dense tables only.  ``transition_table[x, u1, u2]``
    is the successor state index and must be total (every entry in
    ``[0, |X|)``); it is held as int32 and read-only (see :func:`read_only`),
    because the inference kernel reads its rows from it and the plan memo
    keys on that kernel.  Rewards are functions of the successor state
    only, one value per state and player; the general ``(state, u1, u2)``
    reward form is out of scope.  ``safe_set`` is one boolean membership
    mask over states, held read-only too: every scenario's safe set is
    time-invariant, so the paper's time-indexed ``{X_t}`` is the same mask
    at every step.

    Construction checks the whole contract and raises ``ValueError`` naming
    the field: table shapes, at least one state and one action per player,
    fewer than ``2**31`` states (by shape), every transition target in range
    before the cast to int32 (the first bad ``(state, u1, u2)`` is named),
    finite rewards, ``discount`` in (0, 1] and ``horizon >= 1``.
    """

    transition_table: np.ndarray = field(repr=False)
    ego_reward_table: np.ndarray = field(repr=False)
    env_reward_table: np.ndarray = field(repr=False)
    safe_set: np.ndarray = field(repr=False)
    discount: float
    horizon: int

    def __post_init__(self):
        table = np.asarray(self.transition_table)
        if table.dtype.kind not in "iu":
            table = table.astype(np.int64)
        if table.ndim != 3:
            raise ValueError(
                f"transition_table must be 3-D (states x ego actions x env actions), "
                f"got shape {table.shape}"
            )
        if 0 in table.shape:
            raise ValueError(
                f"transition_table needs at least one state and one action per "
                f"player, got shape {table.shape}"
            )
        num_states = table.shape[0]
        if num_states >= 2**31:
            raise ValueError(f"transition_table has {num_states} states, int32 holds < 2**31")
        # min/max, not a mask: the range check allocates nothing table-sized.
        if table.min() < 0 or table.max() >= num_states:
            bad = np.flatnonzero((table < 0) | (table >= num_states))[0]
            x, u1, u2 = np.unravel_index(bad, table.shape)
            raise ValueError(
                f"transition_table out of range [0, {num_states}) at "
                f"(state={x}, u1={u1}, u2={u2}): -> {table[x, u1, u2]}"
            )
        object.__setattr__(self, "transition_table", read_only(table, np.int32))
        for name, dtype in (
            ("ego_reward_table", float),
            ("env_reward_table", float),
            ("safe_set", bool),
        ):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.shape != (num_states,):
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected ({num_states},)"
                )
            if dtype is float and not np.isfinite(arr).all():
                idx = int(np.argmax(~np.isfinite(arr)))
                raise ValueError(f"{name} not finite at state {idx}: {arr[idx]!r}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "safe_set", read_only(self.safe_set, bool))
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount out of (0,1]: {self.discount!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def num_states(self) -> int:
        return self.transition_table.shape[0]

    @property
    def num_ego_actions(self) -> int:
        return self.transition_table.shape[1]

    @property
    def num_env_actions(self) -> int:
        return self.transition_table.shape[2]

    def num_actions(self, player: int) -> int:
        if player == EGO:
            return self.num_ego_actions
        if player == ENV:
            return self.num_env_actions
        raise ValueError(f"player must be {EGO} or {ENV}, got {player}")

    def rewards(self, player: int) -> np.ndarray:
        """Vector of per-state reward values ``R^player(x)`` over all states."""
        if player == EGO:
            return self.ego_reward_table
        if player == ENV:
            return self.env_reward_table
        raise ValueError(f"player must be {EGO} or {ENV}, got {player}")


@dataclass(frozen=True)
class PolicyTable:
    """Stochastic state-to-action map for one player at one reasoning level.

    ``probs[x, u]`` is the probability that the player picks action ``u`` in
    state ``x``.  Rows must be distributions (see :func:`check_rows`);
    construction fails otherwise, naming the first bad row, so a
    ``PolicyTable`` instance is row-stochastic by contract.  ``probs`` is
    held read-only (see :func:`read_only`), so it stays so.
    """

    level: int
    player: int
    probs: np.ndarray

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"policy level must be >= 0, got {self.level}")
        if self.player not in (EGO, ENV):
            raise ValueError(f"player must be {EGO} or {ENV}, got {self.player}")
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("policy table must be 2-D (states x actions)")
        check_rows(probs, "policy row")
        object.__setattr__(self, "probs", read_only(probs, float))

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]


def step(spec: GameSpec, state: int, u1: int, u2: int) -> tuple[int, float, float]:
    """Advance the game one step.

    Returns ``(next_state, ego_reward, env_reward)`` with both rewards
    evaluated at the successor state.

    Raises
    ------
    ValueError
        If ``state``, ``u1`` or ``u2`` is out of range.
    """
    if not 0 <= state < spec.num_states:
        raise ValueError(f"state {state} out of range [0, {spec.num_states})")
    if not 0 <= u1 < spec.num_ego_actions:
        raise ValueError(f"ego action {u1} out of range [0, {spec.num_ego_actions})")
    if not 0 <= u2 < spec.num_env_actions:
        raise ValueError(f"env action {u2} out of range [0, {spec.num_env_actions})")
    nxt = int(spec.transition_table[state, u1, u2])
    return nxt, float(spec.ego_reward_table[nxt]), float(spec.env_reward_table[nxt])
