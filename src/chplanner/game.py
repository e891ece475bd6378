"""Finite two-vehicle dynamic-game primitives.

States and actions are dense integer indices; domain layers supply codecs
between indices and physical values.  Each vehicle moves deterministically
under its own dynamics (see :class:`GameSpec`); all stochasticity in the
planning stack enters through the opponent's policy.  Every object here
checks its contract when it is constructed and is immutable afterwards, so
a spec or policy that exists is well formed and safe to share across threads.
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
    the two successor tables and the policy tables the inference kernel
    reads, and for the Q tables.
    """
    arr = np.asarray(values, dtype=dtype)
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Two-vehicle product game ``<X, U1 x U2, T, {R1, R2}, X_safe, discount, horizon>``.

    ``ego_successors[e, u1]`` is the ego's next cell from cell ``e`` under
    ``u1``, ``env_successors[h, u2]`` the env vehicle's from ``h`` under
    ``u2``.  A state is a pair of cells, ``x = e * n_h + h`` with
    ``|X| = n_e * n_h`` (a state vector reshapes to the ``(n_e, n_h)``
    :attr:`grid`), and ``T[x, u1, u2] = ego_successors[e, u1] * n_h +
    env_successors[h, u2]`` (:meth:`successor`).  No joint table is built,
    and only such products of two moves can be described.  Both tables are
    int32 and read-only (see :func:`read_only`): the inference kernel reads
    them and the plan memo keys on that kernel.  Rewards are functions of
    the successor state, one value per state and player; ``safe_set`` is
    one read-only boolean mask, time-invariant, so the paper's ``{X_t}`` is
    the same mask at every step.

    Construction checks the whole contract and raises ``ValueError`` naming
    the field: 2-D successor tables with a cell and an action, fewer than
    ``2**31`` states (by shape), every successor a cell of its table before
    the cast to int32 (naming the first bad ``(cell, action)``), reward and
    safe-set shapes, finite rewards, ``discount`` in (0, 1], ``horizon >= 1``.
    """

    ego_successors: np.ndarray = field(repr=False)
    env_successors: np.ndarray = field(repr=False)
    ego_reward_table: np.ndarray = field(repr=False)
    env_reward_table: np.ndarray = field(repr=False)
    safe_set: np.ndarray = field(repr=False)
    discount: float
    horizon: int

    def __post_init__(self):
        tables = {}
        for name in ("ego_successors", "env_successors"):
            table = tables[name] = np.asarray(getattr(self, name))
            if table.ndim != 2 or 0 in table.shape:
                raise ValueError(f"{name} must be 2-D (cells x actions) with at least one "
                                 f"cell and one action, got shape {table.shape}")
        (n_e, _), (n_h, _) = (table.shape for table in tables.values())
        num_states = n_e * n_h
        if num_states >= 2**31:
            raise ValueError(f"ego_successors x env_successors give {n_e} x {n_h} = "
                             f"{num_states} states, int32 holds < 2**31")
        for (name, table), action in zip(tables.items(), ("u1", "u2")):
            # Checked in the table's own dtype before the cast, so an entry
            # of 2**32 + 1 cannot wrap to a valid cell.
            if table.dtype.kind not in "iu":
                table = table.astype(np.int64)
            n = len(table)
            if table.min() < 0 or table.max() >= n:
                cell, u = np.argwhere((table < 0) | (table >= n))[0]
                raise ValueError(f"{name} out of range [0, {n}) at (cell={cell}, "
                                 f"{action}={u}): -> {table[cell, u]}")
            object.__setattr__(self, name, read_only(table, np.int32))
        for name, dtype in (
            ("ego_reward_table", float),
            ("env_reward_table", float),
            ("safe_set", bool),
        ):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.shape != (num_states,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({num_states},)")
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
    def grid(self) -> tuple[int, int]:
        """``(n_e, n_h)``: the ego's and the env vehicle's cell counts."""
        return len(self.ego_successors), len(self.env_successors)

    @property
    def num_states(self) -> int:
        return len(self.ego_successors) * len(self.env_successors)

    @property
    def num_ego_actions(self) -> int:
        return self.ego_successors.shape[1]

    @property
    def num_env_actions(self) -> int:
        return self.env_successors.shape[1]

    def num_actions(self, player: int) -> int:
        return self.successors(player).shape[1]

    def successors(self, player: int) -> np.ndarray:
        """``player``'s ``(cells, actions)`` successor table."""
        return _of_player(player, self.ego_successors, self.env_successors)

    def rewards(self, player: int) -> np.ndarray:
        """Vector of per-state reward values ``R^player(x)`` over all states."""
        return _of_player(player, self.ego_reward_table, self.env_reward_table)

    def successor(self, state: int, u1: int, u2: int) -> int:
        """``T[state, u1, u2]``, the two vehicles' moves composed; arguments unchecked."""
        n_h = len(self.env_successors)
        e, h = divmod(state, n_h)
        return int(self.ego_successors[e, u1]) * n_h + int(self.env_successors[h, u2])


def _of_player(player: int, ego, env):
    if player == EGO:
        return ego
    if player == ENV:
        return env
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
    """``(next_state, ego_reward, env_reward)``, both rewards at the successor state.

    Raises ``ValueError`` if ``state``, ``u1`` or ``u2`` is out of range.
    """
    for name, value, n in (("state", state, spec.num_states),
                           ("ego action", u1, spec.num_ego_actions),
                           ("env action", u2, spec.num_env_actions)):
        if not 0 <= value < n:
            raise ValueError(f"{name} {value} out of range [0, {n})")
    nxt = spec.successor(state, u1, u2)
    return nxt, float(spec.ego_reward_table[nxt]), float(spec.env_reward_table[nxt])
