"""Recursive construction of the human's level-k softmax policies.

A level-k policy is the softmax of a Q-table computed against the opponent's
level-(k-1) policy.  Only the human (env) ladder is kept: the ego plans by
receding-horizon control, so its level-k policies are built only below
``k_max``, as the rungs the next env level responds to.

The Q-value of ``(x, u)`` is the best expected discounted reward over
*open-loop* continuations: the maximization runs over fixed action
sequences (first action pinned to ``u``) and sits outside the expectation
over opponent behavior.  A closed-loop dynamic program would in general
give different (larger) values and is intentionally not what is computed
here.  Hard state constraints are never imposed during hierarchy
construction; safety enters only through the game's reward penalties.

Every backup has one form: the reward is folded into the tail as one state
vector, ``discount * tail + R``, gathered on the (ego cell, env cell) grid
along the own vehicle's axis, then per opponent action along the other, and
the opponent terms are added in order, left to right.  Each Q computation
splits its suffix tree between up to ``MAX_Q_WORKERS`` threads, one per
core, with byte-identical results (see :func:`compute_q`).
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .game import EGO, ENV, GameSpec, PolicyTable, read_only

__all__ = [
    "QTable",
    "Hierarchy",
    "softmax_policy",
    "compute_q",
    "build_hierarchy",
    "hierarchy_content_hash",
    "save_hierarchy",
    "load_hierarchy",
]

# Hashed into every content hash: bump it whenever the cache layout, the
# Q-tables' meaning or how the tables and anchors follow from the hashed
# inputs changes, so no stale table is ever reused.
CACHE_FORMAT_VERSION = 5

# Most workers one Q build splits its suffix tree between: each holds a
# scratch set of its own (see compute_q), and only two were measured.
MAX_Q_WORKERS = 2


@dataclass(frozen=True)
class QTable:
    """State-action values for one player at one reasoning level.

    ``values`` is held read-only (see :func:`~chplanner.game.read_only`).
    """

    level: int
    player: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("Q-table must be 2-D (states x actions)")
        if not np.isfinite(values).all():
            raise ValueError("Q-table contains non-finite entries")
        object.__setattr__(self, "values", read_only(values, float))


@dataclass(frozen=True)
class Hierarchy:
    """The human's policies ``env(0..k_max)``, one per reasoning level."""

    env_policies: tuple[PolicyTable, ...]

    @property
    def k_max(self) -> int:
        return len(self.env_policies) - 1

    def env(self, k: int) -> PolicyTable:
        return self.env_policies[k]


def softmax_policy(q: QTable, temperature: float = 1.0) -> PolicyTable:
    """Row-wise softmax of a Q-table, computed with max subtraction.

    With the default unit temperature the action probabilities are
    proportional to ``exp(Q(x, u))``; reward scaling therefore controls how
    sharp the resulting policy is.

    The work runs action-major, on contiguous ``(actions, states)`` rows;
    the normaliser adds the action rows in order, left to right, as the
    backups in :func:`compute_q` do.
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    probs = np.empty(q.values.shape)  # before the temporaries, as in compute_q
    z = np.divide(q.values.T, temperature, order="C")
    z -= np.maximum.reduce(z, axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    probs[...] = z.T
    return PolicyTable(level=q.level, player=q.player, probs=probs)


class _Tables(NamedTuple):
    """A Q build's action-major game tables, read by every worker.

    ``own_succ[u]`` is every own cell's successor under own action ``u``,
    ``opp_succ[o]`` every opponent cell's under ``o``, ``own_axis`` the own
    vehicle's axis of the (ego cell, env cell) grid, ``rewards`` the reward
    vector and ``opp_cols[o]`` the opponent's probability of ``o``.
    """

    own_succ: np.ndarray
    opp_succ: np.ndarray
    own_axis: int
    rewards: np.ndarray
    opp_cols: np.ndarray
    discount: float


class _Scratch(NamedTuple):
    """One worker's buffers; the calling thread allocates them (see compute_q).

    ``gathered`` is the ``(n_e, n_h)`` grid a folded tail is gathered into
    along the own vehicle's axis, ``terms`` one backup's ``(opponent action,
    state)`` terms.  Row 0 of ``vectors`` is the zero tail; rows ``2d - 1``
    and ``2d`` are depth ``d``'s folded tail ``discount * tail + R`` and
    backup.  ``values`` holds the worker's per-action maxima.
    """

    gathered: np.ndarray
    terms: np.ndarray
    vectors: np.ndarray
    values: np.ndarray


def _scratch(n_own: int, n_opp: int, grid: tuple[int, int], horizon: int) -> _Scratch:
    vectors = np.empty((2 * horizon + 1, grid[0] * grid[1]))
    vectors[0] = 0.0
    return _Scratch(
        gathered=np.empty(grid),
        terms=np.empty((n_opp, vectors.shape[1])),
        vectors=vectors,
        values=np.full((n_own, vectors.shape[1]), -np.inf),
    )


def _backups(
    tables: _Tables, tail: np.ndarray, actions: range, scratch: _Scratch, depth: int,
) -> Iterator[np.ndarray]:
    """Yield the backup of ``tail`` under each own action in ``actions``.

    The backup is a depth-``depth`` suffix value.  The reward is folded
    into the tail once, ``folded = discount * tail + R``; each backup
    gathers ``folded`` on the grid along the own vehicle's axis into
    ``scratch.gathered``, then that along the opponent's into one row of
    ``scratch.terms`` per opponent action, and weights the rows and adds
    them in order.  Every yield is the same buffer, overwritten by the next.
    """
    folded, out = scratch.vectors[2 * depth - 1], scratch.vectors[2 * depth]
    np.multiply(tables.discount, tail, out=folded)
    folded += tables.rewards
    gathered, terms = scratch.gathered, scratch.terms
    term_grids = terms.reshape(len(terms), *gathered.shape)
    for u in actions:
        # terms[o] = P[o] * (R[nxt] + discount * tail[nxt]), nxt under (u, o).
        # Mode "clip" writes straight into the buffers ("raise" would buffer
        # them); GameSpec keeps every successor in range.
        np.take(folded.reshape(gathered.shape), tables.own_succ[u], axis=tables.own_axis,
                out=gathered, mode="clip")
        for o, succ in enumerate(tables.opp_succ):
            np.take(gathered, succ, axis=1 - tables.own_axis, out=term_grids[o], mode="clip")
        terms *= tables.opp_cols
        # A C-contiguous axis-0 sum adds whole rows left to right into out
        # (numpy sums a one-state game's single-entry rows pairwise from 9).
        yield terms.sum(axis=0, out=out)


def _suffix_values(
    tables: _Tables, depth: int, scratch: _Scratch, share: tuple[int, int] = (0, 1),
) -> Iterator[np.ndarray]:
    """Yield one expected-value vector per own-action suffix of ``depth`` steps.

    For a suffix ``(a_1, ..., a_d)`` the yielded vector holds, per start
    state, the expected value of ``sum_j discount^(j-1) R(x_j)`` when the
    player executes the suffix and the opponent draws from its policy at
    each visited state independently.  Shared suffix tails are evaluated
    once (depth-first enumeration), keeping the cost at
    ``sum_d |U_own|^d`` vectorized backups.  The first action ``a_1`` varies
    fastest: the i-th vector belongs to a suffix starting with ``i % |U_own|``.

    With ``share = (k, n)`` only the vectors whose index is ``k`` modulo
    ``n`` are computed and yielded; the shallower tails are all computed.
    """
    k, n = share
    if depth == 0:
        if k == 0:
            yield scratch.vectors[0]
        return
    n_own = len(tables.own_succ)
    for j, tail in enumerate(_suffix_values(tables, depth - 1, scratch)):
        actions = range((k - j * n_own) % n, n_own, n)
        if actions:
            yield from _backups(tables, tail, actions, scratch, depth)


def _q_worker(tables: _Tables, horizon: int, share: tuple[int, int], scratch: _Scratch) -> None:
    """Fold one worker's share of the suffixes into ``scratch.values``.

    With ``share = (k, n)`` the worker takes the depth-``horizon - 1``
    tails whose index is ``k`` modulo ``n``, re-deriving the shallower
    tails itself, and the ``|U_own|`` root backups above each; ``values[u]``
    becomes the maximum over those root backups with first action ``u``.
    Every buffer comes from ``scratch``, so the worker allocates nothing
    the size of the state space.
    """
    values = scratch.values
    for tail in _suffix_values(tables, horizon - 1, scratch, share):
        for u, v in enumerate(_backups(tables, tail, range(len(values)), scratch, horizon)):
            np.maximum(values[u], v, out=values[u])


def _worker_count(n_tails: int) -> int:
    """Workers for a Q build with ``n_tails`` depth-``horizon - 1`` tails."""
    return min(len(os.sched_getaffinity(0)), MAX_Q_WORKERS, n_tails)


def compute_q(spec: GameSpec, player: int, opponent_policy: PolicyTable) -> QTable:
    """Open-loop expectimax Q-table for ``player`` against a fixed opponent policy.

    ``Q[x, u]`` is the maximum over the player's own action sequences of
    length ``horizon - 1`` (the first action being ``u``) of the exact
    expected discounted reward over ``horizon`` steps, with the opponent
    sampling independently per visited state from ``opponent_policy`` and
    states evolving through the game transition.  The expectation enumerates
    all opponent branches; nothing is sampled.

    The reward is folded into each tail (``discount * tail + R``), which
    each backup gathers with the two vehicles' successor tables into
    ``n_opp`` rows, added in opponent-action order (see :func:`_backups`).

    The suffix tree is split between :func:`_worker_count` workers, each
    taking every n-th depth-``horizon - 1`` tail (see :func:`_q_worker`);
    the first runs on the calling thread, the others on threads of their
    own, and their maxima are merged with ``np.maximum``.  A suffix value
    goes through the same float operations in whichever worker computes
    it and the maximum is exact (no backup is -0.0: every row has a term of
    positive probability), so any split gives the same bytes.  The calling
    thread allocates every worker's buffers: glibc keeps a thread's own
    malloc arena after the thread ends, so memory a worker allocated would
    stay resident.  An error raised in a worker is re-raised here once
    every worker has ended.
    """
    if player not in (EGO, ENV):
        raise ValueError(f"player must be {EGO} or {ENV}, got {player}")
    if opponent_policy.player == player:
        raise ValueError("opponent_policy belongs to the same player")
    n_own = spec.num_actions(player)
    n_opp = spec.num_actions(opponent_policy.player)
    nx = spec.num_states
    if opponent_policy.probs.shape != (nx, n_opp):
        raise ValueError(
            f"opponent policy shape {opponent_policy.probs.shape} does not match "
            f"({nx}, {n_opp})"
        )
    # The kept table is allocated before the temporaries, so the heap they
    # free lies above it and can be returned to the system.
    q_values = np.empty((nx, n_own))
    # Action-major successor rows, (actions, cells): a few KB each.
    own_succ, opp_succ = (np.ascontiguousarray(spec.successors(p).T, dtype=np.intp)
                          for p in (player, opponent_policy.player))
    tables = _Tables(own_succ, opp_succ, 0 if player == EGO else 1, spec.rewards(player),
                     np.ascontiguousarray(opponent_policy.probs.T), spec.discount)
    n = _worker_count(n_own ** (spec.horizon - 1))
    scratches = [_scratch(n_own, n_opp, spec.grid, spec.horizon) for _ in range(n)]
    jobs = [(tables, spec.horizon, (k, n), scratch) for k, scratch in enumerate(scratches)]
    # The pool starts a thread per submitted job only: one worker runs inline.
    with ThreadPoolExecutor(max(n - 1, 1)) as pool:
        others = [pool.submit(_q_worker, *job) for job in jobs[1:]]
        _q_worker(*jobs[0])
    for future in others:
        future.result()
    # Own-action-major, so each maximum is one contiguous row.
    values = scratches[0].values
    for scratch in scratches[1:]:
        np.maximum(values, scratch.values, out=values)
    q_values[...] = values.T
    return QTable(level=opponent_policy.level + 1, player=player, values=q_values)


def build_hierarchy(
    spec: GameSpec,
    k_max: int,
    level0_ego: PolicyTable,
    level0_env: PolicyTable,
    temperature: float = 1.0,
) -> Hierarchy:
    """Build the human's softmax policies for levels ``1..k_max``.

    Level ``k`` of one player responds to level ``k-1`` of the other:
    ``env[k] = softmax(Q(env | ego[k-1]))`` with
    ``ego[k] = softmax(Q(ego | env[k-1]))``.  The ego rungs are built only
    for ``k < k_max``, to feed the next env level, and are not kept.  The
    construction is deterministic: identical inputs reproduce the tables bit
    for bit.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    for policy, player, name in ((level0_ego, EGO, "level0_ego"), (level0_env, ENV, "level0_env")):
        if policy.player != player:
            raise ValueError(f"{name} carries player={policy.player}")
        if policy.level != 0:
            raise ValueError(f"{name} carries level={policy.level}")
        if policy.probs.shape != (spec.num_states, spec.num_actions(player)):
            raise ValueError(f"{name} shape {policy.probs.shape} does not match the game")

    env_policies = [level0_env]
    ego = level0_ego
    for k in range(1, k_max + 1):
        env_policies.append(softmax_policy(compute_q(spec, ENV, ego), temperature))
        if k < k_max:
            ego = softmax_policy(compute_q(spec, EGO, env_policies[k - 1]), temperature)
    return Hierarchy(env_policies=tuple(env_policies))


def _hash_array(h, arr: np.ndarray, dtype: str) -> None:
    # Hashed in place: a table already C-contiguous in ``dtype`` is not copied.
    a = np.ascontiguousarray(arr, dtype=dtype)
    h.update(np.asarray(a.shape, dtype="<i8").tobytes())
    h.update(a)


def hierarchy_content_hash(ints: Sequence[int], floats: Sequence[float], arrays) -> str:
    """Hex sha256 of a build's inputs: the format tag, a numeric header and arrays.

    The header is ``ints`` as ``"<i8"`` then ``floats`` as ``"<f8"``; each
    ``(array, dtype)`` pair adds the array's shape and its bytes in
    ``dtype``, little-endian C layout, so the hash is platform independent.
    An array already in that layout is hashed in place, allocating nothing.
    ``CACHE_FORMAT_VERSION`` is in the tag, so it stands for everything
    that turns these inputs into tables (see ``traffic.hierarchy_key``).
    """
    h = hashlib.sha256()
    h.update(b"chplanner-hierarchy-v%d" % CACHE_FORMAT_VERSION)
    h.update(np.array(ints, dtype="<i8").tobytes())
    h.update(np.array(floats, dtype="<f8").tobytes())
    for arr, dtype in arrays:
        _hash_array(h, arr, dtype)
    return h.hexdigest()


def save_hierarchy(path, hierarchy: Hierarchy, content_hash: str) -> None:
    """Write a hierarchy to ``path`` as an ``.npz`` archive.

    The archive holds ``meta_json`` (format version, ``k_max``, content hash)
    and the env tables ``env_0..env_<k_max>`` as little-endian float64.
    The archive is written to a temporary file in the same directory and
    then renamed over ``path``, so an interrupted write never leaves a
    partial archive under the final name.
    """
    meta = {
        "format_version": CACHE_FORMAT_VERSION,
        "k_max": hierarchy.k_max,
        "content_hash": content_hash,
    }
    arrays = {"meta_json": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for k, pol in enumerate(hierarchy.env_policies):
        arrays[f"env_{k}"] = np.asarray(pol.probs, dtype="<f8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_hierarchy(path) -> tuple[Hierarchy, str]:
    """Load a hierarchy cache written by :func:`save_hierarchy`.

    Returns the hierarchy and the content hash it was saved under.
    """
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta_json"].tobytes()).decode())
        if meta["format_version"] != CACHE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported hierarchy cache version {meta['format_version']}"
            )
        k_max = int(meta["k_max"])
        env = tuple(
            PolicyTable(level=k, player=ENV, probs=np.asarray(data[f"env_{k}"], dtype=float))
            for k in range(k_max + 1)
        )
    return Hierarchy(env_policies=env), meta["content_hash"]
