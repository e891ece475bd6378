"""Level inference over the augmented state space (physical state x level).

The opponent's reasoning level is a hidden, static component of the state.
Conditioned on it, the opponent's action is a stochastic disturbance drawn
from the corresponding level-k policy, which makes the joint system a Markov
chain per ego action.  This module holds that chain as a kernel and
performs the Bayesian posterior update from the observed physical state and
the executed ego action.

The physical state is observed exactly and the level never changes, so
every belief the filter forms is a point mass in physical state: a
:class:`Belief` is the observed state plus a K-vector of level weights,
never a dense |X|·K vector.  Its support in the augmented space is
``{state} x K``, indexed level-major: ``aug = level_index * |X| + x``.

The kernel is factored: it references the game's two successor tables and
the K env policy tables and computes a row only when asked for, so building
it allocates nothing table-sized, and an episode pays for the few hundred rows
its plans read, not for all |X|·K·|U1| of them.  The Bayesian update reads
the tables directly and expands no row.  The compressed-row form of the
whole kernel remains as a view built on first read, for readers outside the
package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .game import ENV, ROW_SUM_TOL, GameSpec, PolicyTable, read_only

__all__ = [
    "Belief",
    "AugmentedKernel",
    "InconsistentObservationError",
    "build_kernel",
    "bayes_update",
    "init_belief",
]


# Bound on the (row, u2) entries the CSR view of :class:`AugmentedKernel`
# computes at once; it caps the view's temporaries at a few MB.
KERNEL_BLOCK_ENTRIES = 1 << 17
# The one segment of :func:`np.add.reduceat` that merges a target's masses.
_SEGMENT = np.zeros(1, dtype=np.intp)
_NO_HITS = np.zeros(0, dtype=np.intp)


class InconsistentObservationError(ValueError):
    """The observed state has zero predicted probability under the prior."""


@dataclass(frozen=True)
class Belief:
    """Point-mass belief: the observed physical state and the level weights.

    ``weights[i]`` is the posterior mass of the kernel's ``i``-th level; the
    belief puts it on augmented state ``i * |X| + state``.  Only the weights
    are checked here; :meth:`support` checks the state and the level count
    against a kernel.
    """

    state: int
    weights: np.ndarray

    def __post_init__(self):
        if not isinstance(self.state, numbers.Integral):
            raise ValueError(f"belief state must be an integer, got {self.state!r}")
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("belief weights must be a nonempty vector")
        if not weights.min() >= 0.0:
            raise ValueError("belief weights must be nonnegative")
        if abs(weights.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"belief must sum to 1 within {ROW_SUM_TOL}, got {weights.sum()!r}")
        weights.flags.writeable = False
        object.__setattr__(self, "state", int(self.state))
        object.__setattr__(self, "weights", weights)

    @property
    def num_levels(self) -> int:
        return self.weights.size

    def support(self, kernel: "AugmentedKernel") -> tuple[np.ndarray, np.ndarray]:
        """Augmented states carrying mass, level-major, and their mass."""
        if not 0 <= self.state < kernel.num_states:
            raise ValueError(
                f"belief state {self.state} out of range [0, {kernel.num_states})"
            )
        if self.weights.size != len(kernel.levels):
            raise ValueError(
                f"belief has {self.weights.size} level weights, "
                f"the kernel {len(kernel.levels)} levels"
            )
        levels = np.flatnonzero(self.weights)
        return levels * kernel.num_states + self.state, self.weights[levels]


@dataclass(frozen=True, eq=False)
class AugmentedKernel:
    """Transition kernel ``P(aug' | aug, u1)`` over (physical state x level), factored.

    Row ``aug * num_ego_actions + u1`` of augmented state
    ``aug = level_index * |X| + x`` lists the successor augmented states and
    their probabilities: each target ``level_index * |X| + T[x, u1, u2]``
    once, ascending, with the mass of the level's env actions that reach it
    merged (``T`` composes the two successor tables, see :class:`GameSpec`).
    The level component is conserved exactly, so transitions across levels
    are not stored.

    The kernel holds the game's two successor tables and one env policy
    table per level, the very arrays of the :class:`GameSpec` and the
    ``PolicyTable`` objects, which are read-only; no row is stored.
    :meth:`expand_rows` computes the rows a caller asks for.  An object whose
    arrays no write can reach never changes, so planners may cache results
    keyed on the kernel.

    ``indptr``, ``targets`` and ``probs`` are the compressed-row form of
    every row.  They are built on first read, by :meth:`expand_rows` one
    block of rows at a time, for callers outside the package that read the
    whole kernel; nothing in the package reads them.
    """

    ego_successors: np.ndarray = field(repr=False)
    env_successors: np.ndarray = field(repr=False)
    env_probs: tuple[np.ndarray, ...] = field(repr=False)
    levels: tuple[int, ...]

    @cached_property  # read several times per belief update
    def num_states(self) -> int:
        return len(self.ego_successors) * len(self.env_successors)

    @property
    def num_ego_actions(self) -> int:
        return self.ego_successors.shape[1]

    @property
    def num_augmented(self) -> int:
        return self.num_states * len(self.levels)

    def row(self, aug: int, u1: int) -> tuple[np.ndarray, np.ndarray]:
        """Successors and probabilities for one (augmented state, ego action)."""
        _, targets, probs = self.expand_rows(np.array([aug * self.num_ego_actions + u1]))
        return targets, probs

    def expand_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate the entries of several rows, computed from the tables.

        Returns ``(which_row, targets, probs)`` where ``which_row[i]`` is the
        position in ``rows`` that entry ``i`` belongs to; entries follow
        ``rows`` in order, each row's targets ascending.

        The massless env actions are dropped first; the rest are sorted
        stably by (position in ``rows``, target), so equal targets stay in
        env-action order, and each run of equal targets is merged with
        ``np.add.reduceat``: the first entry plus the rest.  A leading zero
        would change that order, which is why massless entries go first.  A
        row does not depend on the other rows asked for.
        """
        nx, n_h = self.num_states, len(self.env_successors)
        aug, u1 = np.divmod(np.asarray(rows, dtype=np.int64), self.num_ego_actions)
        level, x = np.divmod(aug, nx)
        e, h = np.divmod(x, n_h)
        # (rows, |U2|) successors: the ego's cell, then each env action's.
        succ = self.env_successors[h]
        succ += (self.ego_successors[e, u1] * n_h)[:, None]
        mass = np.empty(succ.shape)
        for li, probs in enumerate(self.env_probs):
            copy = level == li
            mass[copy] = probs[x[copy]]
        kept = np.flatnonzero(mass > 0.0)
        key = kept // succ.shape[1] * nx + succ.ravel()[kept]
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        heads = np.flatnonzero(first)
        probs = np.add.reduceat(mass.ravel()[kept[order]], heads)
        which, targets = np.divmod(key[heads], nx)
        return which, targets + level[which] * nx, probs

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Two passes over blocks of at most KERNEL_BLOCK_ENTRIES (row, u2)
        # entries: the first counts each row's entries, so the target and
        # probability arrays are allocated once at their final size; the
        # second fills them.  The temporaries stay one block's size.
        nrows = self.num_augmented * self.num_ego_actions
        step = max(1, KERNEL_BLOCK_ENTRIES // self.env_successors.shape[1])
        blocks = [(lo, min(lo + step, nrows)) for lo in range(0, nrows, step)]
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        for lo, hi in blocks:
            which, _, _ = self.expand_rows(np.arange(lo, hi))
            indptr[lo + 1:hi + 1] = np.bincount(which, minlength=hi - lo)
        np.cumsum(indptr, out=indptr)
        targets = np.empty(indptr[-1], dtype=np.int64)
        probs = np.empty(indptr[-1])
        for lo, hi in blocks:
            _, block_targets, block_probs = self.expand_rows(np.arange(lo, hi))
            targets[indptr[lo]:indptr[hi]] = block_targets
            probs[indptr[lo]:indptr[hi]] = block_probs
        return read_only(indptr, np.int64), read_only(targets, np.int64), read_only(probs, float)

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def targets(self) -> np.ndarray:
        return self._csr[1]

    @property
    def probs(self) -> np.ndarray:
        return self._csr[2]


def build_kernel(spec: GameSpec, env_policies: Mapping[int, PolicyTable]) -> AugmentedKernel:
    """The augmented kernel of ``spec`` with one env policy per hypothesized level.

    ``P((x', k) | (x, k), u1)`` sums the policy mass of every env action
    ``u2`` with ``T(x, u1, u2) = x'``.  Levels are ordered ascending.  The
    kernel references the spec's two successor tables and the policies'
    tables and copies none, so the build allocates nothing table-sized.  Every
    policy must belong to the env player and match the game's shape.  A
    ``PolicyTable``'s rows are distributions by contract (see
    :func:`~chplanner.game.check_rows`), so no kernel row is empty and each
    sums to one as its policy row does.
    """
    if not env_policies:
        raise ValueError("env_policies must contain at least one level")
    levels = tuple(sorted(env_policies))
    nx, nu2 = spec.num_states, spec.num_env_actions
    for level in levels:
        policy = env_policies[level]
        if policy.player != ENV:
            raise ValueError(f"policy for level {level} belongs to player {policy.player}")
        if policy.probs.shape != (nx, nu2):
            raise ValueError(
                f"policy for level {level} has shape {policy.probs.shape}, "
                f"expected ({nx}, {nu2})"
            )
    return AugmentedKernel(
        ego_successors=spec.ego_successors,
        env_successors=spec.env_successors,
        env_probs=tuple(env_policies[level].probs for level in levels),
        levels=levels,
    )


def _level_likelihoods(
    kernel: AugmentedKernel, prior: Belief, executed_u1: int, observed_y: int
) -> np.ndarray:
    """Unnormalized posterior mass arriving at ``(observed_y, k)`` per level.

    Level ``k``'s mass is its prior weight times its kernel probability of
    ``observed_y``: the mass of the env actions that reach ``observed_y``,
    massless ones dropped, merged with ``np.add.reduceat`` in env-action
    order as :meth:`AugmentedKernel.expand_rows` merges them, so it equals
    the row's entry bit for bit.  No row is expanded.
    """
    support, weights = prior.support(kernel)
    x = prior.state
    # An env action reaches y if its move reaches y's env cell and the
    # ego's move y's ego cell.
    n_h = len(kernel.env_successors)
    (e, h), (y_e, y_h) = divmod(x, n_h), divmod(observed_y, n_h)
    hits = (np.flatnonzero(kernel.env_successors[h] == y_h)
            if kernel.ego_successors[e, executed_u1] == y_e else _NO_HITS)
    masses = np.zeros(len(kernel.levels))
    for li, weight in zip(support // kernel.num_states, weights):
        mass = kernel.env_probs[li][x, hits]
        mass = mass[mass > 0.0]
        if mass.size:
            masses[li] = np.add.reduceat(mass, _SEGMENT)[0] * weight
    return masses


def bayes_update(
    kernel: AugmentedKernel,
    prior: Belief,
    executed_u1: int,
    observed_y: int,
    floor: float = 0.0,
) -> Belief:
    """Posterior belief after executing ``u1`` and observing the next state.

    The posterior sits on ``observed_y`` with each level's weight
    proportional to the one-step predicted probability of reaching
    ``(observed_y, k)`` from the prior.  With the default ``floor=0`` an
    observation whose total predicted mass is zero raises
    :class:`InconsistentObservationError`; a positive ``floor`` instead lifts
    every level's mass to at least ``floor`` before renormalizing, which
    keeps all levels alive under model mismatch.
    """
    if not 0 <= observed_y < kernel.num_states:
        raise ValueError(f"observed state {observed_y} out of range")
    if not 0 <= executed_u1 < kernel.num_ego_actions:
        raise ValueError(f"executed action {executed_u1} out of range")
    if not (math.isfinite(floor) and floor >= 0.0):
        raise ValueError(f"likelihood floor must be finite and >= 0, got {floor!r}")
    masses = _level_likelihoods(kernel, prior, executed_u1, observed_y)
    if floor > 0.0:
        masses = np.maximum(masses, floor)
    total = masses.sum()
    if total <= 0.0:
        raise InconsistentObservationError(
            f"observation y={observed_y} has zero predicted probability "
            f"under action u1={executed_u1}"
        )
    return Belief(state=observed_y, weights=masses / total)


def init_belief(
    physical_state: int, level_prior: Sequence[float], num_states: int
) -> Belief:
    """Point-mass belief on ``physical_state`` with the given prior over levels."""
    if not 0 <= physical_state < num_states:
        raise ValueError(f"physical state {physical_state} out of range [0, {num_states})")
    return Belief(state=physical_state, weights=level_prior)
