"""Level inference over the augmented state space (physical state x level).

The opponent's reasoning level is a hidden, static component of the state.
Conditioned on it, the opponent's action is a stochastic disturbance drawn
from the corresponding level-k policy, which makes the joint system a Markov
chain per ego action.  This module builds that chain as a sparse kernel and
performs the Bayesian posterior update from the observed physical state and
the executed ego action.

The physical state is observed exactly and the level never changes, so
every belief the filter forms is a point mass in physical state: a
:class:`Belief` is the observed state plus a K-vector of level weights,
never a dense |X|·K vector.  Its support in the augmented space is
``{state} x K``, indexed level-major: ``aug = level_index * |X| + x``.

The kernel is assembled a block of consecutive states at a time, so its
build needs the finished CSR arrays plus a few MB, not a sort over every
(state, u1, u2) entry at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
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


# Bound on the (state, u1, u2) entries :func:`build_kernel` sorts and merges
# at once; it caps the build's temporaries at a few MB.
KERNEL_BLOCK_ENTRIES = 1 << 17


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


@dataclass(frozen=True)
class AugmentedKernel:
    """Sparse transition kernel ``P(aug' | aug, u1)`` in compressed row form.

    Row ``aug * num_ego_actions + u1`` stores the successor augmented states
    and their probabilities.  The level component is conserved exactly: a
    row's targets always carry the source row's level.  Each row sums to one
    within ``ROW_SUM_TOL`` and duplicate successors are merged.  The three
    arrays are read-only, so planners may cache results keyed on the kernel.
    """

    num_states: int
    num_ego_actions: int
    levels: tuple[int, ...]
    indptr: np.ndarray
    targets: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("targets", np.int64), ("probs", float)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))

    @property
    def num_augmented(self) -> int:
        return self.num_states * len(self.levels)

    def row(self, aug: int, u1: int) -> tuple[np.ndarray, np.ndarray]:
        """Successors and probabilities for one (augmented state, ego action)."""
        r = aug * self.num_ego_actions + u1
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.targets[lo:hi], self.probs[lo:hi]

    def expand_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate the entries of several rows.

        Returns ``(which_row, targets, probs)`` where ``which_row[i]`` is the
        position in ``rows`` that entry ``i`` belongs to.
        """
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        total = int(counts.sum())
        which = np.repeat(np.arange(rows.size), counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        flat = np.repeat(starts, counts) + offsets
        return which, self.targets[flat], self.probs[flat]


def build_kernel(spec: GameSpec, env_policies: Mapping[int, PolicyTable]) -> AugmentedKernel:
    """Assemble the augmented kernel from one env policy per hypothesized level.

    ``P((x', k) | (x, k), u1)`` sums the policy mass of every env action
    ``u2`` with ``T(x, u1, u2) = x'``; transitions across levels have zero
    probability and are not stored.  A row lists its targets ascending, the
    mass of env actions that reach the same target summed in env-action
    order; env actions without mass add no entry.

    Two passes run over blocks of consecutive states, each block at most
    ``KERNEL_BLOCK_ENTRIES`` ``(state, u1, u2)`` entries.  The first counts
    every row's successors without sorting, so ``indptr`` is final and the
    target and probability arrays are allocated once, at their final size.
    The second sorts each block's rows by target once, for all levels, and
    writes every level's merged rows in place.  The build's temporaries
    stay a constant size however large the game, and the result does not
    depend on the block size.
    """
    if not env_policies:
        raise ValueError("env_policies must contain at least one level")
    levels = tuple(sorted(env_policies))
    table = spec.transition_table
    nx, nu1, nu2 = table.shape
    for level in levels:
        policy = env_policies[level]
        if policy.player != ENV:
            raise ValueError(f"policy for level {level} belongs to player {policy.player}")
        if policy.probs.shape != (nx, nu2):
            raise ValueError(
                f"policy for level {level} has shape {policy.probs.shape}, "
                f"expected ({nx}, {nu2})"
            )
    policies = [env_policies[level].probs for level in levels]
    block = max(1, KERNEL_BLOCK_ENTRIES // (nu1 * nu2))
    blocks = [(lo, min(lo + block, nx)) for lo in range(0, nx, block)]

    indptr = np.zeros(len(levels) * nx * nu1 + 1, dtype=np.int64)
    counts = indptr[1:].reshape(len(levels), nx, nu1)
    for lo, hi in blocks:
        for li, policy in enumerate(policies):
            _count_successors(table[lo:hi], policy[lo:hi] > 0.0, counts[li, lo:hi])
    if not counts.all():
        raise ValueError("kernel has empty rows; env policies assign no mass somewhere")
    np.cumsum(indptr, out=indptr)

    targets = np.empty(indptr[-1], dtype=np.int64)
    probs = np.empty(indptr[-1])
    for lo, hi in blocks:
        rows = (hi - lo) * nu1
        block_table = table[lo:hi].reshape(rows, nu2)
        order = np.argsort(block_table, axis=1, kind="stable")
        sorted_targets = np.take_along_axis(block_table, order, axis=1).ravel()
        new_group = np.empty(sorted_targets.size, dtype=bool)
        new_group[1:] = sorted_targets[1:] != sorted_targets[:-1]
        new_group[::nu2] = True
        group = np.cumsum(new_group)
        # Entry (row, j) draws the mass of env action order[row, j] in row // nu1's state.
        mass_index = (order + (np.arange(rows) // nu1 * nu2)[:, None]).ravel()
        for li, policy in enumerate(policies):
            mass = policy[lo:hi].ravel()[mass_index]
            # Drop the massless entries before merging: numpy's reduceat adds
            # a group's first entry to the sum of the rest, so a leading zero
            # would change the summation order.
            kept = np.flatnonzero(mass > 0.0)
            first = np.diff(group[kept], prepend=0) != 0
            heads = kept[first]
            block_probs = np.add.reduceat(mass[kept], np.flatnonzero(first))
            start, stop = indptr[(li * nx + lo) * nu1], indptr[(li * nx + hi) * nu1]
            np.add(sorted_targets[heads], li * nx, out=targets[start:stop])
            probs[start:stop] = block_probs
            rowsums = np.bincount(heads // nu2, weights=block_probs, minlength=rows)
            if np.abs(rowsums - 1.0).max() > ROW_SUM_TOL:
                raise ValueError("kernel rows do not sum to 1; env policies are inconsistent")
    return AugmentedKernel(
        num_states=nx,
        num_ego_actions=nu1,
        levels=levels,
        indptr=indptr,
        targets=targets,
        probs=probs,
    )


def _count_successors(table: np.ndarray, massive: np.ndarray, out: np.ndarray) -> None:
    """Add each (state, u1) row's number of distinct targets with mass to ``out``.

    ``table`` is a block of the transition table, ``massive`` marks the env
    actions with mass in each of its states.  An entry opens a new successor
    if it has mass and no earlier entry of its row with mass shares its
    target; no sort is needed.
    """
    seen = np.empty(out.shape, dtype=bool)
    for j in range(table.shape[2]):
        seen[:] = False
        for i in range(j):
            seen |= (table[:, :, i] == table[:, :, j]) & massive[:, i, None]
        out += massive[:, j, None] & ~seen


def _level_likelihoods(
    kernel: AugmentedKernel, prior: Belief, executed_u1: int, observed_y: int
) -> np.ndarray:
    """Unnormalized posterior mass arriving at ``(observed_y, k)`` per level."""
    nx = kernel.num_states
    masses = np.zeros(len(kernel.levels))
    support, mass = prior.support(kernel)
    which, targets, probs = kernel.expand_rows(support * kernel.num_ego_actions + executed_u1)
    hit = (targets % nx) == observed_y
    np.add.at(masses, targets[hit] // nx, probs[hit] * mass[which[hit]])
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
