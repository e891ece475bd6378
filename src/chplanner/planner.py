"""Chance-constrained optimization of randomized open-loop action profiles.

The decision variable is a profile of per-stage distributions over ego
actions.  Two exact evaluators drive the solver:

* the expected discounted sum of successor-state rewards under the
  level-mixture opponent model, computed by propagating the predicted
  augmented-state distribution forward and taking reward inner products; and
* the probability that the whole predicted trajectory stays inside the safe
  set, computed by the propagate / accumulate-violation / zero-out
  recursion, so that trajectories are never double counted once they have
  left the safe region.

Both quantities are multilinear in the profile.  The solver scores all
deterministic profiles (vertices of the simplex product) and then takes the
first of four paths that applies:

* ``infeasible`` -- no vertex reaches ``1 - epsilon``, so no profile does
  (a multilinear function attains its maximum over the simplex product at
  a vertex); the probability-maximizing vertex is returned;
* ``unconstrained`` -- the reward-maximizing vertex is feasible;
* ``closed-form`` -- a certified boundary mix.  With every stage but one
  fixed at a vertex, reward and probability are linear in the free stage,
  so mixing a feasible and an infeasible vertex that differ in that stage
  to probability exactly ``1 - epsilon`` is an exact product profile whose
  value comes from the vertex values.  Every product profile is also a
  mixture of vertices with the same reward and probability, so the
  one-constraint LP over vertex mixtures (solved by the best feasible
  vertex or feasible/infeasible pair) bounds the optimum.  When the best
  single-stage mix meets that bound, it is optimal and returned at once;
* ``branch-and-bound`` -- otherwise (the gap stays open) an exact search.
  With the other stages fixed a stage is an LP with one constraint, so
  some optimum mixes at most two actions per stage.  The search chooses
  each stage's action pair in turn, then bisects boxes of the pairs'
  mixing weights.  Values are multilinear in the weights, so the LP over
  a box's corners bounds the box (Rikun, J. Global Optim. 1997), and
  feasible corners and feasible/infeasible edge mixes are exact
  candidates (Land & Doig, Econometrica 1960).  The closed-form mix is
  the first incumbent.

Every plan reports ``gap``, a proved upper bound on the optimum minus its
expected reward.  It is 0 within ``GAP_TOL`` of the reward span, which
proves the plan optimal, unless ``BOX_BUDGET`` stopped the search.

Each solver stage is one batched pass over the compiled reachable sets:

* the last stage is folded into per-(action, source state) expected reward
  and violation matrices, so it costs two small products, not a bincount;
* the vertex sweep shares propagation between profiles with a common
  action prefix: stage ``tau`` carries one distribution per prefix and is
  one bincount over (prefix, action, target) triples, then the folded last
  stage closes all |U1|^H vertices with one matrix product;
* the search runs on the vertex tables: values are multilinear, so a
  box's corner values are a contraction of them.  Only chosen mixes and
  returned vertices are re-scored.

A receding-horizon loop re-plans from the same few beliefs over and over,
so :func:`optimize` memoises its plans.  The key is exact: the kernel,
reward and safe set by identity (a kernel computes its rows from the
game's two successor tables and the env policy tables, and those, the reward
and the safe set are arrays no write can reach), the scalar parameters,
and the belief's state and level-weight bytes.  A hit returns the plan the
first call produced.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .game import EGO, GameSpec, check_rows
from .inference import AugmentedKernel, Belief

__all__ = [
    "DecisionProfile",
    "PlanResult",
    "Planner",
    "NoRobustPlanError",
    "expected_reward",
    "constraint_probability",
    "optimize",
    "receding_horizon_step",
    "maximin_plan",
    "project_to_simplex",
]


# Pair choices and boxes the branch-and-bound of :func:`optimize` may bound
# before it stops and reports the largest bound left open in ``gap``.  No
# gap-open random draw or scenario belief measured has needed over 6,660.
BOX_BUDGET = 50_000
# A certificate gap at most this fraction of the vertex reward span is the
# float noise of the two evaluators and counts as closed.
GAP_TOL = 1e-12
# Re-scorings of a boundary mix before it is given up, each moving a little
# more weight toward the safer action when rounding left the exact
# probability a float short of ``1 - epsilon``.
NUDGE_STEPS = 4
# Plans :func:`optimize` keeps, the oldest dropped first; each is about 1 KB.
PLAN_MEMO_SIZE = 4096

# (id(kernel), id(reward), id(safe_set), epsilon, discount, horizon, state,
# weight bytes) -> (weak references to kernel, reward and safe set, plan).
# The weak references keep no kernel alive and tell a reused id from the
# object the plan was solved for.
_plan_memo: dict[tuple, tuple[tuple[weakref.ref, ...], "PlanResult"]] = {}


class NoRobustPlanError(RuntimeError):
    """Every open-loop ego sequence violates the safe set under some opponent."""


@dataclass(frozen=True)
class DecisionProfile:
    """Sequence of per-stage probability distributions over the ego action set.

    ``stages`` is a read-only copy of the input, so a profile (and a plan
    that holds it) never changes after construction.
    """

    stages: np.ndarray

    def __post_init__(self):
        stages = np.array(self.stages, dtype=float)
        if stages.ndim != 2:
            raise ValueError("profile must be 2-D (stages x ego actions)")
        check_rows(stages, "profile stage")
        stages.flags.writeable = False
        object.__setattr__(self, "stages", stages)

    @property
    def horizon(self) -> int:
        return self.stages.shape[0]

    @property
    def num_actions(self) -> int:
        return self.stages.shape[1]

    @staticmethod
    def uniform(horizon: int, num_actions: int) -> "DecisionProfile":
        return DecisionProfile(np.full((horizon, num_actions), 1.0 / num_actions))

    @staticmethod
    def deterministic(actions: Sequence[int], num_actions: int) -> "DecisionProfile":
        stages = np.zeros((len(actions), num_actions))
        stages[np.arange(len(actions)), list(actions)] = 1.0
        return DecisionProfile(stages)


@dataclass(frozen=True)
class PlanResult:
    """Solver output: the chosen profile plus its exact evaluations.

    ``path`` names the solver path that produced the plan (``"infeasible"``,
    ``"unconstrained"``, ``"closed-form"`` or ``"branch-and-bound"``, see
    the module docstring).  ``iterations`` is 0 on every path: no path
    iterates a step size, and the field stays for code that reads it.
    ``gap`` is a proved upper bound on the optimum minus
    ``expected_reward``, never negative and 0 within ``GAP_TOL`` of the
    reward span; a gap of 0 proves the plan optimal, and only a search
    stopped by ``BOX_BUDGET`` reports more.  An infeasible plan is the
    exact probability maximizer and reports a gap of 0.
    """

    profile: DecisionProfile
    expected_reward: float
    constraint_probability: float
    feasible: bool
    iterations: int = 0
    path: str = "unconstrained"
    gap: float = 0.0


class _Step(NamedTuple):
    """One unrolled stage: sparse local transitions plus stage metadata."""

    src: np.ndarray      # local index of the source state per entry
    u_idx: np.ndarray    # ego action per entry
    dst: np.ndarray      # local index of the target state per entry
    probs: np.ndarray    # transition probability per entry
    n_next: int          # size of the next stage's local index space
    rewards: np.ndarray  # reward per next-stage local state
    safe: np.ndarray     # safe-set membership per next-stage local state


def _fold(pair: np.ndarray, weights: np.ndarray, nu: int, n: int) -> np.ndarray:
    """Sum ``weights`` into an ``(nu, n)`` matrix at flat indices ``pair = u * n + j``."""
    return np.bincount(pair, weights=weights, minlength=nu * n).reshape(nu, n)


class _CompiledHorizon:
    """Reachable-set propagation graph for one planning instance.

    Unrolls the kernel over the augmented states reachable from the belief
    support ``{state} x K`` within the horizon, computing each step's rows
    with :meth:`AugmentedKernel.expand_rows`, with per-step local index
    spaces; rewards and the safe set are read at each target's physical
    state.  Stages ``0..H-2`` are kept as sparse steps; the last stage is
    folded into two ``(actions, sources)`` matrices, ``last_reward[u, j]``
    (expected reward of the successor of local state ``j`` under action
    ``u``) and ``last_unsafe[u, j]`` (probability that successor is unsafe).
    Evaluating a profile then costs one gather + bincount pass per kept
    stage plus two small products, independent of the full augmented-space
    size.
    """

    def __init__(
        self,
        kernel: AugmentedKernel,
        reward: np.ndarray,
        safe_set: np.ndarray,
        horizon: int,
        belief: Belief,
        discount: float,
    ):
        nu = kernel.num_ego_actions
        nx = kernel.num_states
        if reward.shape != (nx,):
            raise ValueError(
                f"reward vector length {reward.size} does not match the "
                f"{nx} physical states"
            )
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount out of (0,1]: {discount!r}")
        self.num_actions = nu
        self.discount = discount
        reach, self.p0 = belief.support(kernel)
        self.steps: list[_Step] = []
        for tau in range(horizon):
            rows = (reach[:, None] * nu + np.arange(nu, dtype=np.int64)[None, :]).ravel()
            which, targets, probs = kernel.expand_rows(rows)
            src, u_idx = which // nu, which % nu
            if tau + 1 == horizon:
                pair = u_idx * reach.size + src
                targets_x = targets % nx
                self.last_reward = _fold(pair, probs * reward[targets_x], nu, reach.size)
                self.last_unsafe = _fold(pair, probs * ~safe_set[targets_x], nu, reach.size)
                break
            uniq, dst_local = np.unique(targets, return_inverse=True)
            uniq_x = uniq % nx
            self.steps.append(
                _Step(
                    src=src,
                    u_idx=u_idx,
                    dst=dst_local,
                    probs=probs,
                    n_next=uniq.size,
                    rewards=reward[uniq_x],
                    safe=safe_set[uniq_x],
                )
            )
            reach = uniq

    def evaluate(self, stages: np.ndarray) -> tuple[float, float]:
        """Exact ``(expected reward, joint safe probability)`` of a profile."""
        d = dv = self.p0
        reward = violation = 0.0
        disc = 1.0
        for tau, step in enumerate(self.steps):
            w = step.probs * stages[tau][step.u_idx]
            d = np.bincount(step.dst, weights=w * d[step.src], minlength=step.n_next)
            dv = np.bincount(step.dst, weights=w * dv[step.src], minlength=step.n_next)
            reward += disc * float(d @ step.rewards)
            violation += float(dv[~step.safe].sum())
            dv = np.where(step.safe, dv, 0.0)
            disc *= self.discount
        last = stages[-1]
        reward += disc * float(last @ (self.last_reward @ d))
        violation += float(last @ (self.last_unsafe @ dv))
        return reward, min(max(1.0 - violation, 0.0), 1.0)

    def vertex_values(self) -> tuple[np.ndarray, np.ndarray]:
        """``(expected reward, joint safe probability)`` of every deterministic profile.

        Entries follow ``itertools.product(range(num_actions), repeat=H)``
        order.  Profiles sharing an action prefix share its propagation: the
        sweep carries one row of ``d``/``dv`` per prefix, so stage ``tau``
        is one bincount over (prefix, action, target) triples.
        """
        nu = self.num_actions
        d = dv = self.p0[None, :]
        reward = violation = np.zeros(1)
        disc = 1.0
        for step in self.steps:
            prefixes = np.arange(d.shape[0])[:, None]
            triple = ((prefixes * nu + step.u_idx) * step.n_next + step.dst).ravel()
            size = d.shape[0] * nu * step.n_next
            d = np.bincount(
                triple, weights=(d[:, step.src] * step.probs).ravel(), minlength=size
            ).reshape(-1, step.n_next)
            dv = np.bincount(
                triple, weights=(dv[:, step.src] * step.probs).ravel(), minlength=size
            ).reshape(-1, step.n_next)
            reward = np.repeat(reward, nu) + disc * (d @ step.rewards)
            violation = np.repeat(violation, nu) + dv[:, ~step.safe].sum(axis=1)
            dv = np.where(step.safe, dv, 0.0)
            disc *= self.discount
        reward = (reward[:, None] + disc * (d @ self.last_reward.T)).ravel()
        violation = (violation[:, None] + dv @ self.last_unsafe.T).ravel()
        return reward, np.clip(1.0 - violation, 0.0, 1.0)


def expected_reward(
    kernel: AugmentedKernel,
    reward: np.ndarray,
    belief: Belief,
    profile: DecisionProfile,
    discount: float,
) -> float:
    """Expected discounted sum of successor-state rewards under a profile.

    Stage ``tau`` contributes ``discount^tau * r' pi_{tau+1}`` where
    ``pi_{tau+1}`` is the predicted augmented-state distribution and ``r``
    the per-physical-state reward, the same for every level.
    """
    compiled = _CompiledHorizon(
        kernel, np.asarray(reward, float), np.ones(kernel.num_states, dtype=bool),
        profile.horizon, belief, discount,
    )
    reward, _ = compiled.evaluate(profile.stages)
    return reward


def constraint_probability(
    kernel: AugmentedKernel,
    safe_set: np.ndarray,
    belief: Belief,
    profile: DecisionProfile,
) -> float:
    """Probability that all of the next ``horizon`` predicted states are in ``safe_set``.

    Evaluated by the exact forward recursion: propagate, add the mass that
    falls outside the safe set to the violation total, zero that
    mass, continue.  The zeroing prevents double counting of trajectories
    that have already violated.
    """
    reward0 = np.zeros(kernel.num_states)
    compiled = _CompiledHorizon(kernel, reward0, safe_set, profile.horizon, belief, 1.0)
    _, prob = compiled.evaluate(profile.stages)
    return prob


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``v`` (last axis) onto the probability simplex.

    A public helper; the solver itself does not project.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    support = u * np.arange(1, n + 1) > (css - 1.0)
    # Last index where the support condition holds, per row.
    rho = n - 1 - support[..., ::-1].argmax(axis=-1)[..., None]
    theta = (np.take_along_axis(css, rho, axis=-1) - 1.0) / (rho + 1.0)
    out = np.maximum(v - theta, 0.0)
    s = out.sum(axis=-1, keepdims=True)
    out = np.divide(out, s, out=np.full_like(out, 1.0 / n), where=s > 0)
    # A row with no support index (non-finite or huge entries) puts all its
    # mass on its largest entry.
    one_hot = np.arange(n) == v.argmax(axis=-1)[..., None]
    return np.where(support.any(axis=-1, keepdims=True), out, one_hot)


def _vertex(index: int, horizon: int, nu: int) -> np.ndarray:
    """Stages of the deterministic profile at ``index`` in vertex-sweep order."""
    stages = np.zeros((horizon, nu))
    stages[np.arange(horizon), np.unravel_index(index, (nu,) * horizon)] = 1.0
    return stages


def _boundary_mix(r_a, p_a, r_b, p_b, threshold, where=True):
    """Weight on ``a`` and value of the ``a``/``b`` mix whose probability is ``threshold``.

    Only entries where ``where`` holds are divided; the others are NaN.
    The bound and the closed-form candidate both use this one expression,
    so the same pair gives bit-identical values in both.
    """
    den = p_a - p_b
    lam = np.divide(threshold - p_b, den, out=np.full(np.shape(den), np.nan), where=where)
    return lam, lam * r_a + (1.0 - lam) * r_b


def _nudge(compiled: _CompiledHorizon, stages: np.ndarray, tau: int, row_hi, row_lo,
           lam: float, slope: float, threshold: float) -> tuple[np.ndarray, float, float]:
    """Re-score ``stages`` with stage ``tau`` at ``lam * row_hi + (1 - lam) * row_lo``.

    The probability rises with ``lam`` at rate ``slope``.  When the
    re-scored probability lands a float below ``threshold``, up to
    ``NUDGE_STEPS`` re-scorings move weight onto ``row_hi``; the caller
    checks the last probability.  Returns the stages, reward and probability.
    """
    for k in range(NUDGE_STEPS):
        stages[tau] = lam * row_hi + (1.0 - lam) * row_lo
        reward, prob = compiled.evaluate(stages)
        if prob >= threshold or slope <= 0.0:
            break
        lam = min(1.0, lam + (threshold - prob) / slope + 2.0**k * np.finfo(float).eps)
    return stages, reward, prob


def _closed_form(
    compiled: _CompiledHorizon,
    vertex_r: np.ndarray,
    vertex_p: np.ndarray,
    threshold: float,
    best_feas: int,
) -> tuple[float, float, float, np.ndarray]:
    """Best boundary mix of a feasible and an infeasible vertex differing in one stage.

    Stage ``tau`` is one vectorised pass over (prefix, feasible action ``a``,
    infeasible action ``b``, suffix) with ``R_b > R_a``; only those tuples
    are divided.  Returns ``(table value, reward, probability, stages)`` of
    the mix re-scored by :func:`_nudge`, or of the best feasible vertex when
    no pair improves on it or the re-scored mix falls short of ``threshold``.
    """
    nu = compiled.num_actions
    horizon = len(compiled.steps) + 1
    best_value, best_pair = float(vertex_r[best_feas]), None
    for tau in range(horizon):
        post = nu ** (horizon - 1 - tau)
        r_a = vertex_r.reshape(-1, nu, 1, post)
        p_a = vertex_p.reshape(-1, nu, 1, post)
        r_b, p_b = r_a.swapaxes(1, 2), p_a.swapaxes(1, 2)
        admissible = (p_a >= threshold) & (p_b < threshold) & (r_b > r_a)
        _, value = _boundary_mix(r_a, p_a, r_b, p_b, threshold, where=admissible)
        value = np.where(admissible, value, -np.inf)
        i, a, b, j = np.unravel_index(np.argmax(value), value.shape)
        if value[i, a, b, j] > best_value:
            best_value = float(value[i, a, b, j])
            best_pair = (tau, (i * nu + a) * post + j, (i * nu + b) * post + j)

    if best_pair is not None:
        tau, ia, ib = best_pair
        p_a, p_b = vertex_p[ia], vertex_p[ib]
        lam, _ = _boundary_mix(vertex_r[ia], p_a, vertex_r[ib], p_b, threshold)
        stages = _vertex(ia, horizon, nu)
        row_a, row_b = stages[tau].copy(), _vertex(ib, horizon, nu)[tau]
        stages, reward, prob = _nudge(compiled, stages, tau, row_a, row_b, lam, p_a - p_b,
                                      threshold)
        if prob >= threshold:
            return best_value, reward, prob, stages
    stages = _vertex(best_feas, horizon, nu)
    return float(vertex_r[best_feas]), *compiled.evaluate(stages), stages


def _lp_bounds(r: np.ndarray, p: np.ndarray, threshold: float) -> np.ndarray:
    """Largest reward of a vertex mixture whose probability reaches ``threshold``, per row.

    A row (last axis) lists the values of a set of vertices.  Every product
    profile is such a mixture (its vertex weights are the products of its
    stage weights), so this bounds every feasible profile that mixes only
    the row's vertices; a row with no feasible vertex gets ``-inf``.  The
    LP optimum is a feasible vertex or the boundary mix of a feasible and an
    infeasible one, both on the Pareto front of (probability, reward).
    """
    order = np.lexsort((-r, -p), axis=-1)
    r, p = np.take_along_axis(r, order, -1), np.take_along_axis(p, order, -1)
    prior_best = np.maximum.accumulate(r, axis=-1)[..., :-1]
    front = r > np.concatenate((np.full_like(r[..., :1], -np.inf), prior_best), axis=-1)
    # Each row's front moves to its start; the columns past the longest go.
    keep = np.argsort(~front, axis=-1, kind="stable")[..., : front.sum(-1).max()]
    r, p, front = (np.take_along_axis(a, keep, -1) for a in (r, p, front))
    # Along the front probability falls and reward rises, so every feasible
    # member has less reward than every infeasible one.
    feas = front & (p >= threshold)
    pair = feas[..., :, None] & (front & ~feas)[..., None, :]
    _, value = _boundary_mix(
        r[..., :, None], p[..., :, None], r[..., None, :], p[..., None, :], threshold, where=pair,
    )
    return np.maximum(
        np.where(feas, r, -np.inf).max(-1), np.where(pair, value, -np.inf).max((-2, -1))
    )


def _branch_and_bound(compiled: _CompiledHorizon, vertex_r: np.ndarray, vertex_p: np.ndarray,
                      threshold: float, incumbent: tuple, bound: float, tol: float) -> tuple:
    """Best mix of at most two actions per stage, proved by branch and bound.

    Each stage's action pair is chosen in turn, pruned by the LP over the
    vertices a partial choice can reach.  A full choice is a root box of
    weights on each pair's second action, with its 2^H vertices as corners
    (stage 0 the most significant bit).  The LP over a box's corners bounds
    it; its feasible corners and feasible/infeasible edge mixes are exact
    candidates.  Choices and boxes bounded by the best table value plus
    ``tol`` are pruned, the other boxes bisected in every stage.

    ``incumbent`` is ``(table value, reward, probability, stages)`` and
    ``bound`` the LP bound over all vertices.  The best candidate, re-scored
    by :func:`_nudge`, replaces the incumbent only if its reward is higher
    by more than ``tol``.  Returns ``(reward, probability, stages, bound)``;
    ``bound`` is the best table value, or the largest bound left open when
    the search would pass ``BOX_BUDGET`` choices and boxes.
    """
    floor, reward, prob, stages = incumbent
    horizon, nu = stages.shape
    pairs = np.stack(np.triu_indices(nu, 1), axis=1)
    rp = np.stack((vertex_r, vertex_p))[:, None]  # (reward or probability, set, vertex)
    chosen, bound, count = np.zeros((1, 0), dtype=np.int64), np.array([bound]), 0
    for tau in range(horizon):
        n = rp.shape[1] * len(pairs)
        if count + n > BOX_BUDGET:
            return reward, prob, stages, max(floor, bound.max())
        count += n
        rp = rp.reshape(2, -1, 2**tau, nu, nu ** (horizon - 1 - tau))[:, :, :, pairs]
        rp = rp.swapaxes(2, 3).reshape(2, n, -1)
        chosen = np.column_stack((chosen.repeat(len(pairs), 0), np.tile(pairs, (len(chosen), 1))))
        bound = _lp_bounds(*rp, threshold)
        keep = bound > floor + tol
        if not keep.any():
            return reward, prob, stages, floor
        rp, chosen, bound = rp[:, keep], chosen[keep], bound[keep]

    # Box edges as (corner at the low end, corner at the high end, stage).
    corners = np.indices((2,) * horizon).reshape(horizon, -1).T
    low_end, axis = np.nonzero(corners == 0)
    high_end = low_end + 2 ** (horizon - 1 - axis)
    roots, root, width, best = rp, np.arange(len(chosen)), 1.0, None
    lo = np.zeros((len(chosen), horizon))
    while True:
        (r0, p0), (r1, p1) = rp[:, :, low_end], rp[:, :, high_end]
        f0, f1 = p0 >= threshold, p1 >= threshold
        s, mix = _boundary_mix(r1, p1, r0, p0, threshold, where=f0 != f1)
        value = np.stack((np.where(f0, r0, -np.inf), np.where(f1, r1, -np.inf),
                          np.where(f0 != f1, mix, -np.inf)))
        kind, i, e = np.unravel_index(np.argmax(value), value.shape)
        if value[kind, i, e] > floor:
            floor = float(value[kind, i, e])
            x = lo[i] + width * corners[low_end[e]]
            x[axis[e]] += width * (0.0, 1.0, s[i, e])[kind]
            best = (chosen[root[i]], x, axis[e], (p1[i, e] - p0[i, e]) / width)
        keep = bound > floor + tol
        root, lo, bound = root[keep], lo[keep], bound[keep]
        if not root.size or count + root.size * len(corners) > BOX_BUDGET:
            break
        count += root.size * len(corners)
        width /= 2.0
        lo = (lo[:, None, :] + width * corners).reshape(-1, horizon)
        root = root.repeat(len(corners))
        # Values are multilinear in the weights, so a box's corner values
        # contract its root's corner values stage by stage with the rows of
        # the box's two ends.
        rp = roots[:, root]
        for tau in range(horizon):
            ends = np.stack((lo[:, tau], lo[:, tau] + width), axis=1)
            rp = np.einsum("nek,qnakb->qnaeb", np.stack((1.0 - ends, ends), axis=2),
                           rp.reshape(2, len(root), 2**tau, 2, -1)).reshape(2, len(root), -1)
        bound = _lp_bounds(*rp, threshold)

    if best is not None:
        actions, x, tau, slope = best
        a, b = actions.reshape(-1, 2).T
        eye = np.eye(nu)
        rows = (1.0 - x)[:, None] * eye[a] + x[:, None] * eye[b]
        # The nudge moves weight toward the safer action of stage ``tau``.
        safer, other, lam = (b, a, x[tau]) if slope >= 0 else (a, b, 1 - x[tau])
        rows, r_c, p_c = _nudge(compiled, rows, tau, eye[safer[tau]], eye[other[tau]], lam,
                                abs(slope), threshold)
        if p_c >= threshold and r_c > reward + tol:
            reward, prob, stages = r_c, p_c, rows
    return reward, prob, stages, max(floor, bound.max(initial=-np.inf))


def optimize(
    kernel: AugmentedKernel,
    reward: np.ndarray,
    safe_set: np.ndarray,
    belief: Belief,
    epsilon: float,
    discount: float,
    horizon: int,
) -> PlanResult:
    """Maximize expected reward subject to the time-joint chance constraint.

    All deterministic profiles are scored first, then the paths of the
    module docstring are tried in order:

    1. ``infeasible``: if no vertex reaches ``1 - epsilon`` joint-safety
       probability, no profile does (vertex enumeration decides this
       exactly); the result carries ``feasible=False`` and the
       probability-maximizing vertex, ties broken by expected reward -- the
       caller chooses what to do with it.
    2. ``unconstrained``: the reward-maximizing vertex is feasible.
    3. ``closed-form``: the best single-stage boundary mix of a feasible and
       an infeasible vertex meets the LP bound over vertex mixtures within
       ``GAP_TOL`` of the reward span, so it is optimal; it is returned
       re-scored by the exact evaluator.
    4. ``branch-and-bound``: the best mix of at most two actions per stage,
       proved optimal by a search that starts from the closed-form mix; it
       is returned re-scored by the exact evaluator.

    Every result reports the exact evaluation of its own profile, and
    every feasible one has a probability of at least ``1 - epsilon`` and a
    ``gap`` from a proved bound on the optimum, which is 0 unless the
    search ran out of ``BOX_BUDGET``.

    Plans are memoised.  The solver is deterministic and reads nothing but
    its arguments, and a belief is a point mass, so a plan is a function of
    the kernel, reward and safe set, ``epsilon``, ``discount``, ``horizon``,
    the belief's state and its level weights.  A call that repeats all of
    them exactly returns the plan the first one produced, the same object.
    The memo holds up to ``PLAN_MEMO_SIZE`` plans and only weak references
    to the inputs it keys by identity.

    The identity keys are sound only for inputs no write can reach: a
    ``reward`` or ``safe_set`` that is writeable, or a read-only view of a
    writeable array, bypasses the memo (see :func:`_frozen`).  A kernel
    reads only the ``GameSpec``'s two successor tables and
    ``PolicyTable.probs``, which are always read-only, and ``GameSpec.safe_set`` and
    ``Scenario.ego_objective`` are made so too (see :func:`game.read_only`).
    """
    if not (_frozen(reward) and _frozen(safe_set)):
        return _solve(kernel, reward, safe_set, belief, epsilon, discount, horizon)
    inputs = (kernel, reward, safe_set)
    key = (
        *map(id, inputs), epsilon, discount, horizon,
        belief.state, belief.weights.tobytes(),
    )
    hit = _plan_memo.get(key)
    if hit is not None and all(ref() is obj for ref, obj in zip(hit[0], inputs)):
        return hit[1]
    result = _solve(kernel, reward, safe_set, belief, epsilon, discount, horizon)
    _plan_memo.pop(key, None)  # an entry for objects that have died
    if len(_plan_memo) >= PLAN_MEMO_SIZE:
        del _plan_memo[next(iter(_plan_memo))]
    _plan_memo[key] = (tuple(map(weakref.ref, inputs)), result)
    return result


def _frozen(values) -> bool:
    """True if no write can reach ``values``.

    That holds for a read-only array that owns its data, or views only
    read-only arrays down to an owner or an immutable ``bytes`` buffer.
    """
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        values = values.base
    return values is None or isinstance(values, bytes)


def _solve(
    kernel: AugmentedKernel,
    reward: np.ndarray,
    safe_set: np.ndarray,
    belief: Belief,
    epsilon: float,
    discount: float,
    horizon: int,
) -> PlanResult:
    """The solver behind :func:`optimize`, without the memo."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon out of [0, 1]: {epsilon!r}")
    reward = np.asarray(reward, dtype=float)
    compiled = _CompiledHorizon(kernel, reward, safe_set, horizon, belief, discount)
    nu = kernel.num_ego_actions
    threshold = 1.0 - epsilon

    vertex_r, vertex_p = compiled.vertex_values()

    feasible = vertex_p >= threshold
    if not feasible.any():
        # Exact infeasibility: no profile (randomized or not) can do better
        # than the best vertex probability.
        best_p = vertex_p.max()
        near = vertex_p >= best_p - 1e-15
        pick = _vertex(int(np.flatnonzero(near)[np.argmax(vertex_r[near])]), horizon, nu)
        r_pick, p_pick = compiled.evaluate(pick)
        return PlanResult(
            profile=DecisionProfile(pick),
            expected_reward=float(r_pick),
            constraint_probability=float(p_pick),
            feasible=False,
            path="infeasible",
        )

    feas_idx = np.flatnonzero(feasible)
    best_feas = int(feas_idx[np.argmax(vertex_r[feas_idx])])
    best_stages = _vertex(best_feas, horizon, nu)

    if vertex_r[best_feas] >= vertex_r.max() - 1e-15:
        # The unconstrained optimum is feasible; randomization cannot improve
        # on it (multilinear objective attains its maximum at a vertex).
        best_r, best_p = compiled.evaluate(best_stages)
        return PlanResult(
            profile=DecisionProfile(best_stages),
            expected_reward=float(best_r),
            constraint_probability=float(best_p),
            feasible=True,
            path="unconstrained",
        )

    reward_span = float(vertex_r.max() - vertex_r.min())
    bound = float(_lp_bounds(vertex_r, vertex_p, threshold))
    tol = GAP_TOL * reward_span

    incumbent = _closed_form(compiled, vertex_r, vertex_p, threshold, best_feas)
    # The root prune: the incumbent meets the LP bound over all vertices.
    closed = bound - incumbent[0] <= tol
    if closed:
        r_fin, p_fin, stages_fin = incumbent[1:]
    else:
        r_fin, p_fin, stages_fin, bound = _branch_and_bound(
            compiled, vertex_r, vertex_p, threshold, incumbent, bound, tol
        )
    return PlanResult(
        profile=DecisionProfile(stages_fin),
        expected_reward=float(r_fin),
        constraint_probability=float(p_fin),
        feasible=True,
        path="closed-form" if closed else "branch-and-bound",
        gap=bound - r_fin if bound - r_fin > tol else 0.0,
    )


@dataclass(frozen=True)
class Planner:
    """Bundle of everything :func:`optimize` needs except the belief."""

    kernel: AugmentedKernel
    reward: np.ndarray
    safe_set: np.ndarray
    epsilon: float
    discount: float
    horizon: int

    def plan(self, belief: Belief) -> PlanResult:
        return optimize(
            self.kernel,
            self.reward,
            self.safe_set,
            belief,
            self.epsilon,
            self.discount,
            self.horizon,
        )


def receding_horizon_step(
    planner: Planner, belief: Belief, rng: np.random.Generator
) -> tuple[int, PlanResult]:
    """Plan from ``belief`` and sample the executed action from the first stage."""
    result = planner.plan(belief)
    gamma0 = result.profile.stages[0]
    action = int(rng.choice(gamma0.size, p=gamma0 / gamma0.sum()))
    return action, result


def maximin_plan(
    spec: GameSpec,
    state: int,
    horizon: int | None = None,
    discount: float | None = None,
) -> tuple[int, ...]:
    """Robust open-loop baseline: best ego sequence against the worst opponent.

    Enumerates all ego action sequences; each is scored by its worst-case
    discounted reward over all opponent sequences, with any sequence pair
    that leaves the safe set scored as minus infinity.  Ties go to the
    lexicographically smallest ego sequence.

    Raises
    ------
    NoRobustPlanError
        If every ego sequence can be forced to violate the safe set.
    ValueError
        If ``state`` is out of range, ``horizon < 1`` or ``discount`` is not in (0, 1].
    """
    horizon = spec.horizon if horizon is None else horizon
    discount = spec.discount if discount is None else discount
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < discount <= 1.0:
        raise ValueError(f"discount out of (0,1]: {discount!r}")
    if not 0 <= state < spec.num_states:
        raise ValueError(f"state {state} out of range")
    rewards = spec.rewards(EGO)
    env_seqs = list(itertools.product(range(spec.num_env_actions), repeat=horizon))

    best_val = -np.inf
    best_seq: tuple[int, ...] | None = None
    for ego_seq in itertools.product(range(spec.num_ego_actions), repeat=horizon):
        worst = np.inf
        for env_seq in env_seqs:
            x = state
            val = 0.0
            disc = 1.0
            for tau in range(horizon):
                x = spec.successor(x, ego_seq[tau], env_seq[tau])
                if not spec.safe_set[x]:
                    val = -np.inf
                    break
                val += disc * float(rewards[x])
                disc *= discount
            if val < worst:
                worst = val
                if worst == -np.inf:
                    break
        if worst > best_val:
            best_val = worst
            best_seq = ego_seq
    if best_seq is None or best_val == -np.inf:
        raise NoRobustPlanError(
            f"no ego sequence of length {horizon} is safe against every opponent"
        )
    return best_seq

