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
* ``ascent`` -- otherwise (the gap stays open) projected gradient ascent
  on a penalized objective, a feasibility bisection and a boundary polish
  run as before, and the closed-form mix joins their candidates, so the
  result is never worse than either.

Every plan reports ``gap``, the LP bound minus its expected reward: a gap
of 0 proves the plan optimal.

Each solver stage is one batched pass over the compiled reachable sets:

* the last stage is folded into per-(action, source state) expected reward
  and violation matrices, so it costs two small products, not a bincount;
* the vertex sweep shares propagation between profiles with a common
  action prefix: stage ``tau`` carries one distribution per prefix and is
  one bincount over (prefix, action, target) triples, then the folded last
  stage closes all |U1|^H vertices with one matrix product;
* the coordinate gradients (stage-forced evaluations, exact by
  multilinearity) come from one forward pass that stores each stage's
  distributions and one backward pass of value-to-go vectors (an adjoint
  pass), instead of H x |U1| forward evaluations;
* the projection onto the simplex product is row-wise, so one call
  projects every stage of every step size an ascent line search may try.

A receding-horizon loop re-plans from the same few beliefs over and over,
so :func:`optimize` memoises its plans.  The key is exact: the kernel,
reward and safe set by identity (arrays no write can reach), the scalar
parameters, and the belief's state and level-weight bytes; rebinding a
function of this module empties the memo.  A hit returns the plan the
first call produced.
"""

from __future__ import annotations

import itertools
import operator
import types
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .game import EGO, ROW_SUM_TOL, GameSpec
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


# Iteration cap of each projected-gradient ascent run in :func:`optimize`.
ASCENT_ITERS = 40
# A certificate gap at most this fraction of the vertex reward span is the
# float noise of the two evaluators and counts as closed.
GAP_TOL = 1e-12
# Re-scorings of the closed-form mix before it is given up, each moving a
# little more weight onto the feasible vertex when rounding left the exact
# probability a float short of ``1 - epsilon``.
NUDGE_STEPS = 4
# Plans :func:`optimize` keeps, the oldest dropped first; each is about 1 KB.
PLAN_MEMO_SIZE = 4096

# (id(kernel), id(reward), id(safe_set), epsilon, discount, horizon, state,
# weight bytes) -> (weak references to kernel, reward and safe set, plan).
# The weak references keep no kernel alive and tell a reused id from the
# object the plan was solved for.
_plan_memo: dict[tuple, tuple[tuple[weakref.ref, ...], "PlanResult"]] = {}
# The module functions the memo's plans were solved with; see
# ``_solver_bindings``.
_memo_solver: tuple = ()


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
        if stages.min(initial=0.0) < -1e-12 or stages.max(initial=0.0) > 1.0 + 1e-12:
            raise ValueError("profile entries must lie in [0, 1]")
        sums = stages.sum(axis=1)
        if np.abs(sums - 1.0).max(initial=0.0) > ROW_SUM_TOL:
            raise ValueError(f"profile stages must sum to 1 within {ROW_SUM_TOL}")
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
    ``"unconstrained"``, ``"closed-form"`` or ``"ascent"``, see the module
    docstring) and ``iterations`` counts its ascent iterations.  ``gap`` is
    the LP bound over vertex mixtures minus ``expected_reward``, never
    negative and 0 within ``GAP_TOL`` of the reward span; a gap of 0 proves
    the plan optimal.  An infeasible plan is the exact probability maximizer
    and reports a gap of 0.
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
    support ``{state} x K`` within the horizon, with per-step local index
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

    def _forward(self, stages: np.ndarray) -> list[tuple]:
        """Per stage: ``(d, dv, reward, violation, discount)`` before it.

        ``d`` is the predicted distribution over the stage's local source
        states, ``dv`` the same with violated mass zeroed, and ``reward`` /
        ``violation`` what the earlier stages accrued.
        """
        d = dv = self.p0
        reward = violation = 0.0
        disc = 1.0
        trace = []
        for tau, step in enumerate(self.steps):
            trace.append((d, dv, reward, violation, disc))
            w = step.probs * stages[tau][step.u_idx]
            d = np.bincount(step.dst, weights=w * d[step.src], minlength=step.n_next)
            dv = np.bincount(step.dst, weights=w * dv[step.src], minlength=step.n_next)
            reward += disc * float(d @ step.rewards)
            violation += float(dv[~step.safe].sum())
            dv = np.where(step.safe, dv, 0.0)
            disc *= self.discount
        trace.append((d, dv, reward, violation, disc))
        return trace

    def evaluate(self, stages: np.ndarray) -> tuple[float, float]:
        """Exact ``(expected reward, joint safe probability)`` of a profile."""
        d, dv, reward, violation, disc = self._forward(stages)[-1]
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

    def gradients(self, stages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stage-forced evaluations of a profile, one per stage and action.

        Entry ``[tau, u]`` is :meth:`evaluate` with stage ``tau`` forced to
        action ``u``.  By multilinearity it is an exact partial derivative
        of the reward; the probability entry is the clamped forced value
        ``clip(1 - violation, 0, 1)``.  One forward pass stores each stage's
        distributions and accrued totals; one backward pass carries the
        reward and violation still to come from every local state.
        """
        trace = self._forward(stages)
        grad_r = np.empty_like(stages)
        grad_v = np.empty_like(stages)
        nu = self.num_actions
        for tau in range(len(trace) - 1, -1, -1):
            d, dv, reward, violation, disc = trace[tau]
            if tau == len(self.steps):
                q_r = disc * self.last_reward
                q_v = self.last_unsafe
            else:
                step = self.steps[tau]
                pair = step.u_idx * d.size + step.src
                togo_r = (disc * step.rewards + value_r)[step.dst]
                togo_v = np.where(step.safe, value_v, 1.0)[step.dst]
                q_r = _fold(pair, step.probs * togo_r, nu, d.size)
                q_v = _fold(pair, step.probs * togo_v, nu, d.size)
            grad_r[tau] = reward + q_r @ d
            grad_v[tau] = violation + q_v @ dv
            value_r = stages[tau] @ q_r
            value_v = stages[tau] @ q_v
        return grad_r, np.clip(1.0 - grad_v, 0.0, 1.0)


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
    """Euclidean projection of each row of ``v`` (last axis) onto the probability simplex."""
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


def _penalized(reward: float, prob: float, threshold: float, rho: float) -> float:
    return reward + rho * min(0.0, prob - threshold)


def _ascend(
    compiled: _CompiledHorizon,
    stages: np.ndarray,
    threshold: float,
    rho: float,
) -> tuple[np.ndarray, int]:
    """Projected gradient ascent on the penalized objective."""
    stages = stages.copy()
    reward, prob = compiled.evaluate(stages)
    phi = _penalized(reward, prob, threshold, rho)
    iters = 0
    for _ in range(ASCENT_ITERS):
        iters += 1
        grad_r, grad_p = compiled.gradients(stages)
        grad = grad_r + (rho * grad_p if prob < threshold else 0.0)
        scale = np.abs(grad).max()
        if scale <= 0.0:
            break
        # Backtracking line search over halving step sizes; every candidate
        # is projected in one call, then evaluated until one improves.
        lrs = (0.5 / scale) * 0.5 ** np.arange(12)
        for cand in project_to_simplex(stages + lrs[:, None, None] * grad):
            r_c, p_c = compiled.evaluate(cand)
            phi_c = _penalized(r_c, p_c, threshold, rho)
            if phi_c > phi + 1e-12:
                stages, reward, prob, phi = cand, r_c, p_c, phi_c
                break
        else:
            break
    return stages, iters


def _bisect_feasible(
    compiled: _CompiledHorizon,
    stages: np.ndarray,
    anchor: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """Smallest mix toward a feasible anchor that restores feasibility."""
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        cand = (1.0 - mid) * stages + mid * anchor
        _, p = compiled.evaluate(cand)
        if p >= threshold:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * stages + hi * anchor


def _vertex(index: int, horizon: int, nu: int) -> np.ndarray:
    """Stages of the deterministic profile at ``index`` in vertex-sweep order."""
    stages = np.zeros((horizon, nu))
    stages[np.arange(horizon), np.unravel_index(index, (nu,) * horizon)] = 1.0
    return stages


def _boundary_mix(r_a, p_a, r_b, p_b, threshold):
    """Weight on ``a`` and value of the ``a``/``b`` mix whose probability is ``threshold``.

    The bound and the closed-form candidate both use this one expression,
    so the same pair gives bit-identical values in both.
    """
    lam = (threshold - p_b) / (p_a - p_b)
    return lam, lam * r_a + (1.0 - lam) * r_b


def _lp_bound(vertex_r: np.ndarray, vertex_p: np.ndarray, threshold: float) -> float:
    """Largest reward of a vertex mixture whose probability reaches ``threshold``.

    Every product profile is such a mixture (its vertex weights are the
    products of its stage weights), so this bounds every feasible profile.
    With one constraint the LP optimum is a feasible vertex or the boundary
    mix of a feasible and an infeasible vertex, and only vertices on the
    Pareto front of (probability, reward) can take part: a partner with
    more of both gives a better mix.  At least one vertex must be feasible.
    """
    order = np.lexsort((-vertex_r, -vertex_p))
    r, p = vertex_r[order], vertex_p[order]
    front = r > np.maximum.accumulate(np.concatenate(([-np.inf], r[:-1])))
    r, p = r[front], p[front]
    # Along the front probability falls and reward rises, so every feasible
    # member has less reward than every infeasible one.
    feas = p >= threshold
    bound = r[feas].max()
    if not feas.all():
        _, value = _boundary_mix(
            r[feas][:, None], p[feas][:, None], r[~feas][None, :], p[~feas][None, :],
            threshold,
        )
        bound = max(bound, value.max())
    return float(bound)


def _closed_form(
    compiled: _CompiledHorizon,
    vertex_r: np.ndarray,
    vertex_p: np.ndarray,
    threshold: float,
    best_feas: int,
) -> tuple[float, np.ndarray, float, float]:
    """Best boundary mix of a feasible and an infeasible vertex differing in one stage.

    Stage ``tau`` is one vectorised pass over (prefix, feasible action ``a``,
    infeasible action ``b``, suffix) with ``R_b > R_a``.  Returns the mix's
    closed-form value, its stages and the stages re-scored by
    :meth:`_CompiledHorizon.evaluate`.  When the re-scored probability lands
    a float below ``threshold``, up to ``NUDGE_STEPS`` re-scorings move
    weight onto ``a``; the caller checks the last probability.  Without an
    improving pair the best feasible vertex is the candidate.
    """
    nu = compiled.num_actions
    horizon = len(compiled.steps) + 1
    best_value, best_pair = float(vertex_r[best_feas]), None
    for tau in range(horizon):
        post = nu ** (horizon - 1 - tau)
        r_a = vertex_r.reshape(-1, nu, 1, post)
        p_a = vertex_p.reshape(-1, nu, 1, post)
        r_b, p_b = r_a.swapaxes(1, 2), p_a.swapaxes(1, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, value = _boundary_mix(r_a, p_a, r_b, p_b, threshold)
        value = np.where((p_a >= threshold) & (p_b < threshold) & (r_b > r_a), value, -np.inf)
        i, a, b, j = np.unravel_index(np.argmax(value), value.shape)
        if value[i, a, b, j] > best_value:
            best_value = float(value[i, a, b, j])
            best_pair = (tau, (i * nu + a) * post + j, (i * nu + b) * post + j)

    if best_pair is None:
        stages = _vertex(best_feas, horizon, nu)
        return best_value, stages, *compiled.evaluate(stages)
    tau, ia, ib = best_pair
    p_a, p_b = vertex_p[ia], vertex_p[ib]
    lam, _ = _boundary_mix(vertex_r[ia], p_a, vertex_r[ib], p_b, threshold)
    stages = _vertex(ia, horizon, nu)
    row_a, row_b = stages[tau].copy(), _vertex(ib, horizon, nu)[tau]
    for k in range(NUDGE_STEPS):
        stages[tau] = lam * row_a + (1.0 - lam) * row_b
        reward, prob = compiled.evaluate(stages)
        if prob >= threshold:
            break
        lam = min(1.0, lam + (threshold - prob) / (p_a - p_b) + 2.0**k * np.finfo(float).eps)
    return best_value, stages, reward, prob


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
       ``GAP_TOL`` of the reward span, so it is optimal; it is returned with
       ``iterations=0``, re-scored by the exact evaluator.
    4. ``ascent``: projected gradient ascent from the best feasible vertex
       and from the uniform profile, a feasibility bisection and a boundary
       polish; the best of their results, the best feasible vertex and the
       closed-form mix is returned.

    Every feasible result has an exact probability of at least
    ``1 - epsilon`` and a ``gap`` to the LP bound.

    Plans are memoised.  The solver is deterministic and reads nothing but
    its arguments, and a belief is a point mass, so a plan is a function of
    the kernel, reward and safe set, ``epsilon``, ``discount``, ``horizon``,
    the belief's state and its level weights, and of the solver code.  A
    call that repeats all of them exactly returns the plan the first one
    produced, the same object.  The memo holds up to ``PLAN_MEMO_SIZE``
    plans and only weak references to the inputs it keys by identity.

    The identity keys are sound only for inputs no write can reach: a
    ``reward`` or ``safe_set`` that is writeable, or a read-only view of a
    writeable array, bypasses the memo (see :func:`_frozen`).  The kernel's
    arrays are always read-only, and ``GameSpec.safe_set`` and
    ``Scenario.ego_objective`` are made so (see :func:`game.read_only`).
    Rebinding any function or class of this module -- a spy, a tracer,
    another projection -- empties the memo, so no plan outlives the code
    that solved it.
    """
    if not (_frozen(reward) and _frozen(safe_set)):
        return _solve(kernel, reward, safe_set, belief, epsilon, discount, horizon)
    global _memo_solver
    solver = _solver_bindings(globals())
    if solver != _memo_solver:
        _plan_memo.clear()
        _memo_solver = solver
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
        pick = int(np.flatnonzero(near)[np.argmax(vertex_r[near])])
        return PlanResult(
            profile=DecisionProfile(_vertex(pick, horizon, nu)),
            expected_reward=float(vertex_r[pick]),
            constraint_probability=float(vertex_p[pick]),
            feasible=False,
            iterations=0,
            path="infeasible",
        )

    feas_idx = np.flatnonzero(feasible)
    best_feas = int(feas_idx[np.argmax(vertex_r[feas_idx])])
    best_stages = _vertex(best_feas, horizon, nu)
    best_r = float(vertex_r[best_feas])
    best_p = float(vertex_p[best_feas])

    if best_r >= vertex_r.max() - 1e-15:
        # The unconstrained optimum is feasible; randomization cannot improve
        # on it (multilinear objective attains its maximum at a vertex).
        return PlanResult(
            profile=DecisionProfile(best_stages),
            expected_reward=best_r,
            constraint_probability=best_p,
            feasible=True,
            iterations=0,
            path="unconstrained",
        )

    reward_span = float(vertex_r.max() - vertex_r.min())
    bound = _lp_bound(vertex_r, vertex_p, threshold)
    tol = GAP_TOL * reward_span

    def gap(reward: float) -> float:
        return bound - reward if bound - reward > tol else 0.0

    cf_value, cf_stages, cf_r, cf_p = _closed_form(
        compiled, vertex_r, vertex_p, threshold, best_feas
    )
    if cf_p >= threshold and bound - cf_value <= tol:
        return PlanResult(
            profile=DecisionProfile(cf_stages),
            expected_reward=float(cf_r),
            constraint_probability=float(cf_p),
            feasible=True,
            iterations=0,
            path="closed-form",
            gap=gap(cf_r),
        )

    iterations = 0
    candidates = [(best_r, best_p, best_stages)]
    for start in (best_stages, np.full((horizon, nu), 1.0 / nu)):
        rho = max(10.0 * reward_span, 1.0) / max(epsilon, 1e-6)
        stages = start
        for _ in range(2):
            stages, used = _ascend(compiled, stages, threshold, rho)
            iterations += used
            _, p_end = compiled.evaluate(stages)
            if p_end >= threshold:
                break
            rho *= 10.0
        r_end, p_end = compiled.evaluate(stages)
        if p_end < threshold:
            stages = _bisect_feasible(compiled, stages, best_stages, threshold)
            r_end, p_end = compiled.evaluate(stages)
        if p_end >= threshold:
            candidates.append((r_end, p_end, stages))

    # Boundary polish: the constrained optimum mixes the best feasible point
    # with the reward-maximizing (infeasible) vertex; push as much mass
    # toward the latter as the constraint allows.
    r_best, _, stages_best = max(candidates, key=lambda c: c[0])
    top_stages = _vertex(int(np.argmax(vertex_r)), horizon, nu)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cand = (1.0 - mid) * stages_best + mid * top_stages
        r_c, p_c = compiled.evaluate(cand)
        if p_c >= threshold:
            lo = mid
            if r_c > r_best:
                candidates.append((r_c, p_c, cand))
                r_best = r_c
        else:
            hi = mid

    # The closed-form mix joins last, so it wins only when strictly better.
    if cf_p >= threshold:
        candidates.append((cf_r, cf_p, cf_stages))
    r_fin, p_fin, stages_fin = max(candidates, key=lambda c: c[0])
    return PlanResult(
        profile=DecisionProfile(stages_fin),
        expected_reward=float(r_fin),
        constraint_probability=float(p_fin),
        feasible=True,
        iterations=iterations,
        path="ascent",
        gap=gap(r_fin),
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
    """
    horizon = spec.horizon if horizon is None else horizon
    discount = spec.discount if discount is None else discount
    if not 0 <= state < spec.num_states:
        raise ValueError(f"state {state} out of range")
    table = spec.transition_table
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
                x = int(table[x, ego_seq[tau], env_seq[tau]])
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


# Every function and class of this module, as bound when called with the
# module's globals.  :func:`_solve` looks its helpers up there at call
# time, so rebinding any of them changes the solver.
_solver_bindings = operator.itemgetter(*(
    name for name, value in list(globals().items())
    if isinstance(value, (types.FunctionType, type)) and value.__module__ == __name__
))
