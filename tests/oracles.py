"""Brute-force reference implementations the fast code is tested against.

Everything here enumerates paths one state at a time by indexing the game's
transition table entry by entry, or writes the paper's dense recursions
over the whole augmented space; nothing touches the compiled horizons,
point-mass beliefs or vectorized Q-backups being verified.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from chplanner.game import EGO, GameSpec, PolicyTable
from chplanner.inference import Belief
from chplanner.traffic import MERGE_SECTION


def random_game(rng, nx, nu1, nu2, horizon=3, discount=0.9, safe_frac=0.7):
    """Random dense-index game with a time-invariant safe set."""
    table = rng.integers(0, nx, size=(nx, nu1, nu2))
    r1 = rng.normal(size=nx)
    r2 = rng.normal(size=nx)
    safe = rng.random(nx) < safe_frac
    if not safe.any():
        safe[rng.integers(0, nx)] = True
    spec = GameSpec(
        transition_table=table,
        ego_reward_table=r1,
        env_reward_table=r2,
        safe_set=safe,
        discount=discount,
        horizon=horizon,
    )
    return spec, table, r1, r2, safe


def random_policy(rng, level, player, nx, num_actions) -> PolicyTable:
    return PolicyTable(level, player, rng.dirichlet(np.ones(num_actions), size=nx))


def open_loop_q_oracle(spec: GameSpec, player: int, opponent: PolicyTable) -> np.ndarray:
    """Q(x, u) by enumerating every own sequence and every opponent path."""
    n_own = spec.num_actions(player)
    n_opp = opponent.num_actions
    rewards = spec.rewards(player)
    table = spec.transition_table
    q = np.full((spec.num_states, n_own), -np.inf)
    for x in range(spec.num_states):
        for u0 in range(n_own):
            for tail in itertools.product(range(n_own), repeat=spec.horizon - 1):
                own = (u0,) + tail
                total = 0.0
                stack = [(x, 0, 1.0, 0.0)]
                while stack:
                    s, tau, w, acc = stack.pop()
                    if tau == spec.horizon:
                        total += w * acc
                        continue
                    for o in range(n_opp):
                        pw = opponent.probs[s, o]
                        if pw == 0.0:
                            continue
                        if player == EGO:
                            ns = int(table[s, own[tau], o])
                        else:
                            ns = int(table[s, o, own[tau]])
                        stack.append(
                            (ns, tau + 1, w * pw, acc + spec.discount**tau * rewards[ns])
                        )
                q[x, u0] = max(q[x, u0], total)
    return q


def profile_value_oracle(
    spec: GameSpec,
    env_policies: dict[int, PolicyTable],
    level_prior,
    start_state: int,
    stages: np.ndarray,
    safe_set,
    reward_of,
    discount: float,
) -> tuple[float, float]:
    """Expected reward and joint-safety probability by full path enumeration.

    Enumerates (level, ego action sequence, opponent path) triples weighted
    by prior x profile x policy products.  ``reward_of`` maps a physical
    state index to the ego reward value.
    """
    levels = sorted(env_policies)
    horizon = stages.shape[0]
    expected = 0.0
    p_safe = 0.0
    for li, level in enumerate(levels):
        probs = env_policies[level].probs
        for useq in itertools.product(range(spec.num_ego_actions), repeat=horizon):
            wu = 1.0
            for t, u in enumerate(useq):
                wu *= stages[t, u]
            if wu == 0.0:
                continue
            stack = [(start_state, 0, 1.0, 0.0, True)]
            while stack:
                s, tau, w, acc, alive = stack.pop()
                if tau == horizon:
                    expected += level_prior[li] * wu * w * acc
                    p_safe += level_prior[li] * wu * w * (1.0 if alive else 0.0)
                    continue
                for o in range(spec.num_env_actions):
                    pw = probs[s, o]
                    if pw == 0.0:
                        continue
                    ns = int(spec.transition_table[s, useq[tau], o])
                    stack.append(
                        (
                            ns,
                            tau + 1,
                            w * pw,
                            acc + discount**tau * reward_of(ns),
                            alive and bool(safe_set[ns]),
                        )
                    )
    return expected, p_safe


def lp_bound_oracle(
    spec: GameSpec,
    env_policies: dict[int, PolicyTable],
    level_prior,
    start_state: int,
    horizon: int,
    safe_set,
    reward_of,
    discount: float,
    threshold: float,
) -> float:
    """Best reward of a vertex mixture whose probability reaches ``threshold``.

    Scores every vertex with :func:`profile_value_oracle`, then takes the
    best feasible vertex or boundary mix of a feasible and an infeasible
    vertex, trying every pair.  At least one vertex must be feasible.
    """
    nu = spec.num_ego_actions
    values = [
        profile_value_oracle(
            spec, env_policies, level_prior, start_state,
            np.eye(nu)[list(actions)], safe_set, reward_of, discount,
        )
        for actions in itertools.product(range(nu), repeat=horizon)
    ]
    feasible = [(r, p) for r, p in values if p >= threshold]
    infeasible = [(r, p) for r, p in values if p < threshold]
    best = max(r for r, _ in feasible)
    for r_a, p_a in feasible:
        for r_b, p_b in infeasible:
            lam = (threshold - p_b) / (p_a - p_b)
            best = max(best, lam * r_a + (1.0 - lam) * r_b)
    return best



def two_stage_grid_oracle(
    spec: GameSpec,
    env_policies: dict[int, PolicyTable],
    level_prior,
    start_state: int,
    horizon: int,
    safe_set,
    reward_of,
    discount: float,
    threshold: float,
    grid: int = 101,
) -> float:
    """Best reward of a feasible two-stage mix found on a ``grid x grid`` lattice.

    Scores every vertex with :func:`profile_value_oracle`.  Then, for every
    stage pair, every vertex for the other stages and every pair of
    actions in each of the two stages, it evaluates the mix at each lattice
    point ``(x, y)`` (``x`` on the first action of the first stage's pair,
    ``y`` on the first of the second's) as the weighted sum of its four
    corner vertices, and keeps the points whose probability reaches
    ``threshold``.  Returns ``-inf`` when no point does.
    """
    nu = spec.num_ego_actions
    values = {
        actions: profile_value_oracle(
            spec, env_policies, level_prior, start_state,
            np.eye(nu)[list(actions)], safe_set, reward_of, discount,
        )
        for actions in itertools.product(range(nu), repeat=horizon)
    }
    w = np.linspace(0.0, 1.0, grid)
    x, y = w[:, None], w[None, :]
    pairs = list(itertools.combinations(range(nu), 2))
    best = -np.inf
    for s, t in itertools.combinations(range(horizon), 2):
        for base in itertools.product(range(nu), repeat=horizon):
            if base[s] != 0 or base[t] != 0:
                continue  # one representative per choice of the other stages
            for (a, b), (c, d) in itertools.product(pairs, pairs):
                def corner(u_s, u_t):
                    actions = list(base)
                    actions[s], actions[t] = u_s, u_t
                    return values[tuple(actions)]

                r = p = 0.0
                for (u_s, wx), (u_t, wy) in itertools.product(
                    ((a, x), (b, 1.0 - x)), ((c, y), (d, 1.0 - y))
                ):
                    r_c, p_c = corner(u_s, u_t)
                    r = r + wx * wy * r_c
                    p = p + wx * wy * p_c
                feasible = p >= threshold
                if feasible.any():
                    best = max(best, float(r[feasible].max()))
    return best


def dense_kernel_matrix(kernel, u1: int) -> np.ndarray:
    """Dense ``P[target, source]`` transition matrix for one ego action."""
    n = kernel.num_augmented
    mat = np.zeros((n, n))
    for src in range(n):
        targets, probs = kernel.row(src, u1)
        mat[targets, src] += probs
    return mat


def dense_predict_oracle(kernel, dist: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The dense one-step prediction written as the literal matrix product.

    Builds ``(I (x) gamma^T) diag(P(x_1), ..., P(x_n)) (1 (x) pi)`` with
    explicit Kronecker products, which is tractable only for tiny spaces.
    """
    n = kernel.num_augmented
    m = kernel.num_ego_actions
    mats = [dense_kernel_matrix(kernel, u) for u in range(m)]
    # P(x_i) stacked per target: an (m x n) block per augmented state.
    blocks = [np.vstack([mats[u][i, :] for u in range(m)]) for i in range(n)]
    diag = np.zeros((n * m, n * n))
    for i, block in enumerate(blocks):
        diag[i * m:(i + 1) * m, i * n:(i + 1) * n] = block
    left = np.kron(np.eye(n), gamma.reshape(1, m))
    right = np.kron(np.ones((n, 1)), dist.reshape(n, 1))
    return (left @ diag @ right).ravel()


def dense_belief(belief: Belief, num_states: int) -> np.ndarray:
    """The |X|·K probability vector of a point-mass belief, level-major."""
    probs = np.zeros(num_states * belief.num_levels)
    probs[np.arange(belief.num_levels) * num_states + belief.state] = belief.weights
    return probs


def predict(kernel, dist, gamma) -> np.ndarray:
    """One-step predicted distribution over augmented states.

    ``next(i) = sum_j sum_l gamma(l) P(i | j, l) dist(j)`` -- the sparse form
    of the dense one-step matrix recursion.  ``dist`` may be a
    :class:`Belief` or a raw probability vector; the result is a raw vector.
    """
    if isinstance(dist, Belief):
        dist = dense_belief(dist, kernel.num_states)
    p = np.asarray(dist, dtype=float)
    if p.size != kernel.num_augmented:
        raise ValueError(
            f"distribution length {p.size} does not match kernel ({kernel.num_augmented})"
        )
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (kernel.num_ego_actions,):
        raise ValueError(
            f"gamma length {gamma.size} does not match {kernel.num_ego_actions} ego actions"
        )
    out = np.zeros(kernel.num_augmented)
    support = np.flatnonzero(p)
    for u1 in range(kernel.num_ego_actions):
        g = gamma[u1]
        if g == 0.0:
            continue
        which, targets, probs = kernel.expand_rows(support * kernel.num_ego_actions + u1)
        np.add.at(out, targets, probs * (g * p[support][which]))
    return out


def dense_posterior_oracle(kernel, prior: Belief, u1: int, y: int, floor: float):
    """Level weights of the posterior by the dense recursion.

    Predicts the prior's dense vector one step under the deterministic
    action ``u1`` with :func:`dense_predict_oracle`, keeps the mass on
    ``{y} x K``, lifts it to ``floor`` when ``floor > 0`` and normalises.
    Returns ``None`` when no mass is left to normalise.
    """
    nx = kernel.num_states
    predicted = dense_predict_oracle(
        kernel, dense_belief(prior, nx), np.eye(kernel.num_ego_actions)[u1]
    )
    masses = predicted[np.arange(len(kernel.levels)) * nx + y]
    if floor > 0.0:
        masses = np.maximum(masses, floor)
    total = masses.sum()
    return None if total == 0.0 else masses / total


def monte_carlo_joint_safety(
    spec: GameSpec,
    env_policies: dict[int, PolicyTable],
    level_prior,
    start_state: int,
    stages: np.ndarray,
    safe_set,
    num_samples: int,
    rng,
) -> tuple[float, float]:
    """Sampled joint-safety probability and its standard error."""
    levels = sorted(env_policies)
    horizon = stages.shape[0]
    level_idx = rng.choice(len(levels), size=num_samples, p=np.asarray(level_prior))
    pol = np.stack([env_policies[k].probs for k in levels])  # (K, X, U2)
    states = np.full(num_samples, start_state, dtype=np.int64)
    alive = np.ones(num_samples, dtype=bool)
    for tau in range(horizon):
        u1 = rng.choice(spec.num_ego_actions, size=num_samples, p=stages[tau])
        rows = pol[level_idx, states]  # (n, U2)
        cum = np.cumsum(rows, axis=1)
        draws = rng.random(num_samples)
        u2 = (draws[:, None] > cum).sum(axis=1)
        states = spec.transition_table[states, u1, u2]
        alive &= safe_set[states]
    p_hat = alive.mean()
    se = np.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / num_samples)
    return float(p_hat), float(se)


def pure_minimax_value(payoff: np.ndarray) -> float:
    """max_i min_j of a finite payoff matrix."""
    return float(payoff.min(axis=1).max())


def kernel_csr_oracle(spec: GameSpec, env_policies) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, targets, probs)`` of the augmented kernel, one row at a time.

    Row ``(k * |X| + x) * |U1| + u1`` lists each target ``k * |X| + T[x, u1, u2]``
    once, in ascending order, with the policy mass of its env actions added
    up in env-action order; zero-mass env actions contribute no entry.
    """
    nx, nu1, nu2 = spec.transition_table.shape
    indptr, targets, probs = [0], [], []
    for li, level in enumerate(sorted(env_policies)):
        policy = env_policies[level].probs
        for x in range(nx):
            for u1 in range(nu1):
                row: dict[int, float] = {}
                for u2 in range(nu2):
                    p = float(policy[x, u2])
                    if p > 0.0:
                        target = li * nx + int(spec.transition_table[x, u1, u2])
                        row[target] = row.get(target, 0.0) + p
                for target in sorted(row):
                    targets.append(target)
                    probs.append(row[target])
                indptr.append(len(targets))
    return (np.array(indptr, dtype=np.int64), np.array(targets, dtype=np.int64),
            np.array(probs, dtype=float))


# ---------------------------------------------------------------------------
# Episode semantics, one decoded state at a time (``None`` is the done cell).


def _in_left_lane(config, ego) -> bool:
    return math.isclose(ego.s_y, 3.0 * config.lane_width / 2.0)


def _overtaken(config, ego, human) -> bool:
    return (
        ego is not None
        and human is not None
        and not _in_left_lane(config, ego)
        and ego.s_x - human.s_x >= 1.6 * config.car_length
    )


def episode_complete_oracle(config, ego, human) -> bool:
    """Whether the scenario's region of interest has been resolved."""
    if ego is None and human is None:
        return True
    if config.name == "intersection":
        if ego is None or human is None:
            return True
        clear = 1.2 * config.car_length
        return (ego.s_x >= config.lane_width / 2.0 + clear
                and human.s_x >= -config.lane_width / 2.0 + clear)
    if config.name == "overtaking":
        return ego is None or human is None or _overtaken(config, ego, human)
    return ego is None or _in_left_lane(config, ego)


def outcome_events_oracle(config, ego, human) -> dict:
    """Outcome events in one state, keyed like ``Scenario.events``.

    The merging qualifiers are ``None`` where the ego has left the road,
    since only the state at which the ego merges is asked about them.
    """
    if config.name == "intersection":
        return {
            "ego_cross": ego is None or ego.s_x > config.lane_width / 2.0,
            "human_cross": human is None or human.s_x > -config.lane_width / 2.0,
        }
    if config.name == "overtaking":
        return {"overtake": _overtaken(config, ego, human)}
    if ego is None:
        return {"merge": False, "merged_ahead": None, "merged_in_section": None}
    return {
        "merge": _in_left_lane(config, ego),
        "merged_ahead": human is None or ego.s_x > human.s_x,
        "merged_in_section": MERGE_SECTION[0] < ego.s_x <= MERGE_SECTION[1],
    }


def classify_outcome_oracle(scenario, states) -> dict:
    """Episode summary from the decoded states, one step at a time."""
    config = scenario.config
    events = [outcome_events_oracle(config, *scenario.decode(s)) for s in states]

    def first(name):
        return next((t for t, ev in enumerate(events) if ev[name]), None)

    out = {"scenario": config.name, "violation": any(not scenario.is_safe(s) for s in states)}
    if config.name == "intersection":
        ego_step, human_step = first("ego_cross"), first("human_cross")
        out.update(
            ego_crossed_first=ego_step is not None
            and (human_step is None or ego_step < human_step),
            ego_cross_step=ego_step,
            human_cross_step=human_step,
        )
    elif config.name == "overtaking":
        step = first("overtake")
        out.update(completed=step is not None, completion_step=step)
    else:
        step = first("merge")
        out.update(
            merged=step is not None,
            merge_step=step,
            merged_ahead=None if step is None else events[step]["merged_ahead"],
            merged_in_section=None if step is None else events[step]["merged_in_section"],
        )
    return out
