"""Brute-force reference implementations the fast code is tested against.

Everything here enumerates paths one state at a time, composing each
transition from the two vehicles' moves by its definition (see
:func:`joint_successor`), or writes the paper's dense recursions
over the whole augmented space; nothing touches the compiled horizons,
point-mass beliefs or vectorized Q-backups being verified.  The row-form
references compute a table over ``(states, actions)`` rows, the form it is
defined by, for the action-major code that must match it bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from chplanner.game import EGO, ROW_SUM_TOL, GameSpec, PolicyTable
from chplanner.hierarchy import CACHE_FORMAT_VERSION
from chplanner.inference import Belief
from chplanner.traffic import MERGE_SECTION, _vehicle_successors


@dataclass(frozen=True, eq=False)
class JointGame:
    """A game given by an arbitrary joint table ``T[x, u1, u2]``.

    ``GameSpec`` holds only products of two vehicles' moves; the planner's
    regression draws were found on random joint tables, which are not such
    products, and the planner reads a game only through its kernel.  The
    oracles accept either (see :func:`joint_successor`), and
    :class:`JointTableKernel` serves such a game's rows.
    """

    table: np.ndarray
    discount: float
    horizon: int

    @property
    def num_states(self) -> int:
        return self.table.shape[0]

    @property
    def num_ego_actions(self) -> int:
        return self.table.shape[1]

    @property
    def num_env_actions(self) -> int:
        return self.table.shape[2]


def joint_successor(spec, x: int, u1: int, u2: int) -> int:
    """``T[x, u1, u2]`` by its definition: state ``x = e * n_h + h`` moves each vehicle."""
    if isinstance(spec, JointGame):
        return int(spec.table[x, u1, u2])
    n_h = len(spec.env_successors)
    e, h = x // n_h, x % n_h
    return int(spec.ego_successors[e, u1]) * n_h + int(spec.env_successors[h, u2])


def joint_table(spec: GameSpec) -> np.ndarray:
    """The int64 ``(|X|, |U1|, |U2|)`` joint transition table, one entry per index triple.

    Every entry is :func:`joint_successor`'s formula evaluated at its own
    ``(x, u1, u2)``, over broadcast index grids so the packaged scenarios'
    million-entry tables take a second, not minutes.
    """
    if isinstance(spec, JointGame):
        return spec.table
    n_h = len(spec.env_successors)
    x, u1, u2 = np.ix_(np.arange(spec.num_states), np.arange(spec.num_ego_actions),
                       np.arange(spec.num_env_actions))
    ego = spec.ego_successors.astype(np.int64)
    return ego[x // n_h, u1] * n_h + spec.env_successors.astype(np.int64)[x % n_h, u2]


def random_game(rng, n_e, n_h, nu1, nu2, horizon=3, discount=0.9, safe_frac=0.7):
    """Random product game of ``n_e`` ego and ``n_h`` env cells, time-invariant safe set.

    Returns the spec, its :func:`joint_table`, both reward vectors and the
    safe mask.
    """
    nx = n_e * n_h
    ego = rng.integers(0, n_e, size=(n_e, nu1))
    env = rng.integers(0, n_h, size=(n_h, nu2))
    r1 = rng.normal(size=nx)
    r2 = rng.normal(size=nx)
    safe = rng.random(nx) < safe_frac
    if not safe.any():
        safe[rng.integers(0, nx)] = True
    spec = GameSpec(
        ego_successors=ego,
        env_successors=env,
        ego_reward_table=r1,
        env_reward_table=r2,
        safe_set=safe,
        discount=discount,
        horizon=horizon,
    )
    return spec, joint_table(spec), r1, r2, safe


def random_policy(rng, level, player, nx, num_actions) -> PolicyTable:
    return PolicyTable(level, player, rng.dirichlet(np.ones(num_actions), size=nx))


def open_loop_q_oracle(spec: GameSpec, player: int, opponent: PolicyTable) -> np.ndarray:
    """Q(x, u) by enumerating every own sequence and every opponent path."""
    n_own = spec.num_actions(player)
    n_opp = opponent.num_actions
    rewards = spec.rewards(player)
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
                            ns = joint_successor(spec, s, own[tau], o)
                        else:
                            ns = joint_successor(spec, s, o, own[tau])
                        stack.append(
                            (ns, tau + 1, w * pw, acc + spec.discount**tau * rewards[ns])
                        )
                q[x, u0] = max(q[x, u0], total)
    return q


def _add_columns(terms: np.ndarray) -> np.ndarray:
    """Add the columns of a ``(rows, n)`` array left to right, one ``+`` each."""
    total = terms[:, 0]
    for j in range(1, terms.shape[1]):
        total = total + terms[:, j]
    return total


def row_sum_q_reference(spec: GameSpec, player: int, opponent: PolicyTable) -> np.ndarray:
    """Q(x, u) by backups over ``(states, opponent actions)`` rows.

    Each backup is ``P * (R[nxt] + discount * tail[nxt])`` over
    ``(states, n_opp)`` rows, the row form the Q-tables are defined by, with
    each row's terms added left to right in opponent-action order.  The
    suffix enumeration is the fast code's; only the backup's layout differs.
    """
    succ = joint_table(spec)
    if player != EGO:
        succ = succ.transpose(0, 2, 1)
    rewards = spec.rewards(player)
    probs = opponent.probs

    def suffixes(depth):
        if depth == 0:
            yield np.zeros(spec.num_states)
            return
        for tail in suffixes(depth - 1):
            for u in range(succ.shape[1]):
                nxt = succ[:, u, :]
                yield _add_columns(probs * (rewards[nxt] + spec.discount * tail[nxt]))

    n_own = succ.shape[1]
    q = np.full((spec.num_states, n_own), -np.inf)
    for i, v in enumerate(suffixes(spec.horizon)):
        np.maximum(q[:, i % n_own], v, out=q[:, i % n_own])
    return q


def softmax_row_reference(values: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax over ``(states, actions)`` rows, the form the policies are defined by.

    Each row's normaliser adds its entries left to right in action order.
    """
    z = values / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / _add_columns(e)[:, None]


def level0_pick_row_reference(q: np.ndarray, preferred: int) -> np.ndarray:
    """Per ``(states, actions)`` row: ``argmax``, overridden by ``preferred`` on a tie."""
    best = q.max(axis=1)
    pick = q.argmax(axis=1)
    coast_ok = q[:, preferred] == best
    return np.where(coast_ok, preferred, pick)


def level0_row_reference(scenario, player: int) -> np.ndarray:
    """The level-0 anchor's table, computed over ``(states, actions)`` rows."""
    config = scenario.config
    spec = scenario.spec
    n_h = scenario.human_grid.num_codes
    e_of = np.arange(spec.num_states) // n_h
    h_of = np.arange(spec.num_states) % n_h
    if player == EGO:
        succ = _vehicle_successors(scenario.ego_grid, scenario.ego_actions, config.dt)
        frozen = succ[e_of] * n_h + h_of[:, None]
        rewards = spec.ego_reward_table
        actions = scenario.ego_actions
    else:
        succ = _vehicle_successors(scenario.human_grid, scenario.env_actions, config.dt)
        frozen = e_of[:, None] * n_h + succ[h_of]
        rewards = spec.env_reward_table
        actions = scenario.env_actions

    values = np.zeros(spec.num_states)
    q = np.empty_like(frozen, dtype=float)
    for _ in range(config.horizon):
        q = rewards[frozen] + config.discount * values[frozen]
        values = q.max(axis=1)

    if config.level0_softmax:
        return softmax_row_reference(q, config.softmax_temperature)

    pick = level0_pick_row_reference(q, actions.index((0.0, "keep")))
    probs = np.zeros_like(q)
    probs[np.arange(spec.num_states), pick] = 1.0
    return probs


def grid_closure_loop_reference(config) -> str | None:
    """The message of the first (speed, acceleration, cap) a nested loop finds off the grids."""
    v_max = max(config.ego_v_max, config.human_v_max)
    speeds = config.v_step * np.arange(int(round(v_max / config.v_step)) + 1)
    for v in speeds:
        for a in config.accel_set:
            for cap in (config.ego_v_max, config.human_v_max):
                if v > cap:
                    continue
                v2 = min(max(v + config.dt * a, 0.0), cap)
                if abs(v2 / config.v_step - round(v2 / config.v_step)) > 1e-9:
                    return (f"grid closure violated (accel_set, dt, v_step): v={v}, "
                            f"a={a} gives speed {v2} off the v grid")
                disp = config.dt * (v + v2) / 2.0
                if abs(disp / config.pos_step - round(disp / config.pos_step)) > 1e-9:
                    return (f"grid closure violated (accel_set, dt, pos_step): v={v}, "
                            f"a={a} gives displacement {disp} off the position grid")
    return None


def check_rows_scan_reference(probs: np.ndarray, row: str) -> str | None:
    """The message a row-by-row scan gives for the first non-distribution row, or ``None``."""
    bad = ~((probs >= -1e-12) & (probs <= 1.0 + 1e-12)).all(axis=1)
    bad |= np.abs(probs.sum(axis=1) - 1.0) > ROW_SUM_TOL
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return (
        f"{row} {i} is not a distribution (finite entries in [0, 1] summing "
        f"to 1 within {ROW_SUM_TOL}): {probs[i]!r}"
    )


def hash_array_reference(h, arr: np.ndarray, dtype: str) -> None:
    """Feed ``arr`` to ``h`` as a ``dtype`` copy's shape and bytes."""
    a = np.ascontiguousarray(arr.astype(dtype))
    h.update(np.asarray(a.shape, dtype="<i8").tobytes())
    h.update(a.tobytes())


def content_hash_reference(scenario) -> str:
    """``hierarchy_content_hash(*hierarchy_key(scenario))`` in one pass over copied bytes.

    Each vehicle's cell objective is read back from the joint objective as
    a row or a column of its (ego cell, human cell) grid.
    """
    config = scenario.config
    n_e, n_h = scenario.ego_grid.num_codes, scenario.human_grid.num_codes
    coast = (0.0, "keep")
    ego_succ = _vehicle_successors(scenario.ego_grid, scenario.ego_actions, config.dt)
    human_succ = _vehicle_successors(scenario.human_grid, scenario.env_actions, config.dt)
    h = hashlib.sha256()
    h.update(b"chplanner-hierarchy-v%d" % CACHE_FORMAT_VERSION)
    header = [
        n_e, n_h, len(scenario.ego_actions), len(scenario.env_actions), config.horizon,
        max(config.levels), int(config.level0_softmax),
        scenario.ego_actions.index(coast), scenario.env_actions.index(coast),
    ]
    h.update(np.array(header, dtype="<i8").tobytes())
    h.update(np.array(
        [config.discount, config.softmax_temperature, config.collision_penalty], dtype="<f8",
    ).tobytes())
    hash_array_reference(h, ego_succ, "<i4")
    hash_array_reference(h, human_succ, "<i4")
    hash_array_reference(h, scenario.ego_objective.reshape(n_e, n_h)[:, 0], "<f8")
    hash_array_reference(h, scenario.env_objective.reshape(n_e, n_h)[0], "<f8")
    hash_array_reference(h, scenario.spec.safe_set, "|b1")
    return h.hexdigest()


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
                    ns = joint_successor(spec, s, useq[tau], o)
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


def pair_grid_oracle(
    spec: GameSpec,
    env_policies: dict[int, PolicyTable],
    level_prior,
    start_state: int,
    horizon: int,
    safe_set,
    reward_of,
    discount: float,
    threshold: float,
    grid: int = 11,
) -> float:
    """Best reward of a feasible two-action mix at every stage, found on a lattice.

    Scores every vertex with :func:`profile_value_oracle`.  Then, for every
    choice of an action pair ``(a, b)`` per stage, it evaluates the profile
    at each point of a ``grid^H`` lattice of weights (one per stage, on
    ``b``) as the weighted sum of its 2^H corner vertices, and keeps the
    points whose probability reaches ``threshold``.  This generalises
    :func:`two_stage_grid_oracle` from two free stages to all of them.
    Returns ``-inf`` when no point does.
    """
    nu = spec.num_ego_actions
    values = {
        actions: profile_value_oracle(
            spec, env_policies, level_prior, start_state,
            np.eye(nu)[list(actions)], safe_set, reward_of, discount,
        )
        for actions in itertools.product(range(nu), repeat=horizon)
    }
    # The lattice of stage tau's weight varies along axis tau.
    w = [np.linspace(0.0, 1.0, grid).reshape([-1 if k == tau else 1 for k in range(horizon)])
         for tau in range(horizon)]
    best = -np.inf
    for choice in itertools.product(itertools.combinations(range(nu), 2), repeat=horizon):
        r = p = 0.0
        for bits in itertools.product((0, 1), repeat=horizon):
            weight = 1.0
            for tau, bit in enumerate(bits):
                weight = weight * (w[tau] if bit else 1.0 - w[tau])
            r_c, p_c = values[tuple(pair[bit] for pair, bit in zip(choice, bits))]
            r = r + weight * r_c
            p = p + weight * p_c
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
    table = joint_table(spec)
    states = np.full(num_samples, start_state, dtype=np.int64)
    alive = np.ones(num_samples, dtype=bool)
    for tau in range(horizon):
        u1 = rng.choice(spec.num_ego_actions, size=num_samples, p=stages[tau])
        rows = pol[level_idx, states]  # (n, U2)
        cum = np.cumsum(rows, axis=1)
        draws = rng.random(num_samples)
        u2 = (draws[:, None] > cum).sum(axis=1)
        states = table[states, u1, u2]
        alive &= safe_set[states]
    p_hat = alive.mean()
    se = np.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / num_samples)
    return float(p_hat), float(se)


def pure_minimax_value(payoff: np.ndarray) -> float:
    """max_i min_j of a finite payoff matrix."""
    return float(payoff.min(axis=1).max())


def pairwise_sum_reference(values: list[float]) -> float:
    """numpy's pairwise sum of a contiguous float64 run, one addition at a time.

    Below 8 entries the run is added left to right from -0.0.  From 8 to
    128 entries eight accumulators take every eighth entry, are added
    pairwise, and the remainder follows left to right; longer runs are
    halved at a multiple of 8 and the halves added.
    """
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = list(values[:8])
        m = n - n % 8
        for i in range(8, m, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[m:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return pairwise_sum_reference(values[:half]) + pairwise_sum_reference(values[half:])


def kernel_csr_oracle(spec, env_policies) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, targets, probs)`` of the augmented kernel, one row at a time.

    Row ``(k * |X| + x) * |U1| + u1`` lists each target ``k * |X| + T[x, u1, u2]``
    once, in ascending order; zero-mass env actions contribute no entry.  A
    target's probability is the mass of its first env action with mass plus
    the sum of the masses of its later ones, in env-action order: the order
    in which numpy adds a segment, left to right below 9 entries and
    pairwise (:func:`pairwise_sum_reference`) from 9.
    """
    nx, nu1, nu2 = spec.num_states, spec.num_ego_actions, spec.num_env_actions
    indptr, targets, probs = [0], [], []
    for li, level in enumerate(sorted(env_policies)):
        policy = env_policies[level].probs
        for x in range(nx):
            for u1 in range(nu1):
                row: dict[int, list[float]] = {}
                for u2 in range(nu2):
                    p = float(policy[x, u2])
                    if p > 0.0:
                        target = li * nx + joint_successor(spec, x, u1, u2)
                        row.setdefault(target, []).append(p)
                for target in sorted(row):
                    first, *rest = row[target]
                    targets.append(target)
                    probs.append(first + pairwise_sum_reference(rest))
                indptr.append(len(targets))
    return (np.array(indptr, dtype=np.int64), np.array(targets, dtype=np.int64),
            np.array(probs, dtype=float))


class JointTableKernel:
    """The kernel of a :class:`JointGame`, serving rows of :func:`kernel_csr_oracle`.

    Those rows equal ``AugmentedKernel``'s bit for bit on product games
    (the kernel tests check it), so the planner sees a joint game as it saw
    it when the package held joint tables.
    """

    def __init__(self, game: JointGame, env_policies):
        self.levels = tuple(sorted(env_policies))
        self.num_states = game.num_states
        self.num_ego_actions = game.num_ego_actions
        self.num_augmented = self.num_states * len(self.levels)
        self.csr = kernel_csr_oracle(game, env_policies)

    def expand_rows(self, rows):
        return csr_rows_reference(self.csr, rows)


def csr_rows_reference(csr, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(which_row, targets, probs)`` of ``rows`` read from CSR arrays, row by row."""
    indptr, targets, probs = csr
    which, picked = [], []
    for i, r in enumerate(rows):
        span = range(indptr[r], indptr[r + 1])
        which += [i] * len(span)
        picked += span
    return (np.array(which, dtype=np.int64), targets[np.array(picked, dtype=np.int64)],
            probs[np.array(picked, dtype=np.int64)])


def level_likelihoods_csr_reference(csr, num_states, num_ego_actions, prior: Belief,
                                    u1: int, y: int) -> np.ndarray:
    """Per-level mass arriving at ``(y, k)``, read from a materialized CSR.

    The rule the level update used while the kernel was stored: gather the
    prior's support rows under ``u1`` and add ``prob * weight`` of each
    entry whose target is ``y`` into its level with ``np.add.at``.
    """
    nx = num_states
    num_levels = prior.weights.size
    levels = np.flatnonzero(prior.weights)
    mass = prior.weights[levels]
    which, targets, probs = csr_rows_reference(csr, (levels * nx + prior.state) * num_ego_actions + u1)
    masses = np.zeros(num_levels)
    hit = (targets % nx) == y
    np.add.at(masses, targets[hit] // nx, probs[hit] * mass[which[hit]])
    return masses


def bayes_update_csr_reference(csr, num_states, num_ego_actions, prior: Belief, u1: int,
                               y: int, floor: float = 0.0):
    """Posterior level weights from :func:`level_likelihoods_csr_reference`.

    Lifts every mass to ``floor`` when it is positive and normalises;
    ``None`` when no mass is left, where the update raises.
    """
    masses = level_likelihoods_csr_reference(csr, num_states, num_ego_actions, prior, u1, y)
    if floor > 0.0:
        masses = np.maximum(masses, floor)
    total = masses.sum()
    return None if total <= 0.0 else masses / total


def kernel_row_check_reference(table: np.ndarray, policies) -> str | None:
    """The row checks a stored kernel build ran, on raw policy arrays.

    Every (level, state, u1) row needs at least one env action with mass,
    and its merged probabilities, added left to right, must sum to one
    within ``ROW_SUM_TOL``.  Returns the message of the first check that
    fails, or ``None``.
    """
    nx, nu1, nu2 = table.shape
    for probs in policies:
        for x in range(nx):
            for u1 in range(nu1):
                row: dict[int, list[float]] = {}
                for u2 in range(nu2):
                    if probs[x, u2] > 0.0:
                        row.setdefault(int(table[x, u1, u2]), []).append(float(probs[x, u2]))
                if not row:
                    return "kernel has empty rows"
                total = 0.0
                for target in sorted(row):
                    first, *rest = row[target]
                    total += first + pairwise_sum_reference(rest)
                if abs(total - 1.0) > ROW_SUM_TOL:
                    return "kernel rows do not sum to 1"
    return None


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
