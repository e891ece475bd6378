import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chplanner import cli, inference
from chplanner.game import ENV, ROW_SUM_TOL, PolicyTable
from chplanner.inference import (
    Belief,
    InconsistentObservationError,
    bayes_update,
    build_kernel,
    init_belief,
)
from chplanner.traffic import default_config

from conftest import make_spec
from oracles import (
    bayes_update_csr_reference,
    csr_rows_reference,
    dense_posterior_oracle,
    dense_predict_oracle,
    joint_table,
    kernel_csr_oracle,
    kernel_row_check_reference,
    level_likelihoods_csr_reference,
    pairwise_sum_reference,
    predict,
    random_game,
    random_policy,
)


def _zero_spec(ego, env, horizon=3):
    """A product game of the given successor tables with zero rewards, all safe."""
    nx = len(ego) * len(env)
    return make_spec(ego, env, np.zeros(nx), np.zeros(nx), np.ones(nx, bool), horizon=horizon)


def _kernel_for(ego, env, policies, horizon=3):
    spec = _zero_spec(ego, env, horizon)
    return spec, build_kernel(spec, policies)


# One ego cell and action: the env vehicle's table is the whole transition.
ONE_EGO_CELL = [[0]]
# One env cell and action: the ego's table is the whole transition.
ONE_ENV_CELL = [[0]]


def test_kernel_one_hot_policy_gives_unit_rows():
    env = [[1, 0], [0, 1]]  # 2 states, 1 ego action, 2 env actions
    onehot = np.zeros((2, 2))
    onehot[:, 0] = 1.0
    _, kernel = _kernel_for(ONE_EGO_CELL, env, {1: PolicyTable(1, ENV, onehot)})
    targets, probs = kernel.row(0, 0)
    assert list(targets) == [1] and list(probs) == [1.0]
    targets, probs = kernel.row(1, 0)
    assert list(targets) == [0] and list(probs) == [1.0]


def test_kernel_uniform_policy_splits_mass():
    env = [[1, 2], [1, 1], [2, 2]]
    uniform = PolicyTable(1, ENV, np.full((3, 2), 0.5))
    _, kernel = _kernel_for(ONE_EGO_CELL, env, {1: uniform})
    targets, probs = kernel.row(0, 0)
    assert list(targets) == [1, 2]
    assert np.allclose(probs, 0.5)


def test_kernel_aggregates_same_successor():
    env = [[1, 1], [1, 1]]  # both env actions reach state 1
    policy = PolicyTable(1, ENV, np.array([[0.3, 0.7], [0.3, 0.7]]))
    _, kernel = _kernel_for(ONE_EGO_CELL, env, {1: policy})
    targets, probs = kernel.row(0, 0)
    assert list(targets) == [1]
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_kernel_rows_stochastic_and_level_conserving():
    rng = np.random.default_rng(0)
    spec, table, *_ = random_game(rng, n_e=2, n_h=4, nu1=3, nu2=3)
    policies = {
        1: random_policy(rng, 1, ENV, 8, 3),
        2: random_policy(rng, 2, ENV, 8, 3),
    }
    kernel = build_kernel(spec, policies)
    for aug in range(kernel.num_augmented):
        for u1 in range(kernel.num_ego_actions):
            targets, probs = kernel.row(aug, u1)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert (targets // 8 == aug // 8).all()  # level never changes


def _zero_pattern_game(rng):
    """6 x 4 cells, 2 ego x 4 env actions, three levels with planted zero patterns."""
    n_e, n_h, nu1, nu2 = 6, 4, 2, 4
    nx = n_e * n_h
    spec, *_ = random_game(rng, n_e, n_h, nu1, nu2)
    env = spec.env_successors.copy()  # the spec holds the table read-only
    env[::2, 3] = env[::2, 0]  # duplicate successors to merge
    env[::3, :] = env[::3, :1]  # rows whose four entries share one target
    spec = _zero_spec(spec.ego_successors, env)
    probs = rng.dirichlet(np.ones(nu2), size=(3, nx))
    # Level 1: the duplicate pair {0, 3} loses its first entry everywhere and
    # all its mass in every fourth state; a one-target row then merges a
    # massless entry followed by three with mass.
    probs[0][:, 0] = 0.0
    probs[0][::4, 3] = 0.0
    probs[1][:, 3] = 0.0  # level 2: the pair keeps only its first entry
    probs[2][rng.random((nx, nu2)) < 0.3] = 0.0  # level 3: scattered zeros
    probs[2][probs[2].sum(axis=1) == 0.0, 1] = 1.0
    policies = {
        k: PolicyTable(k, ENV, p / p.sum(axis=1, keepdims=True))
        for k, p in zip((1, 2, 3), probs)
    }
    return spec, policies


def _wide_game(rng):
    """|U2| = 12 onto 3 env cells, so runs of 9 or more equal targets merge pairwise."""
    n_e, n_h, nu1, nu2 = 2, 3, 3, 12
    nx = n_e * n_h
    env = rng.integers(0, n_h, size=(n_h, nu2))
    env[0, :] = 1  # one target for all twelve entries
    env[1, :10] = 2  # ten entries on one target, two elsewhere
    spec = _zero_spec(rng.integers(0, n_e, size=(n_e, nu1)), env)
    # Masses spread over decades make the pairwise and left-to-right sums differ.
    probs = rng.random((2, nx, nu2)) * 10.0 ** rng.integers(-6, 1, size=(2, nx, nu2))
    probs[1][rng.random((nx, nu2)) < 0.2] = 0.0
    policies = {
        k: PolicyTable(k, ENV, p / p.sum(axis=1, keepdims=True)) for k, p in zip((1, 2), probs)
    }
    return spec, policies


@pytest.mark.parametrize("block_entries", [1, 30, 1 << 17])
def test_kernel_matches_row_by_row_oracle_across_blocks(monkeypatch, block_entries):
    # 3 levels of 24 states x 2 ego actions are 144 rows of 4 entries: with
    # 30 entries a block of the CSR view holds 7 rows, so blocks straddle
    # states and levels and the last block is short; 1 entry is less than
    # one row's 4, which still makes one-row blocks.
    monkeypatch.setattr(inference, "KERNEL_BLOCK_ENTRIES", block_entries)
    spec, policies = _zero_pattern_game(np.random.default_rng(12))
    kernel = build_kernel(spec, policies)
    for got, want in zip((kernel.indptr, kernel.targets, kernel.probs),
                         kernel_csr_oracle(spec, policies)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("game", [_zero_pattern_game, _wide_game])
def test_expand_rows_matches_oracle_rows(game):
    # Rows computed on demand against the materialized oracle, byte for byte:
    # random subsets mix levels, repeat rows and come unsorted; every row is
    # also asked for alone.
    rng = np.random.default_rng(21)
    spec, policies = game(rng)
    kernel = build_kernel(spec, policies)
    csr = kernel_csr_oracle(spec, policies)
    num_rows = csr[0].size - 1
    calls = [rng.integers(0, num_rows, size=int(rng.integers(1, 3 * num_rows)))
             for _ in range(40)]
    calls += [np.array([r]) for r in range(num_rows)]
    for rows in calls:
        for got, want in zip(kernel.expand_rows(rows), csr_rows_reference(csr, rows)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    nu1 = spec.num_ego_actions
    for r in range(num_rows):
        targets, probs = kernel.row(r // nu1, r % nu1)
        assert targets.tobytes() == csr[1][csr[0][r]:csr[0][r + 1]].tobytes()
        assert probs.tobytes() == csr[2][csr[0][r]:csr[0][r + 1]].tobytes()
    if game is _wide_game:
        # Some run of 9 or more equal targets sums otherwise pairwise than left
        # to right, so the rows above cover numpy's pairwise branch.
        differs = []
        table = joint_table(spec)
        for policy in policies.values():
            for x, u1 in ((0, 0), (1, 1)):  # env cells 0 and 1: 12 and 10 equal targets
                run = [p for p, t in zip(policy.probs[x].tolist(), table[x, u1].tolist())
                       if p > 0.0 and t == table[x, u1, 0]]
                left_to_right = 0.0
                for p in run:
                    left_to_right += p
                differs.append(run[0] + pairwise_sum_reference(run[1:]) != left_to_right)
        assert any(differs)


@pytest.mark.parametrize("game", [_zero_pattern_game, _wide_game])
def test_bayes_update_matches_the_stored_kernel_rule(game):
    # The update reads the tables, not rows; its weights are bit-identical to
    # the rule that read a materialized kernel, including rows that merge
    # three or more equal targets and the floor retry on an observation
    # every level rules out.
    rng = np.random.default_rng(22)
    spec, policies = game(rng)
    kernel = build_kernel(spec, policies)
    csr = kernel_csr_oracle(spec, policies)
    nx, nu1 = spec.num_states, spec.num_ego_actions
    retries = 0
    for _ in range(8):
        weights = rng.dirichlet(np.ones(len(policies)))
        if rng.random() < 0.3:
            weights[rng.integers(len(policies))] = 0.0
            weights /= weights.sum()
        for x in range(nx):
            prior = Belief(state=x, weights=weights)
            for u1 in range(nu1):
                for y in range(nx):
                    want = level_likelihoods_csr_reference(csr, nx, nu1, prior, u1, y)
                    got = inference._level_likelihoods(kernel, prior, u1, y)
                    assert got.tobytes() == want.tobytes()
                    expected = bayes_update_csr_reference(csr, nx, nu1, prior, u1, y)
                    if expected is None:
                        with pytest.raises(InconsistentObservationError):
                            bayes_update(kernel, prior, u1, y)
                        expected = bayes_update_csr_reference(csr, nx, nu1, prior, u1, y, 1e-9)
                        post = bayes_update(kernel, prior, u1, y, floor=1e-9)
                        retries += 1
                    else:
                        post = bayes_update(kernel, prior, u1, y)
                    assert post.weights.tobytes() == expected.tobytes()
    assert retries > 0


@pytest.mark.parametrize("seed", range(6))
def test_expand_rows_matches_the_oracle_on_random_product_games(seed):
    # Every row of random product games, all at once and one at a time,
    # against the oracle that composes each target from the definition.
    # With n_h < |U2| two env actions share a target in every row, so the
    # rows merge targets.
    rng = np.random.default_rng(400 + seed)
    n_e, n_h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    nu1, nu2 = int(rng.integers(1, 4)), int(rng.integers(n_h + 1, 7))
    spec, *_ = random_game(rng, n_e, n_h, nu1, nu2)
    nx = spec.num_states
    policies = {}
    for k in (1, 3):
        probs = rng.dirichlet(np.ones(nu2), size=nx) * (rng.random((nx, nu2)) < 0.7)
        probs[probs.sum(axis=1) == 0.0, -1] = 1.0
        policies[k] = PolicyTable(k, ENV, probs / probs.sum(axis=1, keepdims=True))
    kernel = build_kernel(spec, policies)
    csr = kernel_csr_oracle(spec, policies)
    rows = np.arange(csr[0].size - 1)
    for got, want in zip(kernel.expand_rows(rows), csr_rows_reference(csr, rows)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for r in rng.permutation(rows)[:40]:
        got = kernel.expand_rows(np.array([r]))
        for a, b in zip(got, csr_rows_reference(csr, [r])):
            assert a.tobytes() == b.tobytes()


def test_bayes_update_rejects_an_observation_off_the_ego_move():
    # y's ego cell must be the ego's successor cell: an observation whose
    # env cell some env action reaches, with the ego elsewhere, has zero
    # likelihood under every level, and the floor retry gives the uniform
    # posterior.
    ego = [[1, 2], [2, 0], [0, 1]]  # 3 ego cells, 2 ego actions
    env = [[1, 0, 1], [1, 1, 0]]  # 2 env cells, 3 env actions
    policies = {k: PolicyTable(k, ENV, np.full((6, 3), 1.0 / 3.0)) for k in (1, 2, 3)}
    spec, kernel = _kernel_for(ego, env, policies)
    prior = Belief(state=2 * 2 + 1, weights=[0.2, 0.5, 0.3])  # ego cell 2, env cell 1
    u1 = 1
    assert spec.ego_successors[2, u1] == 1
    for y_e in range(3):
        for y_h in range(2):
            y = y_e * 2 + y_h
            if y_e == 1:
                post = bayes_update(kernel, prior, u1, y)
                assert post.weights.tolist() == pytest.approx([0.2, 0.5, 0.3], abs=1e-15)
                continue
            assert inference._level_likelihoods(kernel, prior, u1, y).tolist() == [0.0] * 3
            with pytest.raises(InconsistentObservationError):
                bayes_update(kernel, prior, u1, y)
            post = bayes_update(kernel, prior, u1, y, floor=1e-9)
            assert post.state == y
            assert post.weights.tolist() == [1.0 / 3.0] * 3


def _policy_row(draw, nu2):
    """A policy row that is a distribution or misses being one in a chosen way."""
    row = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=nu2, max_size=nu2)))
    row[np.array(draw(st.lists(st.booleans(), min_size=nu2, max_size=nu2)))] = 0.0
    if not row.any():
        row[0] = 1.0
    row /= row.sum()
    kind = draw(st.sampled_from(["ok", "scale", "negative", "empty", "nan", "above_one"]))
    if kind == "scale":
        k = draw(st.sampled_from([0.5, 0.999, 1.001, 1.5, 2.0, 1e3, 1e6]))
        row *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * k * ROW_SUM_TOL
    elif kind == "negative":
        row[draw(st.integers(0, nu2 - 1))] = -draw(st.sampled_from([0.5e-12, 1e-12, 2e-12, 1e-6]))
    elif kind == "empty":
        row[:] = 0.0
        if draw(st.booleans()):
            row[0] = -0.5e-12
    elif kind == "nan":
        row[draw(st.integers(0, nu2 - 1))] = np.nan
    elif kind == "above_one":
        row[:] = 0.0
        row[draw(st.integers(0, nu2 - 1))] = 1.0 + draw(st.sampled_from([2e-12, 1e-6]))
    return row


@st.composite
def _policy_cases(draw):
    (n_e, n_h), nu1, nu2 = draw(st.sampled_from([(1, 2), (2, 1)])), 2, draw(st.integers(1, 4))

    def successors(n, nu):
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * nu,
                                      max_size=n * nu))).reshape(n, nu)

    spec = _zero_spec(successors(n_e, nu1), successors(n_h, nu2))
    return spec, np.array([_policy_row(draw, nu2) for _ in range(n_e * n_h)])


def _edge_band(nu2):
    # Below the tolerance edge, the stored kernel's row check could reject a
    # row check_rows accepts: entries down to -1e-12 count in check_rows' row
    # sum and not in the kernel's, and the two sum in other orders.
    return nu2 * 1e-12 + 1e-15


@given(_policy_cases())
@settings(max_examples=300, deadline=None)
def test_policy_table_rejects_what_the_dropped_kernel_checks_rejected(case):
    # build_kernel no longer checks row sums or empty rows; PolicyTable does.
    # Every policy the stored kernel's checks rejected fails PolicyTable,
    # except one with a row summing within _edge_band under the tolerance
    # edge, which PolicyTable and the kernel now both accept.
    spec, probs = case
    if kernel_row_check_reference(joint_table(spec), [probs]) is None:
        return
    try:
        policy = PolicyTable(1, ENV, probs)
    except ValueError:
        return
    deviation = np.abs(probs.sum(axis=1) - 1.0).max()
    assert ROW_SUM_TOL - _edge_band(spec.num_env_actions) <= deviation <= ROW_SUM_TOL
    build_kernel(spec, {1: policy})


def test_a_row_at_the_tolerance_edge_now_builds():
    # The band case, pinned: with its -0.6e-12 entry the row sums to
    # 1 + 0.9997e-9, so PolicyTable accepts it; without that entry it sums to
    # 1 + 1.0003e-9, which the stored kernel's check rejected.
    env = [[0, 1, 1], [0, 1, 1]]
    probs = np.array([[0.6, 0.4 + ROW_SUM_TOL + 0.3e-12, -0.6e-12]] * 2)
    spec, kernel = _kernel_for(ONE_EGO_CELL, env, {1: PolicyTable(1, ENV, probs)})
    assert (kernel_row_check_reference(joint_table(spec), [probs])
            == "kernel rows do not sum to 1")
    targets, row_probs = kernel.row(0, 0)
    assert targets.tolist() == [0, 1]
    assert abs(row_probs.sum() - 1.0) <= ROW_SUM_TOL + _edge_band(3)


def test_build_kernel_allocates_nothing_table_sized():
    # The kernel references the spec's and the policies' tables, so building
    # it on a 20,000-state game (two 480 KB policies) stays under 1 MiB traced.
    rng = np.random.default_rng(5)
    nx, nu1, nu2 = 20_000, 3, 3
    spec, *_ = random_game(rng, 100, 200, nu1, nu2)
    policies = {k: random_policy(rng, k, ENV, nx, nu2) for k in (1, 2)}
    tracemalloc.start()
    try:
        kernel = build_kernel(spec, policies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak
    assert kernel.ego_successors is spec.ego_successors
    assert kernel.env_successors is spec.env_successors
    assert all(a is policies[k].probs for a, k in zip(kernel.env_probs, (1, 2)))


def test_kernel_build_holds_little_beyond_its_csr(monkeypatch):
    # The CSR view's arrays are allocated once at their final size and
    # filled a block at a time, so building the view peaks at the finished
    # arrays plus one block's temporaries.  Building them from per-block
    # chunks and concatenating would hold the entries twice.
    monkeypatch.setattr(inference, "KERNEL_BLOCK_ENTRIES", 1 << 12)
    rng = np.random.default_rng(5)
    nx, nu1, nu2 = 20_000, 3, 3
    spec, *_ = random_game(rng, 100, 200, nu1, nu2)
    policies = {k: random_policy(rng, k, ENV, nx, nu2) for k in (1, 2)}
    kernel = build_kernel(spec, policies)
    tracemalloc.start()
    try:
        csr = kernel.indptr.nbytes + kernel.targets.nbytes + kernel.probs.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= csr + (1 << 20), (peak, csr)


def test_kernel_tables_are_read_only_and_shared(built_scenarios):
    rng = np.random.default_rng(3)
    spec, *_ = random_game(rng, n_e=2, n_h=2, nu1=2, nu2=2)
    policy = random_policy(rng, 1, ENV, 4, 2)
    build_kernel(spec, {1: policy})
    for arr in (spec.ego_successors, spec.env_successors, policy.probs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = arr[0, 0]
    for name in ("intersection", "overtaking", "merging"):
        scenario, hierarchy, kernel, _ = built_scenarios(name)
        assert kernel.ego_successors is scenario.spec.ego_successors
        assert kernel.env_successors is scenario.spec.env_successors
        assert not kernel.ego_successors.flags.writeable
        assert not kernel.env_successors.flags.writeable
        for probs, level in zip(kernel.env_probs, scenario.config.levels):
            assert probs is hierarchy.env(level).probs
            assert not probs.flags.writeable


def _reachable_arrays(obj, seen):
    """Every ndarray reachable from ``obj`` through attributes, containers and bases."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        children = [obj.base]
    elif isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return
    for child in children:
        yield from _reachable_arrays(child, seen)


@pytest.mark.parametrize("name", ["intersection", "overtaking", "merging"])
def test_no_kept_array_is_as_large_as_a_joint_table(built_scenarios, name):
    # The game is held as its two successor tables: nothing a scenario, its
    # spec or a fresh kernel keeps reaches |X| * |U1| * |U2| entries; the
    # largest are the env policies' |X| * |U2|.
    scenario, hierarchy, _, _ = built_scenarios(name)
    spec = scenario.spec
    kernel = cli.scenario_kernel(scenario, hierarchy)
    bound = spec.num_states * max(spec.num_ego_actions, spec.num_env_actions)
    arrays = list(_reachable_arrays((scenario, spec, kernel), set()))
    assert any(arr is spec.ego_successors for arr in arrays)
    assert any(arr is kernel.env_probs[0] for arr in arrays)
    assert max(arr.size for arr in arrays) <= bound


def test_start_up_and_episodes_leave_the_csr_view_unbuilt(cache_dir):
    # Only the benchmark harness and the oracle tests read the CSR view; the
    # start-up, the planner and the belief update never build it.
    config = default_config("intersection")
    scenario, hierarchy, _ = cli.build_artifacts(config, cache_dir)
    kernel = cli.scenario_kernel(scenario, hierarchy)
    cli.run_episode(scenario, hierarchy, kernel, config.levels[0], 0)
    cli.evaluate_batch(scenario, hierarchy, kernel, [0, 1])
    assert "_csr" not in vars(kernel)


def test_kernel_arrays_are_read_only():
    rng = np.random.default_rng(3)
    spec, *_ = random_game(rng, n_e=2, n_h=2, nu1=2, nu2=2)
    kernel = build_kernel(spec, {1: random_policy(rng, 1, ENV, 4, 2)})
    for arr in (kernel.indptr, kernel.targets, kernel.probs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_kernel_rejects_wrong_player_or_shape():
    rng = np.random.default_rng(1)
    spec, *_ = random_game(rng, 2, 2, 2, 2)
    from chplanner.game import EGO

    with pytest.raises(ValueError):
        build_kernel(spec, {1: random_policy(rng, 1, EGO, 4, 2)})
    with pytest.raises(ValueError):
        build_kernel(spec, {})


def test_predict_point_mass_deterministic_chain():
    ego = [[1], [2], [2]]  # 1 ego action, 1 env action
    onehot = np.ones((3, 1))
    _, kernel = _kernel_for(ego, ONE_ENV_CELL, {1: PolicyTable(1, ENV, onehot)})
    b = init_belief(0, [1.0], 3)
    nxt = predict(kernel, b, np.array([1.0]))
    assert np.allclose(nxt, [0.0, 1.0, 0.0])


def test_predict_uniform_gamma_splits_on_ego_actions():
    ego = [[1, 2], [1, 1], [2, 2]]  # 2 ego actions
    _, kernel = _kernel_for(ego, ONE_ENV_CELL, {1: PolicyTable(1, ENV, np.ones((3, 1)))})
    b = init_belief(0, [1.0], 3)
    nxt = predict(kernel, b, np.array([0.5, 0.5]))
    assert np.allclose(nxt, [0.0, 0.5, 0.5])


def test_predict_matches_dense_kronecker_oracle():
    rng = np.random.default_rng(2)
    spec, *_ = random_game(rng, n_e=2, n_h=2, nu1=2, nu2=2)  # 8 augmented states
    policies = {1: random_policy(rng, 1, ENV, 4, 2), 2: random_policy(rng, 2, ENV, 4, 2)}
    kernel = build_kernel(spec, policies)
    for _ in range(5):
        dist = rng.dirichlet(np.ones(8))
        gamma = rng.dirichlet(np.ones(2))
        fast = predict(kernel, dist, gamma)
        dense = dense_predict_oracle(kernel, dist, gamma)
        assert np.abs(fast - dense).max() < 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_predict_preserves_mass_and_is_linear(seed):
    rng = np.random.default_rng(seed)
    spec, *_ = random_game(rng, n_e=2, n_h=2, nu1=2, nu2=3)
    kernel = build_kernel(spec, {1: random_policy(rng, 1, ENV, 4, 3)})
    gamma = rng.dirichlet(np.ones(2))
    d1 = rng.dirichlet(np.ones(4))
    d2 = rng.dirichlet(np.ones(4))
    alpha = rng.random()
    mix = alpha * d1 + (1 - alpha) * d2
    assert predict(kernel, d1, gamma).sum() == pytest.approx(1.0, abs=1e-9)
    combined = predict(kernel, mix, gamma)
    split = alpha * predict(kernel, d1, gamma) + (1 - alpha) * predict(kernel, d2, gamma)
    assert np.abs(combined - split).max() < 1e-12


def _two_level_observation_kernel(p1, p2):
    """2 states; env action 0 moves 0->1, action 1 stays; level k plays
    action 0 with probability pk at state 0."""
    env = [[1, 0], [1, 1]]
    pol1 = PolicyTable(1, ENV, np.array([[p1, 1 - p1], [0.5, 0.5]]))
    pol2 = PolicyTable(2, ENV, np.array([[p2, 1 - p2], [0.5, 0.5]]))
    return _kernel_for(ONE_EGO_CELL, env, {1: pol1, 2: pol2})[1]


def test_bayes_update_direct_arithmetic():
    kernel = _two_level_observation_kernel(0.8, 0.2)
    prior = init_belief(0, [0.5, 0.5], 2)
    post = bayes_update(kernel, prior, 0, 1)
    assert np.allclose(post.weights, [0.8, 0.2], atol=1e-12)
    # Posterior lives on the observed physical state only.
    assert post.state == 1


def test_bayes_update_uninformative_likelihood_keeps_prior():
    kernel = _two_level_observation_kernel(0.6, 0.6)
    prior = init_belief(0, [0.3, 0.7], 2)
    post = bayes_update(kernel, prior, 0, 1)
    assert np.allclose(post.weights, [0.3, 0.7], atol=1e-12)


def test_bayes_update_excludes_zero_likelihood_level():
    kernel = _two_level_observation_kernel(0.8, 0.0)
    prior = init_belief(0, [0.5, 0.5], 2)
    post = bayes_update(kernel, prior, 0, 1)
    assert np.allclose(post.weights, [1.0, 0.0], atol=1e-12)


def test_bayes_update_raises_on_impossible_observation():
    kernel = _two_level_observation_kernel(0.0, 0.0)
    prior = init_belief(0, [0.5, 0.5], 2)
    with pytest.raises(InconsistentObservationError):
        bayes_update(kernel, prior, 0, 1)


def test_bayes_update_floor_recovers_from_impossible_observation():
    kernel = _two_level_observation_kernel(0.0, 0.0)
    prior = init_belief(0, [0.5, 0.5], 2)
    post = bayes_update(kernel, prior, 0, 1, floor=1e-9)
    assert np.allclose(post.weights, [0.5, 0.5], atol=1e-12)


def test_bayes_update_floor_resurrects_excluded_level():
    kernel = _two_level_observation_kernel(0.8, 0.5)
    prior = Belief(state=0, weights=[1.0, 0.0])  # all mass on level 1
    post = bayes_update(kernel, prior, 0, 1, floor=1e-9)
    marg = post.weights
    assert marg[1] > 0.0
    assert marg[0] == pytest.approx(1.0, abs=1e-8)


def test_init_belief_examples():
    b = init_belief(3, [0.5, 0.5], 5)
    assert b.state == 3 and list(b.weights) == [0.5, 0.5]
    assert init_belief(0, [1.0], 4).weights[0] == 1.0
    b = init_belief(1, [0.3, 0.7], 2)
    assert np.allclose(b.weights, [0.3, 0.7])
    with pytest.raises(ValueError):
        init_belief(0, [0.6, 0.6], 3)
    with pytest.raises(ValueError):
        init_belief(9, [1.0], 3)


def test_belief_validation():
    kernel = _two_level_observation_kernel(0.8, 0.2)  # 2 states, 2 levels
    with pytest.raises(ValueError):
        Belief(state=0, weights=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Belief(state=0, weights=np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        Belief(state=0, weights=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        Belief(state=0, weights=np.array([]))
    with pytest.raises(ValueError):
        Belief(state=0.5, weights=np.array([1.0]))
    belief = Belief(state=1, weights=np.array([0.25, 0.75]))
    assert belief.num_levels == 2
    assert list(belief.weights) == [0.25, 0.75]
    support, mass = belief.support(kernel)
    assert list(support) == [1, 3] and list(mass) == [0.25, 0.75]
    for bad in (Belief(state=2, weights=[0.5, 0.5]), Belief(state=-1, weights=[0.5, 0.5]),
                Belief(state=0, weights=[1.0]), Belief(state=0, weights=[0.2, 0.3, 0.5])):
        with pytest.raises(ValueError):
            bayes_update(kernel, bad, 0, 1)
        with pytest.raises(ValueError):
            bad.support(kernel)


def test_bayes_update_rejects_bad_floor():
    kernel = _two_level_observation_kernel(0.8, 0.2)
    prior = init_belief(0, [0.5, 0.5], 2)
    for floor in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            bayes_update(kernel, prior, 0, 1, floor=floor)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_bayes_update_matches_dense_recursion(seed):
    # The point-mass update against the dense recursion over the whole
    # augmented space: predict the prior's dense vector under the executed
    # action, keep {y} x K, (floor,) normalise.
    rng = np.random.default_rng(seed)
    n_e, n_h = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    nx = n_e * n_h
    nu1, nu2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    num_levels = int(rng.integers(1, 4))
    spec, *_ = random_game(rng, n_e, n_h, nu1, nu2)
    policies = {k: random_policy(rng, k, ENV, nx, nu2) for k in range(1, num_levels + 1)}
    for k in policies:  # sparse rows make some observations impossible
        probs = policies[k].probs * (rng.random((nx, nu2)) < 0.5)
        probs[probs.sum(axis=1) == 0.0, 0] = 1.0
        policies[k] = PolicyTable(k, ENV, probs / probs.sum(axis=1, keepdims=True))
    kernel = build_kernel(spec, policies)
    weights = rng.dirichlet(np.ones(num_levels))
    if num_levels > 1 and rng.random() < 0.5:
        weights[rng.integers(num_levels)] = 0.0  # a level the prior rules out
        weights /= weights.sum()
    prior = Belief(state=int(rng.integers(nx)), weights=weights)
    u1 = int(rng.integers(nu1))
    for y in range(nx):
        for floor in (0.0, 1e-3):
            expected = dense_posterior_oracle(kernel, prior, u1, y, floor)
            if expected is None:
                with pytest.raises(InconsistentObservationError):
                    bayes_update(kernel, prior, u1, y, floor=floor)
                continue
            post = bayes_update(kernel, prior, u1, y, floor=floor)
            assert post.state == y
            assert np.abs(post.weights - expected).max() < 1e-12
