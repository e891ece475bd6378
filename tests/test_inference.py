import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chplanner import inference
from chplanner.game import ENV, PolicyTable
from chplanner.inference import (
    Belief,
    InconsistentObservationError,
    bayes_update,
    build_kernel,
    init_belief,
)

from conftest import make_spec
from oracles import (
    dense_posterior_oracle,
    dense_predict_oracle,
    kernel_csr_oracle,
    predict,
    random_game,
    random_policy,
)


def _kernel_for(table, policies, horizon=3):
    nx, nu1, nu2 = table.shape
    spec = make_spec(table, np.zeros(nx), np.zeros(nx), np.ones(nx, bool), horizon=horizon)
    return spec, build_kernel(spec, policies)


def test_kernel_one_hot_policy_gives_unit_rows():
    table = np.array([[[1, 0]], [[0, 1]]])  # 2 states, 1 ego action, 2 env actions
    onehot = np.zeros((2, 2))
    onehot[:, 0] = 1.0
    _, kernel = _kernel_for(table, {1: PolicyTable(1, ENV, onehot)})
    targets, probs = kernel.row(0, 0)
    assert list(targets) == [1] and list(probs) == [1.0]
    targets, probs = kernel.row(1, 0)
    assert list(targets) == [0] and list(probs) == [1.0]


def test_kernel_uniform_policy_splits_mass():
    table = np.array([[[1, 2]], [[1, 1]], [[2, 2]]])
    uniform = PolicyTable(1, ENV, np.full((3, 2), 0.5))
    _, kernel = _kernel_for(table, {1: uniform})
    targets, probs = kernel.row(0, 0)
    assert list(targets) == [1, 2]
    assert np.allclose(probs, 0.5)


def test_kernel_aggregates_same_successor():
    table = np.array([[[1, 1]], [[1, 1]]])  # both env actions reach state 1
    policy = PolicyTable(1, ENV, np.array([[0.3, 0.7], [0.3, 0.7]]))
    _, kernel = _kernel_for(table, {1: policy})
    targets, probs = kernel.row(0, 0)
    assert list(targets) == [1]
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_kernel_rows_stochastic_and_level_conserving():
    rng = np.random.default_rng(0)
    spec, table, *_ = random_game(rng, nx=7, nu1=3, nu2=3)
    policies = {
        1: random_policy(rng, 1, ENV, 7, 3),
        2: random_policy(rng, 2, ENV, 7, 3),
    }
    kernel = build_kernel(spec, policies)
    for aug in range(kernel.num_augmented):
        for u1 in range(kernel.num_ego_actions):
            targets, probs = kernel.row(aug, u1)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert (targets // 7 == aug // 7).all()  # level never changes


@pytest.mark.parametrize("block_entries", [1, 30, 1 << 17])
def test_kernel_matches_row_by_row_oracle_across_blocks(monkeypatch, block_entries):
    # 23 states of 2 x 4 entries: with 30 entries a block holds 3 states, so
    # each level spans 8 blocks and the last block is short; 1 entry is less
    # than one state's 8, which still makes one-state blocks.
    monkeypatch.setattr(inference, "KERNEL_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(12)
    nx, nu1, nu2 = 23, 2, 4
    spec, table, *_ = random_game(rng, nx, nu1, nu2)
    table[::2, :, 3] = table[::2, :, 0]  # duplicate successors to merge
    table[::3, 0, :] = table[::3, 0, :1]  # rows whose four entries share one target
    spec = make_spec(table, np.zeros(nx), np.zeros(nx), np.ones(nx, bool))
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

    kernel = build_kernel(spec, policies)
    for got, want in zip((kernel.indptr, kernel.targets, kernel.probs),
                         kernel_csr_oracle(spec, policies)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_kernel_build_holds_little_beyond_its_csr(monkeypatch):
    # The CSR arrays are allocated once at their final size and filled in
    # place, so the traced peak is the finished kernel plus one block's
    # temporaries.  Building them from per-block chunks and concatenating
    # would hold the entries twice.
    monkeypatch.setattr(inference, "KERNEL_BLOCK_ENTRIES", 1 << 12)
    rng = np.random.default_rng(5)
    nx, nu1, nu2 = 20_000, 3, 3
    spec, *_ = random_game(rng, nx, nu1, nu2)
    policies = {k: random_policy(rng, k, ENV, nx, nu2) for k in (1, 2)}
    tracemalloc.start()
    try:
        kernel = build_kernel(spec, policies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = kernel.indptr.nbytes + kernel.targets.nbytes + kernel.probs.nbytes
    assert peak <= csr + (1 << 20), (peak, csr)


def test_kernel_arrays_are_read_only():
    rng = np.random.default_rng(3)
    spec, *_ = random_game(rng, nx=4, nu1=2, nu2=2)
    kernel = build_kernel(spec, {1: random_policy(rng, 1, ENV, 4, 2)})
    for arr in (kernel.indptr, kernel.targets, kernel.probs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_kernel_rejects_wrong_player_or_shape():
    rng = np.random.default_rng(1)
    spec, *_ = random_game(rng, 4, 2, 2)
    from chplanner.game import EGO

    with pytest.raises(ValueError):
        build_kernel(spec, {1: random_policy(rng, 1, EGO, 4, 2)})
    with pytest.raises(ValueError):
        build_kernel(spec, {})


def test_predict_point_mass_deterministic_chain():
    table = np.array([[[1]], [[2]], [[2]]])  # 1 ego action, 1 env action
    onehot = np.ones((3, 1))
    _, kernel = _kernel_for(table, {1: PolicyTable(1, ENV, onehot)})
    b = init_belief(0, [1.0], 3)
    nxt = predict(kernel, b, np.array([1.0]))
    assert np.allclose(nxt, [0.0, 1.0, 0.0])


def test_predict_uniform_gamma_splits_on_ego_actions():
    table = np.array([[[1], [2]], [[1], [1]], [[2], [2]]])  # 2 ego actions
    _, kernel = _kernel_for(table, {1: PolicyTable(1, ENV, np.ones((3, 1)))})
    b = init_belief(0, [1.0], 3)
    nxt = predict(kernel, b, np.array([0.5, 0.5]))
    assert np.allclose(nxt, [0.0, 0.5, 0.5])


def test_predict_matches_dense_kronecker_oracle():
    rng = np.random.default_rng(2)
    spec, *_ = random_game(rng, nx=3, nu1=2, nu2=2)  # 6 augmented states
    policies = {1: random_policy(rng, 1, ENV, 3, 2), 2: random_policy(rng, 2, ENV, 3, 2)}
    kernel = build_kernel(spec, policies)
    for _ in range(5):
        dist = rng.dirichlet(np.ones(6))
        gamma = rng.dirichlet(np.ones(2))
        fast = predict(kernel, dist, gamma)
        dense = dense_predict_oracle(kernel, dist, gamma)
        assert np.abs(fast - dense).max() < 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_predict_preserves_mass_and_is_linear(seed):
    rng = np.random.default_rng(seed)
    spec, *_ = random_game(rng, nx=4, nu1=2, nu2=3)
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
    table = np.array([[[1, 0]], [[1, 1]]])
    pol1 = PolicyTable(1, ENV, np.array([[p1, 1 - p1], [0.5, 0.5]]))
    pol2 = PolicyTable(2, ENV, np.array([[p2, 1 - p2], [0.5, 0.5]]))
    return _kernel_for(table, {1: pol1, 2: pol2})[1]


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
    nx = int(rng.integers(2, 6))
    nu1, nu2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    num_levels = int(rng.integers(1, 4))
    spec, *_ = random_game(rng, nx, nu1, nu2)
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
