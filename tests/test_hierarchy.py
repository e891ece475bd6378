import hashlib
import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chplanner import hierarchy
from chplanner.game import EGO, ENV, PolicyTable
from chplanner.hierarchy import (
    CACHE_FORMAT_VERSION,
    QTable,
    _hash_array,
    build_hierarchy,
    compute_q,
    hierarchy_content_hash,
    load_hierarchy,
    save_hierarchy,
    softmax_policy,
)

from conftest import make_spec
from oracles import (
    hash_array_reference,
    open_loop_q_oracle,
    random_game,
    random_policy,
    row_sum_q_reference,
    softmax_row_reference,
)

finite_rows = st.lists(
    st.lists(st.floats(-30, 30), min_size=2, max_size=4),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def test_softmax_uniform_q_gives_uniform_policy():
    q = QTable(1, ENV, np.zeros((3, 2)))
    pol = softmax_policy(q)
    assert np.allclose(pol.probs, 0.5)


def test_softmax_log_odds():
    q = QTable(1, ENV, np.array([[math.log(3.0), 0.0]]))
    pol = softmax_policy(q)
    assert np.allclose(pol.probs, [[0.75, 0.25]], atol=1e-12)


@given(finite_rows, st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_softmax_shift_invariance(rows, shift):
    values = np.asarray(rows, dtype=float)
    base = softmax_policy(QTable(1, ENV, values)).probs
    shifted = softmax_policy(QTable(1, ENV, values + shift)).probs
    assert np.abs(base - shifted).max() < 1e-12
    assert np.abs(base.sum(axis=1) - 1.0).max() < 1e-9


def test_softmax_argmax_matches_q_argmax():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(20, 4)) * 5
    pol = softmax_policy(QTable(1, EGO, values))
    assert (pol.probs.argmax(axis=1) == values.argmax(axis=1)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 130])
def test_softmax_is_bit_identical_to_row_softmax(n):
    # The normaliser adds the action rows left to right, as the reference
    # adds each row's entries with one Python-level + per column.
    rng = np.random.default_rng(200 + n)
    values = rng.normal(size=(40, n)) * 4.0
    values[::7] = 1.5  # rows of equal entries
    values[3, : (n + 1) // 2] = values[3].max()  # a tied maximum
    for temperature in (1.0, 0.3):
        got = softmax_policy(QTable(1, ENV, values), temperature).probs
        assert got.flags.c_contiguous
        assert got.tobytes() == softmax_row_reference(values, temperature).tobytes()


def test_softmax_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        softmax_policy(QTable(1, ENV, np.zeros((1, 2))), temperature=0.0)


def test_compute_q_single_step_is_expected_successor_reward():
    rng = np.random.default_rng(1)
    spec, table, r1, _, _ = random_game(rng, n_e=2, n_h=3, nu1=2, nu2=3, horizon=1)
    opp = random_policy(rng, 0, ENV, 6, 3)
    q = compute_q(spec, EGO, opp)
    for x in range(6):
        for u in range(2):
            expected = sum(opp.probs[x, o] * r1[table[x, u, o]] for o in range(3))
            assert q.values[x, u] == pytest.approx(expected, abs=1e-12)


def test_compute_q_deterministic_opponent_matches_tree_search():
    rng = np.random.default_rng(2)
    spec, table, r1, _, _ = random_game(rng, n_e=2, n_h=3, nu1=3, nu2=2, horizon=2)
    onehot = np.zeros((6, 2))
    onehot[np.arange(6), rng.integers(0, 2, size=6)] = 1.0
    opp = PolicyTable(0, ENV, onehot)
    q = compute_q(spec, EGO, opp)
    oracle = open_loop_q_oracle(spec, EGO, opp)
    assert np.abs(q.values - oracle).max() < 1e-9


def test_compute_q_identity_transition_geometric_sum():
    reward = 2.5
    lam = 0.7
    horizon = 4
    spec = make_spec(
        np.zeros((1, 2), int), np.zeros((1, 2), int), [reward], [0.0], [True],
        discount=lam, horizon=horizon,
    )
    opp = PolicyTable(0, ENV, np.full((1, 2), 0.5))
    q = compute_q(spec, EGO, opp)
    expected = reward * (1 - lam**horizon) / (1 - lam)
    assert np.allclose(q.values, expected, atol=1e-12)


@pytest.mark.parametrize("player", [EGO, ENV])
def test_compute_q_matches_brute_force_oracle(player):
    rng = np.random.default_rng(11)
    for _ in range(8):
        n_e, n_h = (int(n) for n in rng.integers(1, 4, size=2))
        nx = n_e * n_h
        nu1 = int(rng.integers(2, 4))
        nu2 = int(rng.integers(2, 4))
        horizon = int(rng.integers(1, 4))
        spec, *_ = random_game(rng, n_e, n_h, nu1, nu2, horizon=horizon)
        opp_player = ENV if player == EGO else EGO
        opp = random_policy(rng, 0, opp_player, nx, spec.num_actions(opp_player))
        q = compute_q(spec, player, opp)
        oracle = open_loop_q_oracle(spec, player, opp)
        assert np.abs(q.values - oracle).max() < 1e-9


@pytest.mark.parametrize("player", [EGO, ENV])
@pytest.mark.parametrize("n_opp", [1, 2, 3, 7, 8, 9, 16, 17, 130])
def test_compute_q_is_bit_identical_to_row_sum_backups(player, n_opp):
    # The backups add the opponent terms left to right, as the reference
    # adds each row's terms with one Python-level + per column; the counts
    # around 8 and 128 are where numpy's own row sum changes its order.
    rng = np.random.default_rng(100 + n_opp)
    for horizon in (1, 2, 3):
        n_e, n_h = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        nx = n_e * n_h
        n_own = int(rng.integers(2, 4))
        nu1, nu2 = (n_own, n_opp) if player == EGO else (n_opp, n_own)
        spec, *_ = random_game(rng, n_e, n_h, nu1, nu2, horizon=horizon)
        opp_player = ENV if player == EGO else EGO
        opp = softmax_policy(QTable(0, opp_player, rng.normal(size=(nx, n_opp)) * 3.0))
        got = compute_q(spec, player, opp).values
        assert got.tobytes() == row_sum_q_reference(spec, player, opp).tobytes()


def _split_game(rng, player, n_opp, horizon, grid=(3, 3)):
    # Rewards of both signs, mostly negative, and an opponent whose rows are
    # partly one-hot, so many terms are exact zeros.
    n_own = 3 if horizon < 4 else 2
    nu1, nu2 = (n_own, n_opp) if player == EGO else (n_opp, n_own)
    (n_e, n_h), nx = grid, grid[0] * grid[1]
    spec = make_spec(
        rng.integers(0, n_e, size=(n_e, nu1)), rng.integers(0, n_h, size=(n_h, nu2)),
        rng.normal(size=nx) - 1.0, -rng.exponential(size=nx), np.ones(nx, bool),
        horizon=horizon,
    )
    opp_player = ENV if player == EGO else EGO
    probs = softmax_policy(QTable(0, opp_player, rng.normal(size=(nx, n_opp)) * 3.0)).probs.copy()
    probs[::2] = 0.0
    probs[::2, rng.integers(0, n_opp)] = 1.0
    return spec, PolicyTable(0, opp_player, probs)


@pytest.mark.parametrize("workers", [1, 2, 3, 100])
@pytest.mark.parametrize("player", [EGO, ENV])
@pytest.mark.parametrize("n_opp", [1, 3, 8, 9, 17, 130])
def test_compute_q_split_between_workers_is_bit_identical(monkeypatch, workers, player, n_opp):
    # Any split of the depth-(horizon - 1) tails gives the same bytes, also
    # with more workers than tails (horizon 1 has a single tail), where the
    # spare workers see no suffix and keep -inf maxima.
    monkeypatch.setattr(hierarchy, "_worker_count", lambda n_tails: workers)
    rng = np.random.default_rng(300 + n_opp)
    for horizon in (1, 2, 3, 4):
        spec, opp = _split_game(rng, player, n_opp, horizon)
        before = threading.active_count()
        got = compute_q(spec, player, opp).values
        assert threading.active_count() == before
        assert got.tobytes() == row_sum_q_reference(spec, player, opp).tobytes()


def test_compute_q_split_under_fast_thread_switching(monkeypatch):
    # More workers than cores, switching threads every microsecond: the
    # workers share only read-only tables, so no interleaving changes a byte.
    monkeypatch.setattr(hierarchy, "_worker_count", lambda n_tails: min(4, n_tails))
    rng = np.random.default_rng(23)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for player, n_opp in ((EGO, 3), (ENV, 9)):
            spec, opp = _split_game(rng, player, n_opp, 4, grid=(15, 20))
            want = row_sum_q_reference(spec, player, opp).tobytes()
            for _ in range(3):
                assert compute_q(spec, player, opp).values.tobytes() == want
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_is_capped_by_cores_workers_and_tails():
    cores = len(os.sched_getaffinity(0))
    assert hierarchy._worker_count(1) == 1
    assert hierarchy._worker_count(1000) == min(cores, hierarchy.MAX_Q_WORKERS)


def test_q_worker_allocates_nothing_state_sized():
    # Every buffer comes from the caller (glibc would keep a worker thread's
    # allocations resident in its own arena after the thread ends).  Traced
    # inline on a 9-action opponent; one state vector is 160 KB.
    grid, n_opp, horizon = (100, 200), 9, 3
    nx = grid[0] * grid[1]
    rng = np.random.default_rng(21)
    spec, opp = _split_game(rng, ENV, n_opp, horizon, grid=grid)
    tables = hierarchy._Tables(
        np.ascontiguousarray(spec.env_successors.T, dtype=np.intp),
        np.ascontiguousarray(spec.ego_successors.T, dtype=np.intp), 1, spec.rewards(ENV), np.ascontiguousarray(opp.probs.T), spec.discount,
    )
    scratches = [hierarchy._scratch(3, n_opp, grid, horizon) for _ in range(2)]
    tracemalloc.start()
    try:
        for k, scratch in enumerate(scratches):
            hierarchy._q_worker(tables, horizon, (k, 2), scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nx * 8, peak
    np.maximum(scratches[0].values, scratches[1].values, out=scratches[0].values)
    want = row_sum_q_reference(spec, ENV, opp)
    assert scratches[0].values.T.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("player, n_opp", [(ENV, 9), (EGO, 3)])
def test_compute_q_gathers_no_reward_table(monkeypatch, player, n_opp):
    # The reward is folded into each tail and the successors are gathered
    # from the two vehicles' tables, so a build holds the workers' scratch
    # sets, the opponent's columns, the Q table (twice, with its finiteness
    # check) and two more state vectors of slack, but no (|U_own|, |U_opp|,
    # |X|) table of joint successors or of gathered rewards.
    grid, n_own, horizon, workers = (100, 200), 3, 3, 2
    nx = grid[0] * grid[1]
    monkeypatch.setattr(hierarchy, "_worker_count", lambda n_tails: workers)
    spec, opp = _split_game(np.random.default_rng(24), player, n_opp, horizon, grid=grid)
    scratch_bytes = sum(a.nbytes for a in hierarchy._scratch(n_own, n_opp, grid, horizon))
    bound = workers * scratch_bytes + n_opp * nx * 8 + 2 * nx * n_own * 8 + 2 * nx * 8
    tracemalloc.start()
    try:
        compute_q(spec, player, opp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_compute_q_reraises_a_worker_error_and_leaves_no_thread(monkeypatch, where):
    error = RuntimeError("backup failed")
    backups = hierarchy._backups

    def failing(*args):
        on_main = threading.current_thread() is threading.main_thread()
        if on_main == (where == "caller"):
            raise error
        return backups(*args)

    spec, opp = _split_game(np.random.default_rng(22), EGO, 3, 3)
    monkeypatch.setattr(hierarchy, "_backups", failing)
    monkeypatch.setattr(hierarchy, "_worker_count", lambda n_tails: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        compute_q(spec, EGO, opp)
    assert caught.value is error
    assert threading.active_count() == before


# sha256 of the packaged scenarios' env_1 and env_2 tables (float64 bytes):
# a change to the Q build's arithmetic or to its split between workers shows
# here before it reaches an episode.
ENV_TABLE_SHA256 = {
    "intersection": (
        "a637d5897fc3e0d535999a4a450bcb19206565cae0995bf7dcb8f56726df4589",
        "769e429965ba0b78b735869c0c72f4250c455a6d6831c3cf6c48a2513298ab3f",
    ),
    "overtaking": (
        "f225cc48b53a10d2491c3b0ae457d1bf91ae90e8a46e5408bef4f4fdd1b7a4b1",
        "fa2e32369ab664f3c0c5af4de06733f1a26ca738ec99f4d3f71e9baeaa6d3ae3",
    ),
    "merging": (
        "b74a7fbfdc2d7d4793e7a33f14b063d6c03eddcd77d2511b387a7535ac8b784d",
        "0c96fc485b63e2a46d6d367c75417259913e7980e1848730ee9f4fda0e45250d",
    ),
}


@pytest.mark.parametrize("name", sorted(ENV_TABLE_SHA256))
def test_packaged_env_tables_are_pinned(built_scenarios, name):
    _, built, _, _ = built_scenarios(name)
    got = tuple(hashlib.sha256(built.env(k).probs.tobytes()).hexdigest() for k in (1, 2))
    assert got == ENV_TABLE_SHA256[name]


# Cache format 5: the key is the game's factors (traffic.hierarchy_key).
CONTENT_HASH = {
    "intersection": "3f286bee0ea356b6c56a0f1f772e6056c9c71be90464ab1b43a677b3e0956e61",
    "overtaking": "21565d0f4df2b288f5e06cf3afcf880b8507fe67901d37b829b75744a80e172e",
    "merging": "d70bed4892079e3bb1d380151105f77cd20d9612131b9816a1dd96af4b91b280",
}


@pytest.mark.parametrize("name", sorted(CONTENT_HASH))
def test_packaged_content_hashes_are_pinned(built_scenarios, name):
    assert CACHE_FORMAT_VERSION == 5
    assert built_scenarios(name)[3] == CONTENT_HASH[name]


def test_policy_and_q_tables_are_read_only():
    probs = np.full((2, 2), 0.5)
    policy = PolicyTable(level=0, player=ENV, probs=probs)
    assert policy.probs is probs  # taken over, not copied
    with pytest.raises(ValueError, match="read-only"):
        policy.probs[0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        probs[0, 0] = 1.0  # the caller's reference is frozen with it
    q = QTable(1, EGO, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="read-only"):
        q.values[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        softmax_policy(q).probs[1] = [1.0, 0.0]


def test_compute_q_rejects_same_player_policy():
    spec = make_spec(np.zeros((2, 2), int), np.zeros((1, 2), int), [0, 0], [0, 0],
                     [True, True])
    own = PolicyTable(0, EGO, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        compute_q(spec, EGO, own)


def _anchors(rng, spec):
    ego = random_policy(rng, 0, EGO, spec.num_states, spec.num_ego_actions)
    env = random_policy(rng, 0, ENV, spec.num_states, spec.num_env_actions)
    return ego, env


def test_build_hierarchy_k0_returns_anchors_only():
    rng = np.random.default_rng(3)
    spec, *_ = random_game(rng, 2, 2, 2, 2)
    ego0, env0 = _anchors(rng, spec)
    h = build_hierarchy(spec, 0, ego0, env0)
    assert h.k_max == 0
    assert h.env_policies == (env0,)


def test_build_hierarchy_rejects_negative_k():
    rng = np.random.default_rng(4)
    spec, *_ = random_game(rng, 1, 3, 2, 2)
    ego0, env0 = _anchors(rng, spec)
    with pytest.raises(ValueError):
        build_hierarchy(spec, -1, ego0, env0)


def test_build_hierarchy_one_state_hand_computed():
    # Single state, identity transition: env level 1 is the softmax of the
    # discounted-sum of its own successor reward, constant across actions.
    lam = 0.8
    spec = make_spec(np.zeros((1, 2), int), np.zeros((1, 2), int), [1.0], [2.0], [True],
                     discount=lam, horizon=1)
    ego0 = PolicyTable(0, EGO, np.array([[0.3, 0.7]]))
    env0 = PolicyTable(0, ENV, np.array([[1.0, 0.0]]))
    h = build_hierarchy(spec, 1, ego0, env0)
    # Both env actions lead to the same successor, so level 1 is uniform.
    assert np.allclose(h.env(1).probs, 0.5)
    # So is the ego rung the next env level would respond to.
    assert np.allclose(softmax_policy(compute_q(spec, EGO, env0)).probs, 0.5)


def test_build_hierarchy_env_ladder_dependencies():
    rng = np.random.default_rng(5)
    spec, *_ = random_game(rng, 2, 3, 2, 3)
    ego0, env0 = _anchors(rng, spec)
    h = build_hierarchy(spec, 2, ego0, env0)
    ego1 = softmax_policy(compute_q(spec, EGO, env0))
    assert np.array_equal(h.env(1).probs, softmax_policy(compute_q(spec, ENV, ego0)).probs)
    assert np.array_equal(h.env(2).probs, softmax_policy(compute_q(spec, ENV, ego1)).probs)
    assert (h.env(2).level, h.env(2).player) == (2, ENV)

    # env[2] responds to ego[1], which depends only on env[0]: changing ego0
    # moves env[1] and leaves env[2] unchanged.
    other_ego0 = random_policy(rng, 0, EGO, 6, 2)
    h2 = build_hierarchy(spec, 2, other_ego0, env0)
    assert not np.array_equal(h.env(1).probs, h2.env(1).probs)
    assert np.array_equal(h.env(2).probs, h2.env(2).probs)


def test_build_hierarchy_computes_only_the_needed_rungs(monkeypatch):
    calls = []

    def spy(spec, player, opponent_policy):
        q = compute_q(spec, player, opponent_policy)
        calls.append((player, q.level))
        return q

    monkeypatch.setattr("chplanner.hierarchy.compute_q", spy)
    rng = np.random.default_rng(7)
    spec, *_ = random_game(rng, 2, 2, 2, 3)
    ego0, env0 = _anchors(rng, spec)
    build_hierarchy(spec, 2, ego0, env0)
    assert calls == [(ENV, 1), (EGO, 1), (ENV, 2)]


def test_build_hierarchy_is_bit_for_bit_deterministic():
    rng = np.random.default_rng(6)
    spec, *_ = random_game(rng, 2, 3, 3, 2)
    ego0, env0 = _anchors(rng, spec)
    h1 = build_hierarchy(spec, 2, ego0, env0)
    h2 = build_hierarchy(spec, 2, ego0, env0)
    assert len(h1.env_policies) == len(h2.env_policies) == 3
    for a, b in zip(h1.env_policies, h2.env_policies):
        assert np.array_equal(a.probs, b.probs)


def _saved_hierarchy(tmp_path, seed):
    rng = np.random.default_rng(seed)
    spec, *_ = random_game(rng, 2, 3, 2, 2)
    ego0, env0 = _anchors(rng, spec)
    h = build_hierarchy(spec, 2, ego0, env0)
    content = hierarchy_content_hash(
        [2, 3, 2], [0.9], [(spec.ego_successors, "<i4"), (spec.env_successors, "<i4")]
    )
    path = tmp_path / "cache.npz"
    save_hierarchy(path, h, content)
    return h, content, path


def test_hierarchy_cache_roundtrip(tmp_path):
    h, content, path = _saved_hierarchy(tmp_path, 8)
    loaded, stored = load_hierarchy(path)
    assert stored == content
    assert loaded.k_max == 2
    assert len(loaded.env_policies) == 3
    for a, b in zip(loaded.env_policies, h.env_policies):
        assert np.array_equal(a.probs, b.probs)
        assert a.player == b.player and a.level == b.level


def test_hierarchy_cache_holds_only_env_tables(tmp_path):
    _, content, path = _saved_hierarchy(tmp_path, 10)
    with np.load(path) as data:
        assert sorted(data.files) == ["env_0", "env_1", "env_2", "meta_json"]
        meta = json.loads(bytes(data["meta_json"].tobytes()).decode())
    assert meta == {"format_version": CACHE_FORMAT_VERSION, "k_max": 2, "content_hash": content}


def test_content_hash_tracks_inputs():
    rng = np.random.default_rng(9)
    table = rng.integers(0, 4, size=(4, 2)).astype(np.int32)
    floats = rng.normal(size=4)
    args = ([4, 2, 3], [0.9, 1.0], [(table, "<i4"), (floats, "<f8")])
    base = hierarchy_content_hash(*args)
    assert len(base) == 64
    assert base == hierarchy_content_hash(*args)
    assert base == hierarchy_content_hash(
        (4, 2, 3), np.array([0.9, 1.0]), [(table.astype(np.int64), "<i4"), (floats, "<f8")]
    )
    changed = [
        ([4, 2, 2], [0.9, 1.0], [(table, "<i4"), (floats, "<f8")]),
        ([4, 2, 3], [0.9, 0.5], [(table, "<i4"), (floats, "<f8")]),
        ([4, 2, 3], [0.9, 1.0], [(table, "<i8"), (floats, "<f8")]),  # the dtype counts
        ([4, 2, 3], [0.9, 1.0], [(table.reshape(2, 4), "<i4"), (floats, "<f8")]),  # the shape
        ([4, 2, 3], [0.9, 1.0], [(floats, "<f8"), (table, "<i4")]),  # the order
        ([4, 2, 3], [0.9, 1.0], [(table, "<i4")]),
        ([4, 2, 3], [0.9, 1.0], [(table, "<i4"), (floats + 1e-12, "<f8")]),
    ]
    for ints, reals, arrays in changed:
        assert hierarchy_content_hash(ints, reals, arrays) != base


def test_content_hash_hashes_in_place_as_copied_bytes():
    # Hashing a buffer in place gives the bytes of a little-endian C copy,
    # whatever the array's layout or byte order, so the hash stays platform
    # independent.
    rng = np.random.default_rng(12)
    table = rng.integers(0, 50, size=(5, 3, 4))
    floats = rng.normal(size=(6, 3))
    arrays = [
        (table, "<i8"),
        (table.transpose(2, 0, 1), "<i8"),
        (table.astype(">i8"), "<i8"),
        (table.astype(np.int32), "<i8"),
        (table.astype(np.int32), "<i4"),
        (table.astype(np.int32).transpose(1, 0, 2), "<i4"),
        (table.astype(">i4"), "<i4"),
        (floats, "<f8"),
        (floats.T, "<f8"),
        (floats.astype(">f8"), "<f8"),
        (floats.astype(">f8").T, "<f8"),
    ]
    for arr, dtype in arrays:
        got, want = hashlib.sha256(), hashlib.sha256()
        _hash_array(got, arr, dtype)
        hash_array_reference(want, arr, dtype)
        assert got.hexdigest() == want.hexdigest()

    # The same through a whole content hash, after the tag and the header.
    want = hashlib.sha256(b"chplanner-hierarchy-v%d" % CACHE_FORMAT_VERSION)
    want.update(np.array([3, 1], dtype="<i8").tobytes() + np.array([0.5], dtype="<f8").tobytes())
    for arr, dtype in arrays:
        hash_array_reference(want, arr, dtype)
    assert hierarchy_content_hash([3, 1], [0.5], arrays) == want.hexdigest()
