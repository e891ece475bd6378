import dataclasses
import hashlib
import json

import pytest
import yaml
from importlib import resources

from chplanner.cli import main, run_episode, write_episode_csv
from chplanner.hierarchy import load_hierarchy


def _write_config(tmp_path, name="intersection", mutate=None):
    tree = yaml.safe_load(
        resources.files("chplanner.configs").joinpath(f"{name}.yaml").read_text()
    )
    if mutate:
        mutate(tree)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tree))
    return path


def test_build_prints_stable_hash(tmp_path, cache_dir, capsys):
    config = _write_config(tmp_path)
    assert main(["build", "--config", str(config), "--cache-dir", str(cache_dir)]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["build", "--config", str(config), "--cache-dir", str(cache_dir)]) == 0
    second = capsys.readouterr().out.strip()
    assert first == second
    assert len(first) == 64


def test_build_recovers_from_truncated_cache(tmp_path, cache_dir, capsys):
    # A cache file cut short by an interrupted write is a miss, not a crash.
    assert main(["build", "--config", "intersection", "--cache-dir", str(cache_dir)]) == 0
    content_hash = capsys.readouterr().out.strip()
    name = f"hierarchy-{content_hash[:16]}.npz"
    data = (cache_dir / name).read_bytes()
    own_cache = tmp_path / "cache"
    own_cache.mkdir()
    (own_cache / name).write_bytes(data[: len(data) // 2])

    assert main(["build", "--config", "intersection", "--cache-dir", str(own_cache)]) == 0
    assert capsys.readouterr().out.strip() == content_hash
    assert [p.name for p in own_cache.iterdir()] == [name]
    assert load_hierarchy(own_cache / name)[1] == content_hash


def test_build_rejects_bad_epsilon(tmp_path, cache_dir, capsys):
    config = _write_config(
        tmp_path, mutate=lambda t: t["planning"].__setitem__("epsilon", 1.5)
    )
    code = main(["build", "--config", str(config), "--cache-dir", str(cache_dir)])
    assert code == 2
    assert "epsilon out of [0,1]" in capsys.readouterr().err


def test_build_rejects_missing_file(tmp_path, cache_dir, capsys):
    code = main(["build", "--config", str(tmp_path / "nope.yaml"),
                 "--cache-dir", str(cache_dir)])
    assert code == 2


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (None, "not valid YAML"),
        (lambda t: t["ego"]["start"].pop("pos"), "'ego.start.pos'"),
        (lambda t: t["ego"].__setitem__("start", 3), "'ego.start.pos'"),
        (lambda t: t["inference"].__setitem__("levels", 2), "'inference.levels'"),
        (lambda t: t["ego"].__setitem__("lane_change", "false"), "'ego.lane_change'"),
        (lambda t: t["human"].__setitem__("lane_change", "no"), "'human.lane_change'"),
        (lambda t: t["hierarchy"].__setitem__("level0_softmax", 0),
         "'hierarchy.level0_softmax'"),
        (lambda t: t["hierarchy"].__setitem__("temperature", 0), "temperature"),
        (lambda t: t["hierarchy"].__setitem__("temperature", float("nan")), "temperature"),
        (lambda t: t["hierarchy"].__setitem__("collision_penalty", float("-inf")),
         "collision_penalty"),
        (lambda t: t["kinematics"].__setitem__("car_length", -5), "car_length"),
        (lambda t: t["kinematics"].__setitem__("lane_width", float("inf")), "lane_width"),
        (lambda t: t["planning"].__setitem__("horizon", True), "'planning.horizon'"),
        (lambda t: t["episode"].__setitem__("step_cap", 2.5), "'episode.step_cap'"),
        (lambda t: t["planning"].__setitem__("epsilon", True), "'planning.epsilon'"),
        (lambda t: t.__setitem__("seed", -1), "seed"),
        (lambda t: t["ego"].__setitem__("v_max", float("inf")), "ego_v_max must be finite"),
        (lambda t: t["inference"].__setitem__("prior", [float("nan")] * 2),
         "level_prior must be finite"),
        (lambda t: t["kinematics"].__setitem__("dt", float("nan")), "dt must be finite"),
    ],
    ids=["yaml-syntax", "missing-start-pos", "scalar-start", "scalar-levels",
         "quoted-ego-flag", "string-human-flag", "integer-softmax-flag",
         "zero-temperature", "nan-temperature", "infinite-penalty", "negative-car-length",
         "infinite-lane-width", "boolean-horizon", "fractional-step-cap",
         "boolean-epsilon", "negative-seed", "infinite-v-max", "nan-prior", "nan-dt"],
)
def test_build_rejects_malformed_config(tmp_path, capsys, mutate, fragment):
    if mutate is None:
        config = tmp_path / "config.yaml"
        config.write_text("scenario: [intersection\n  bad: : :\n")
    else:
        config = _write_config(tmp_path, mutate=mutate)
    own_cache = tmp_path / "cache"
    own_cache.mkdir()
    code = main(["build", "--config", str(config), "--cache-dir", str(own_cache)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and fragment in err
    assert list(own_cache.glob("hierarchy-*.npz")) == []


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "below-file"])
def test_build_rejects_cache_dir_that_is_a_file(tmp_path, capsys, sub):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x")
    code = main(["build", "--config", "intersection", "--cache-dir", str(blocker / sub)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "is not a directory" in err
    assert blocker.read_text() == "x"


def test_simulate_writes_byte_identical_csv(tmp_path, cache_dir):
    args = [
        "simulate", "--config", "intersection", "--cache-dir", str(cache_dir),
        "--human-level", "1", "--seed", "5",
    ]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(args + ["--out", str(out1 / "episode")]) == 0
    assert main(args + ["--out", str(out2 / "episode")]) == 0
    a = (out1 / "episode.csv").read_bytes()
    b = (out2 / "episode.csv").read_bytes()
    assert a == b
    beliefs = (out1 / "episode_beliefs.csv").read_text().splitlines()
    assert beliefs[0] == "t,level,posterior"
    summary = json.loads((out1 / "episode_summary.json").read_text())
    assert summary["scenario"] == "intersection"
    assert (out1 / "episode_summary.json").read_bytes() == (
        out2 / "episode_summary.json"
    ).read_bytes()


# sha256 of `simulate --human-level 2 --seed 5` episode CSVs.  A change meant
# to keep behaviour leaves these alone; one that changes episodes on purpose
# updates them and says why.
GOLDEN_CSV_SHA256 = {
    "intersection": "5d130409b8b952413fa529d19440dd79d8dac5d96a00984a6d5e8ef55f540463",
    "overtaking": "96ee4d71cd23ddc8dd53da88ffbd0cc94534c82b436c288f44fdb318f169d66e",
    "merging": "29e291f6f4dc91267c2b83478c681630ae8d7c86dc304972ca4cd51bddc24cde",
}
# sha256 of the same runs' summary JSON, which holds the episode outcome.
GOLDEN_SUMMARY_SHA256 = {
    "intersection": "f0e831c28e97104165bb573f478c424607532484985cb3bc7e5af0d78b3c6e6b",
    "overtaking": "141431b68752b2956985c3e0ed9d1483f6eccfc56b6b20ad96bd296f8fee8f20",
    "merging": "8d06ff60652e153fc3387a16ccfd19ae1dfcd88a041ff7fd64e1ce84a6b3d338",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_simulate_csv_matches_golden_digest(tmp_path, cache_dir, name):
    assert main([
        "simulate", "--config", name, "--cache-dir", str(cache_dir),
        "--human-level", "2", "--seed", "5", "--out", str(tmp_path / "episode"),
    ]) == 0
    digest = hashlib.sha256((tmp_path / "episode.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[name]
    summary = (tmp_path / "episode_summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == GOLDEN_SUMMARY_SHA256[name]


def test_evaluate_rejects_out_that_is_a_directory(tmp_path, capsys, monkeypatch):
    from chplanner import cli

    def no_build(*args, **kwargs):
        raise AssertionError("built before the output path was checked")

    monkeypatch.setattr(cli, "build_artifacts", no_build)
    out = tmp_path / "report"
    out.mkdir()
    code = main(["evaluate", "--config", "intersection", "--cache-dir", str(tmp_path / "cache"),
                 "--seeds", "1", "--out", str(out)])
    assert code == 2
    assert f"config error: --out {out} is a directory" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_simulate_snapshots_written(tmp_path, cache_dir):
    snaps = tmp_path / "snaps"
    code = main([
        "simulate", "--config", "merging", "--cache-dir", str(cache_dir),
        "--human-level", "2", "--seed", "0",
        "--out", str(tmp_path / "episode"), "--snapshots", str(snaps),
    ])
    assert code == 0
    files = sorted(snaps.glob("step_*.svg"))
    assert files
    assert files[0].read_text().startswith("<svg")


def test_simulate_rejects_unknown_level(tmp_path, capsys):
    # The level is checked before anything is built, so an empty cache
    # directory stays empty.
    own_cache = tmp_path / "cache"
    own_cache.mkdir()
    code = main([
        "simulate", "--config", "intersection", "--cache-dir", str(own_cache),
        "--human-level", "7", "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    assert "human level 7" in capsys.readouterr().err
    assert list(own_cache.glob("hierarchy-*.npz")) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--steps", "-2"], "--steps"),
        (["simulate", "--steps", "0"], "--steps"),
        (["evaluate", "--seeds", "-3"], "--seeds"),
        (["simulate", "--seed", "-1"], "seed"),
        (["evaluate", "--seed", "-1"], "seed"),
    ],
    ids=["simulate-steps", "simulate-zero-steps", "evaluate-seeds", "simulate-seed",
         "evaluate-seed"],
)
def test_negative_cli_numbers_rejected_before_build(tmp_path, capsys, argv, flag):
    own_cache = tmp_path / "cache"
    own_cache.mkdir()
    code = main(argv + [
        "--config", "intersection", "--cache-dir", str(own_cache),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and flag in err
    assert list(own_cache.glob("hierarchy-*.npz")) == []
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--out", "{blocker}/ep"], "--out"),
        (["simulate", "--out", "{tmp}/ep", "--snapshots", "{blocker}"], "--snapshots"),
        (["simulate", "--out", "{tmp}/ep", "--snapshots", "{blocker}/snaps"], "--snapshots"),
        (["evaluate", "--out", "{blocker}/r.json"], "--out"),
    ],
    ids=["simulate-out", "simulate-snapshots", "simulate-snapshots-below-file",
         "evaluate-out"],
)
def test_output_path_below_a_file_rejected_before_build(tmp_path, capsys, argv, flag):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x")
    own_cache = tmp_path / "cache"
    own_cache.mkdir()
    argv = [a.format(blocker=blocker, tmp=tmp_path) for a in argv]
    code = main(argv + ["--config", "intersection", "--cache-dir", str(own_cache)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and flag in err and "is not a directory" in err
    assert list(own_cache.glob("hierarchy-*.npz")) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "not-a-dir"]


def test_simulate_level0_human(tmp_path, cache_dir):
    # The content hash ignores the inference levels, so this reuses the
    # cached intersection hierarchy.
    def mutate(tree):
        tree["inference"]["levels"] = [0, 1, 2]
        tree["inference"]["prior"] = [0.2, 0.4, 0.4]

    config = _write_config(tmp_path, mutate=mutate)
    code = main([
        "simulate", "--config", str(config), "--cache-dir", str(cache_dir),
        "--human-level", "0", "--seed", "0", "--out", str(tmp_path / "episode"),
    ])
    assert code == 0
    header = (tmp_path / "episode.csv").read_text().splitlines()[0]
    assert "posterior_level_0" in header.split(",")


def _doomed_config(tmp_path):
    # Full-speed ego 8 m behind a stopped car, lane changes disabled: the
    # start is (barely) safe but every successor tailgates, so the very
    # first plan is infeasible.
    def mutate(tree):
        tree["ego"]["lane_change"] = False
        tree["ego"]["start"] = {"pos": 40.0, "v": 12.0, "lane": 0}
        tree["human"]["start"] = {"pos": 48.0, "v": 0.0, "lane": 0}

    return _write_config(tmp_path, "overtaking", mutate)


def test_simulate_abort_on_infeasible_exits_3(tmp_path, cache_dir, capsys):
    config = _doomed_config(tmp_path)
    code = main([
        "simulate", "--config", str(config), "--cache-dir", str(cache_dir),
        "--human-level", "1", "--on-infeasible", "abort",
        "--out", str(tmp_path / "episode"),
    ])
    assert code == 3
    assert "aborted" in capsys.readouterr().err


def test_simulate_fallback_on_infeasible_completes(tmp_path, cache_dir):
    config = _doomed_config(tmp_path)
    code = main([
        "simulate", "--config", str(config), "--cache-dir", str(cache_dir),
        "--human-level", "1", "--on-infeasible", "fallback",
        "--out", str(tmp_path / "episode"),
    ])
    assert code == 0
    lines = (tmp_path / "episode.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "fallback" in header
    assert any(row.split(",")[header.index("fallback")] == "1" for row in lines[1:])


def test_evaluate_exits_1_when_seeds_fail(tmp_path, cache_dir, capsys):
    config = _doomed_config(tmp_path)
    tree = yaml.safe_load(config.read_text())
    tree["planning"]["on_infeasible"] = "abort"
    config.write_text(yaml.safe_dump(tree))
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--config", str(config), "--cache-dir", str(cache_dir),
        "--human-level", "1", "--seeds", "2", "--out", str(out),
    ])
    assert code == 1
    failed = json.loads(out.read_text())["per_level"]["1"]["failed_seeds"]
    assert [f["seed"] for f in failed] == [0, 1]
    assert all(f["error"].startswith("InfeasiblePlanAbort") for f in failed)
    assert "failed" in capsys.readouterr().err


def test_episode_log_record_count_and_flag_consistency(built_scenarios, tmp_path):
    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    log = run_episode(scenario, hierarchy, kernel, 1, seed=3)
    assert len(log.records) == log.num_steps + 1
    # The violation flag and the CSV's safe column must agree with an
    # independent re-evaluation of the safety predicate on the logged
    # positions.
    write_episode_csv(tmp_path / "episode.csv", scenario, log)
    lines = (tmp_path / "episode.csv").read_text().splitlines()
    header = lines[0].split(",")
    replay = []
    for rec, line in zip(log.records, lines[1:], strict=True):
        state = scenario.encode(*scenario.decode(rec.state))
        replay.append(scenario.is_safe(state))
        assert line.split(",")[header.index("safe")] == ("1" if replay[-1] else "0")
    assert log.violated == (not all(replay))


def test_episode_log_shares_decoded_states(built_scenarios):
    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    log = run_episode(scenario, hierarchy, kernel, 1, seed=3)
    for rec in (*log.records, log):
        assert not hasattr(rec, "__dict__")  # slotted: no per-object dict
    for rec in log.records:
        ego, _ = scenario.decode(rec.state)
        assert not hasattr(ego, "__dict__")


def test_episode_makes_one_optimize_call_per_planning_step(built_scenarios, monkeypatch):
    # The way an external tracer counts planning work: by wrapping the names
    # the episode loop and the planner look up at call time.
    from chplanner import cli, planner

    calls = {"optimize": 0, "step": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(planner, "optimize", counting("optimize", planner.optimize))
    monkeypatch.setattr(cli, "receding_horizon_step",
                        counting("step", cli.receding_horizon_step))
    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    steps = 0
    for seed in (4, 4, 5):  # the repeat is planned from memoised plans
        steps += run_episode(scenario, hierarchy, kernel, 2, seed).num_steps
    assert calls == {"optimize": steps, "step": steps}


def test_episode_rejects_unbuilt_level(built_scenarios):
    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    with pytest.raises(ValueError):
        run_episode(scenario, hierarchy, kernel, 3, seed=0)
    with pytest.raises(ValueError, match="ego controller"):
        run_episode(scenario, hierarchy, kernel, 1, 0, ego_controller="random")
    # The step cap is the config's; the config rejects a cap below 1.
    with pytest.raises(ValueError, match="step_cap"):
        dataclasses.replace(scenario.config, step_cap=0)


def test_evaluate_zero_seeds_empty_report(tmp_path, cache_dir, capsys):
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--config", "intersection", "--cache-dir", str(cache_dir),
        "--seeds", "0", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["per_level"] == {}
    assert report["seeds"] == []


def test_evaluate_small_batch_report(tmp_path, cache_dir):
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--config", "intersection", "--cache-dir", str(cache_dir),
        "--seeds", "2", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    for level in ("1", "2"):
        stats = report["per_level"][level]
        assert stats["episodes"] == 2
        assert stats["failed_seeds"] == []
        assert 0.0 <= stats["violation_rate"] <= 1.0
        assert "ego_crossed_first_rate" in stats
        assert {"mean_ego_cross_step", "mean_human_cross_step"} <= stats.keys()


def test_evaluate_stats_derive_from_outcome_fields():
    from chplanner.cli import _outcome_stats

    outcomes = [
        {"scenario": "merging", "violation": False, "merged": True, "merge_step": 2,
         "merged_ahead": True, "merged_in_section": True},
        {"scenario": "merging", "violation": True, "merged": True, "merge_step": 5,
         "merged_ahead": False, "merged_in_section": True},
        {"scenario": "merging", "violation": False, "merged": False, "merge_step": None,
         "merged_ahead": None, "merged_in_section": None},
    ]
    # A flag's rate and a step's mean skip the episodes where the field is None.
    assert _outcome_stats(outcomes) == {
        "violation_rate": 1 / 3, "merged_rate": 2 / 3, "mean_merge_step": 3.5,
        "merged_ahead_rate": 0.5, "merged_in_section_rate": 1.0,
    }
    assert _outcome_stats(outcomes[2:]) == {
        "violation_rate": 0.0, "merged_rate": 0.0, "mean_merge_step": None,
        "merged_ahead_rate": None, "merged_in_section_rate": None,
    }
    assert _outcome_stats([]) == {}


def test_evaluate_batch_survives_episode_crashes(built_scenarios, monkeypatch):
    scenario, hierarchy, kernel, _ = built_scenarios("intersection")
    import chplanner.cli as cli_mod

    real = cli_mod.run_episode

    def flaky(*args, **kwargs):
        if args[4] == 1 or kwargs.get("seed") == 1:
            raise RuntimeError("boom")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "run_episode", flaky)
    report = cli_mod.evaluate_batch(scenario, hierarchy, kernel, [0, 1], levels=(1,))
    stats = report["per_level"]["1"]
    assert stats["episodes"] == 1
    assert stats["failed_seeds"][0]["seed"] == 1
    assert "boom" in stats["failed_seeds"][0]["error"]


def test_world_positions_in_csv_are_world_frame(tmp_path, cache_dir):
    assert main([
        "simulate", "--config", "intersection", "--cache-dir", str(cache_dir),
        "--human-level", "1", "--seed", "0", "--out", str(tmp_path / "episode"),
    ]) == 0
    lines = (tmp_path / "episode.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    # The northbound human's world x is its (fixed) lateral lane center.
    assert float(row[header.index("human_x")]) == pytest.approx(1.8)
    assert float(row[header.index("ego_y")]) == pytest.approx(-1.8)
