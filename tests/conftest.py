import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from chplanner.cli import build_artifacts, scenario_kernel
from chplanner.game import GameSpec
from chplanner.traffic import default_config


def make_spec(ego, env, r1, r2, safe, discount=0.9, horizon=3) -> GameSpec:
    """GameSpec from plain arrays (the two successor tables, rewards, safe mask).

    ``ego[e, u1]`` and ``env[h, u2]`` are the vehicles' successor cells;
    state ``x = e * len(env) + h``.
    """
    return GameSpec(
        ego_successors=ego,
        env_successors=env,
        ego_reward_table=r1,
        env_reward_table=r2,
        safe_set=safe,
        discount=discount,
        horizon=horizon,
    )


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hierarchy-cache")


@pytest.fixture(scope="session")
def built_scenarios(cache_dir):
    """Scenario + hierarchy + kernel per name, built once per session."""
    store = {}

    def get(name):
        if name not in store:
            config = default_config(name)
            scenario, hierarchy, content_hash = build_artifacts(config, cache_dir)
            kernel = scenario_kernel(scenario, hierarchy)
            store[name] = (scenario, hierarchy, kernel, content_hash)
        return store[name]

    return get
