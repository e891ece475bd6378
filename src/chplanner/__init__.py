"""Chance-constrained receding-horizon planning against level-k opponents.

A library and CLI simulator for two-player dynamic games in which the
opponent is modeled by a ladder of bounded-rationality policies, its
unknown reasoning level is inferred online by Bayesian filtering, and the
ego agent optimizes randomized open-loop plans under a time-joint chance
constraint.  Three two-vehicle traffic scenarios (intersection, overtaking,
forced merge) come built in.
"""

from .game import (
    EGO,
    ENV,
    GameSpec,
    PolicyTable,
    step,
)
from .hierarchy import (
    Hierarchy,
    QTable,
    build_hierarchy,
    compute_q,
    hierarchy_content_hash,
    load_hierarchy,
    save_hierarchy,
    softmax_policy,
)
from .inference import (
    AugmentedKernel,
    Belief,
    InconsistentObservationError,
    bayes_update,
    build_kernel,
    init_belief,
)
from .planner import (
    DecisionProfile,
    NoRobustPlanError,
    Planner,
    PlanResult,
    constraint_probability,
    expected_reward,
    maximin_plan,
    optimize,
    receding_horizon_step,
)
from .traffic import (
    Scenario,
    ScenarioConfig,
    VehicleState,
    classify_outcome,
    default_config,
    episode_complete,
    hierarchy_key,
    level0_policy,
    load_config,
    make_scenario,
    vehicle_step,
)

__version__ = "0.1.0"
