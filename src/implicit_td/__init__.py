"""Standard and implicit TD(lambda) with linear function approximation.

Library layout:

* core: vector helpers, DiscountSpec, Transition
* learners: the two TD step rules and the TD fixed-point oracle
* stability: closed-form per-step eigenvalue/contraction analysis
* stepsize: constant, polynomial, and alpha-bound schedules
* envs: finite MRPs, puddle world, cart-pole, Fourier features
* control: SARSA(lambda) over per-action stacked features
* harness: config, seeded sweeps, audits, CSV output (CLI: implicit-td)
"""

from .control import EpisodeStats, epsilon_greedy, sarsa_episode, stack_features
from .core import DimensionMismatchError, DiscountSpec, Transition, update_trace
from .envs import (
    CartPole,
    FiniteMrp,
    FourierBasis,
    PuddleWorld,
    fourier_features,
    make_fourier_basis,
    random_chain_mrp,
    stationary_distribution,
)
from .harness import (
    ExperimentConfig,
    FixedPointReport,
    SweepResult,
    fixed_point_check,
    load_config,
    run_cell,
    run_sweep,
    run_td_evaluation,
    stability_audit_run,
)
from .learners import (
    DIVERGENCE_THRESHOLD,
    TdLearnerState,
    make_learner,
    td_fixed_point_oracle,
    td_step_implicit,
    td_step_standard,
)
from .stability import StabilityReport, TransitionGeometry, audit_step
from .stepsize import StepSizeSchedule, make_schedule, next_alpha

__all__ = [
    "CartPole",
    "DIVERGENCE_THRESHOLD",
    "DimensionMismatchError",
    "DiscountSpec",
    "EpisodeStats",
    "ExperimentConfig",
    "FiniteMrp",
    "FixedPointReport",
    "FourierBasis",
    "PuddleWorld",
    "StabilityReport",
    "StepSizeSchedule",
    "SweepResult",
    "TdLearnerState",
    "Transition",
    "TransitionGeometry",
    "audit_step",
    "epsilon_greedy",
    "fixed_point_check",
    "fourier_features",
    "load_config",
    "make_fourier_basis",
    "make_learner",
    "make_schedule",
    "next_alpha",
    "random_chain_mrp",
    "run_cell",
    "run_sweep",
    "run_td_evaluation",
    "sarsa_episode",
    "stability_audit_run",
    "stack_features",
    "stationary_distribution",
    "td_fixed_point_oracle",
    "td_step_implicit",
    "td_step_standard",
    "update_trace",
]
