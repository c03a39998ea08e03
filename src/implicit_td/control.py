"""SARSA(lambda) control on top of either TD learner.

Action values share one weight vector: the feature vector for (s, a) is the
state features of s written into block a of a k*n_actions vector, zeros
elsewhere, so Q(s, a) = w . stack(phi(s), a) and both TD step rules apply
unchanged. Exploration is epsilon-greedy with ties broken toward the lowest
action index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import Transition, update_trace
from .envs import DiscreteActionEnv
from .learners import TdLearnerState, td_step_implicit, td_step_standard
from .stepsize import StepSizeSchedule, next_alpha, reset_schedule

VARIANTS = ("standard", "implicit")

# hook called after each learner step with (transition, alpha, e): e is the
# trace the update used, gamma*lambda*(trace before the step) + phi_t. After
# an applied non-terminal step it is the learner's own trace, so a hook reads
# it and never writes into it
StepHook = Callable[[Transition, float, np.ndarray], None]


@dataclass(slots=True)
class SarsaAgent:
    learner: TdLearnerState
    schedule: StepSizeSchedule
    k_state: int
    n_actions: int
    epsilon: float = 0.1
    variant: str = "standard"
    featurize: Callable[[np.ndarray], np.ndarray] = field(default=lambda obs: obs)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {self.n_actions}")
        if self.learner.k != self.k_state * self.n_actions:
            raise ValueError(
                f"learner dimension {self.learner.k} != "
                f"k_state*n_actions = {self.k_state * self.n_actions}"
            )


@dataclass(frozen=True, slots=True)
class EpisodeStats:
    total_return: float
    steps: int
    terminated: bool  # env signalled done (cap included); False on a cut


def stack_features(phi_s: np.ndarray, action: int, n_actions: int) -> np.ndarray:
    if not 0 <= action < n_actions:
        raise ValueError(f"action must be in [0, {n_actions}), got {action}")
    k = phi_s.shape[0]
    stacked = np.zeros(k * n_actions)
    stacked[action * k : (action + 1) * k] = phi_s
    return stacked


def action_values(agent: SarsaAgent, phi_s: np.ndarray) -> np.ndarray:
    """Q(s, .) for all actions: one matvec against the blocked weight vector."""
    return agent.learner.weights.reshape(agent.n_actions, agent.k_state).dot(phi_s)


def epsilon_greedy(
    q_values: np.ndarray, epsilon: float, rng: np.random.Generator
) -> int:
    if q_values.shape[0] == 0:
        raise ValueError("q_values must be nonempty")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q_values.shape[0]))
    return int(q_values.argmax())


def sarsa_episode(
    agent: SarsaAgent,
    env: DiscreteActionEnv,
    seed: int,
    max_steps: int | None = None,
    on_step: StepHook | None = None,
) -> EpisodeStats:
    """Run one episode, updating the agent's learner on every transition.

    `seed` drives both the environment reset and an independent policy
    stream. `max_steps` cuts the episode at a step budget without terminal
    bookkeeping (the trace survives for the caller to inspect); it must be
    at least 1. The step that makes the learner diverge ends the episode,
    and a learner that has already diverged takes no step; the caller reads
    divergence and the max-abs weight from the learner's record.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    learner = agent.learner
    if learner.diverged:
        return EpisodeStats(0.0, 0, False)
    rng = np.random.default_rng((seed, 1))
    disc = learner.disc
    step_fn = td_step_implicit if agent.variant == "implicit" else td_step_standard
    sched = agent.schedule
    need_trace = sched.kind == "alpha_bound" or on_step is not None
    reset_schedule(sched)  # the adaptive bound is episode-scoped, like the trace
    learner.trace = np.zeros(learner.k)
    n_actions = agent.n_actions
    zero_next = np.zeros(learner.k)

    obs = env.reset(seed)
    phi = agent.featurize(obs)
    action = epsilon_greedy(action_values(agent, phi), agent.epsilon, rng)
    sphi = stack_features(phi, action, n_actions)

    total = 0.0
    steps = 0
    while True:
        obs, reward, done = env.step(action)
        total += reward
        steps += 1
        if done:
            tr = Transition(phi_t=sphi, reward=reward, phi_next=zero_next, terminal=True)
            sphi_next = zero_next
        else:
            phi = agent.featurize(obs)
            action = epsilon_greedy(action_values(agent, phi), agent.epsilon, rng)
            sphi_next = stack_features(phi, action, n_actions)
            tr = Transition(phi_t=sphi, reward=reward, phi_next=sphi_next)

        # the trace entering the update, built here when alpha_bound or the
        # hook reads it and handed to the step, which otherwise builds it
        e = update_trace(learner.trace, sphi, disc) if need_trace else None
        alpha = next_alpha(sched, learner.step_count, e, sphi, sphi_next, disc.gamma)
        step_fn(learner, tr, alpha, e)
        if on_step is not None:
            on_step(tr, alpha, e)
        if learner.diverged or done or (max_steps is not None and steps >= max_steps):
            return EpisodeStats(total, steps, done)
        sphi = sphi_next
