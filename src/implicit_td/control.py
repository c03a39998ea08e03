"""SARSA(lambda) control on top of either TD learner.

Action values share one weight vector: the feature vector for (s, a) is the
state features of s written into block a of a k*n_actions vector, zeros
elsewhere, so Q(s, a) = w . stack(phi(s), a) and both TD step rules apply
unchanged. Exploration is epsilon-greedy with ties broken toward the lowest
action index.

An episode takes the learner, its schedule, the env, a featurizer, epsilon
and one `implicit` flag that picks the step rule, as run_td_evaluation does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Transition, update_trace
from .envs import DiscreteActionEnv
from .learners import DIVERGENCE_THRESHOLD, TdLearnerState, td_step_implicit, td_step_standard
from .stepsize import StepSizeSchedule, next_alpha, reset_schedule

# hook called after each learner step with (transition, alpha, e): e is the
# trace the update used, gamma*lambda*(trace before the step) + phi_t. After
# an applied step it is the learner's own trace, so a hook reads it and never
# writes into it
StepHook = Callable[[Transition, float, np.ndarray], None]


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


def action_values(weights: np.ndarray, n_actions: int, phi_s: np.ndarray) -> np.ndarray:
    """Q(s, .) for all actions: one matvec against the blocked weight vector."""
    return weights.reshape(n_actions, -1).dot(phi_s)


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
    learner: TdLearnerState, schedule: StepSizeSchedule, env: DiscreteActionEnv,
    featurize: Callable[[np.ndarray], np.ndarray], epsilon: float, implicit: bool,
    seed: int, max_steps: int, on_step: StepHook | None = None,
) -> EpisodeStats:
    """Run one episode, updating the learner on every transition.

    The learner holds one block of featurize(obs)'s size per env action; a
    learner of another size, or an epsilon outside [0, 1], raises ValueError
    at the first action choice, before any learner step. `seed` drives both
    the environment reset and an independent policy stream. `max_steps` cuts
    the episode at a step budget without terminal bookkeeping (the trace
    survives for the caller to inspect); it must be at least 1, and the
    environment's episode cap runs an episode to its end. The step that
    makes the learner diverge ends the episode, and a learner that has
    already diverged takes no step; the caller reads divergence and the
    max-abs weight from the learner's record.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if learner.diverged:
        return EpisodeStats(0.0, 0, False)
    rng = np.random.default_rng((seed, 1))
    disc = learner.disc
    gamma = disc.gamma_0d  # next_alpha's alpha_bound multiplies phi' by it
    step_fn = td_step_implicit if implicit else td_step_standard
    reset_schedule(schedule)  # the adaptive bound is episode-scoped, like the trace
    learner.trace = np.zeros(learner.k)  # the one reset: a terminal step keeps its e
    n_actions = env.n_actions
    zero_next = np.zeros(learner.k)

    obs = env.reset(seed)
    env_step = env.step
    phi = featurize(obs)
    action = epsilon_greedy(action_values(learner.weights, n_actions, phi), epsilon, rng)
    sphi = stack_features(phi, action, n_actions)

    total = 0.0
    steps = 0
    while True:
        obs, reward, done = env_step(action)
        total += reward
        steps += 1
        if done:
            tr = Transition(sphi, reward, zero_next, True)
            sphi_next = zero_next
        else:
            phi = featurize(obs)
            action = epsilon_greedy(action_values(learner.weights, n_actions, phi), epsilon, rng)
            sphi_next = stack_features(phi, action, n_actions)
            tr = Transition(sphi, reward, sphi_next)

        # the trace entering the update, built once for next_alpha, step and hook
        e = update_trace(learner.trace, sphi, disc)
        alpha = next_alpha(schedule, learner.step_count, e, sphi, sphi_next, gamma)
        step_fn(learner, tr, alpha, e)
        if on_step is not None:
            on_step(tr, alpha, e)
        # == is >= here: steps counts up by one from 1, max_steps is >= 1;
        # the max_abs test is learner.diverged without the property call
        if done or steps == max_steps or learner.max_abs > DIVERGENCE_THRESHOLD:
            return EpisodeStats(total, steps, done)
        sphi = sphi_next
