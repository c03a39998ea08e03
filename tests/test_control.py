"""SARSA(lambda) episode plumbing and behavior."""

from functools import partial

import numpy as np
import pytest

from implicit_td.control import (
    EpisodeStats,
    action_values,
    epsilon_greedy,
    sarsa_episode,
    stack_features,
)
from implicit_td.core import DiscountSpec, Transition
from implicit_td.envs import CART_EPISODE_CAP, CartPole, fourier_features, make_fourier_basis
from implicit_td.learners import NONFINITE_MAX_ABS, make_learner, td_step_standard
from implicit_td.stepsize import make_schedule
from oracles import step_with_fresh_trace


def make_agent(k_state, n_actions, implicit=False, kind="constant", alpha0=0.1,
               epsilon=0.1, gamma=0.99, lam=0.5, featurize=lambda obs: obs):
    """sarsa_episode's keyword arguments other than env, seed and the step
    budget and hook, for a learner of n_actions blocks of k_state features."""
    disc = DiscountSpec(gamma=gamma, lam=lam)
    return dict(
        learner=make_learner(k_state * n_actions, disc),
        schedule=make_schedule(kind, alpha0),
        featurize=featurize,
        epsilon=epsilon,
        implicit=implicit,
    )


def test_stack_features_blocks():
    phi = np.array([1.0, 2.0])
    assert np.array_equal(stack_features(phi, 0, 2), [1, 2, 0, 0])
    assert np.array_equal(stack_features(phi, 1, 2), [0, 0, 1, 2])
    for a in range(3):
        assert np.linalg.norm(stack_features(phi, a, 3)) == np.linalg.norm(phi)
    with pytest.raises(ValueError):
        stack_features(phi, 2, 2)


def test_action_values_block_decomposition():
    weights = np.arange(6.0)
    phi = np.array([1.0, -1.0, 2.0])
    q = action_values(weights, 2, phi)
    for a in range(2):
        assert q[a] == pytest.approx(float(stack_features(phi, a, 2) @ weights))


def test_epsilon_greedy_pure_greedy_and_ties():
    rng = np.random.default_rng(0)
    assert epsilon_greedy(np.array([0.1, 0.9]), 0.0, rng) == 1
    assert epsilon_greedy(np.array([0.5, 0.5]), 0.0, rng) == 0
    with pytest.raises(ValueError):
        epsilon_greedy(np.array([]), 0.0, rng)
    with pytest.raises(ValueError):
        epsilon_greedy(np.array([1.0]), 1.5, rng)


def test_epsilon_greedy_uniform_at_epsilon_one():
    rng = np.random.default_rng(42)
    n = 10_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[epsilon_greedy(np.array([5.0, 1.0, 1.0]), 1.0, rng)] += 1
    # binomial 3-sigma band around n/3
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) < 3 * sigma)


def test_bad_epsilon_or_misfit_learner_raises_before_any_step():
    # CartPole observations have 4 entries and the identity featurizer keeps
    # them, so a learner of 2 * k_state weights fits the env only at
    # k_state = 4. Either fault raises at the first action choice
    cases = [(4, 1.2, "epsilon"), (4, -0.1, "epsilon"), (3, 0.1, "not aligned"),
             (5, 0.1, "not aligned")]
    for k_state, epsilon, message in cases:
        agent = make_agent(k_state, 2, epsilon=epsilon)
        learner = agent["learner"]
        learner.weights = np.linspace(-1.0, 1.0, learner.k)
        before = learner.weights.copy()
        with pytest.raises(ValueError, match=message):
            sarsa_episode(env=CartPole(), seed=0, max_steps=CART_EPISODE_CAP, **agent)
        assert np.array_equal(learner.weights, before)
        assert learner.step_count == 0
        assert learner.max_abs == 0.0


def test_episode_deterministic_per_seed():
    basis = make_fourier_basis(order=2, dims=4)

    def run():
        agent = make_agent(basis.k, 2, alpha0=0.05, featurize=partial(fourier_features, basis))
        stats = sarsa_episode(env=CartPole(), seed=7, max_steps=200, **agent)
        return stats, agent["learner"].weights.copy()

    (s1, w1), (s2, w2) = run(), run()
    assert s1 == s2
    assert np.array_equal(w1, w2)
    assert isinstance(s1, EpisodeStats)
    assert s1.steps > 0


def test_diverged_agent_returns_immediately():
    agent = make_agent(4, 2)
    learner = agent["learner"]
    learner.max_abs = NONFINITE_MAX_ABS
    before = learner.weights.copy()
    stats = sarsa_episode(env=CartPole(), seed=0, max_steps=CART_EPISODE_CAP, **agent)
    assert learner.diverged and stats.steps == 0
    assert np.array_equal(learner.weights, before)


def test_max_steps_budget_cuts_episode():
    basis = make_fourier_basis(order=1, dims=4)
    agent = make_agent(basis.k, 2, alpha0=0.01, featurize=partial(fourier_features, basis))
    stats = sarsa_episode(env=CartPole(), seed=3, max_steps=5, **agent)
    assert stats.steps == 5
    assert not stats.terminated


@pytest.mark.parametrize("max_steps", [0, -3])
def test_max_steps_below_one_is_rejected(max_steps):
    agent = make_agent(4, 2)
    learner = agent["learner"]
    before = learner.weights.copy()
    with pytest.raises(ValueError, match="max_steps"):
        sarsa_episode(env=CartPole(), seed=0, max_steps=max_steps, **agent)
    assert np.array_equal(learner.weights, before)
    assert learner.step_count == 0


@pytest.mark.parametrize("kind", ["constant", "alpha_bound"])
def test_hook_trace_is_the_one_update_trace(kind, monkeypatch):
    # the hook's e is update_trace(trace before the step, phi_t), bit for bit,
    # and it is the only trace the episode computes per step, with a hook or
    # without one: sarsa_episode builds it and the learner step takes it, so
    # after every applied step, the terminal one included, the learner's
    # trace is that very array. The step never builds a trace of its own.
    # The hook only observes: no handed-out trace is written into later.
    from implicit_td import control, learners

    calls = []
    real = control.update_trace

    def counting(e_prev, phi, disc):
        calls.append(1)
        return real(e_prev, phi, disc)

    def refusing(e_prev, phi, disc):
        raise AssertionError("the learner step built a trace")

    monkeypatch.setattr(control, "update_trace", counting)
    monkeypatch.setattr(learners, "update_trace", refusing)
    basis = make_fourier_basis(order=1, dims=4)
    agent = make_agent(basis.k, 2, kind=kind, alpha0=0.5, featurize=partial(fourier_features, basis))
    learner = agent["learner"]
    disc = learner.disc
    trace_before = [np.zeros(learner.k)]
    steps_before = [0]
    seen, kept = [], []

    def hook(tr, alpha, e):
        assert np.array_equal(e, real(trace_before[0], tr.phi_t, disc))
        if learner.step_count == steps_before[0] + 1:
            assert learner.trace is e
        trace_before[0] = learner.trace.copy()
        steps_before[0] = learner.step_count
        kept.append((e, e.copy()))
        seen.append(tr)

    stats = sarsa_episode(
        env=CartPole(), seed=4, max_steps=CART_EPISODE_CAP, on_step=hook, **agent
    )
    assert stats.terminated and seen[-1].terminal
    assert len(seen) == stats.steps == len(calls)
    assert learner.step_count == stats.steps
    assert all(e.tobytes() == copy.tobytes() for e, copy in kept)

    # no hook: still exactly one update_trace per step, none in the step
    calls.clear()
    stats = sarsa_episode(env=CartPole(), seed=5, max_steps=CART_EPISODE_CAP, **agent)
    assert stats.terminated
    assert len(calls) == stats.steps
    assert learner.step_count == len(seen) + stats.steps


class _SinglePolicyEnv:
    """CartPole wrapper with one action: the agent's choice is forced."""

    n_actions = 1
    obs_dim = 4

    def __init__(self):
        self._env = CartPole()

    def reset(self, seed):
        return self._env.reset(seed)

    def step(self, action):
        return self._env.step(0)


def test_single_action_episode_is_td_evaluation():
    # with one action the stacked features collapse to the state features,
    # so the episode must replay exactly as a hand-rolled TD(lambda) loop
    basis = make_fourier_basis(order=1, dims=4)
    disc = DiscountSpec(gamma=0.99, lam=0.5)
    seen = []
    agent = make_agent(basis.k, 1, alpha0=0.05, featurize=partial(fourier_features, basis))
    sarsa_episode(
        env=_SinglePolicyEnv(),
        seed=5,
        max_steps=50,
        on_step=lambda tr, alpha, e: seen.append(tr),
        **agent,
    )

    manual = make_learner(basis.k, disc)
    env = CartPole()
    obs = env.reset(5)
    phi = fourier_features(basis, obs)
    for _ in range(50):
        obs, reward, done = env.step(0)
        if done:
            tr = Transition(phi_t=phi, reward=reward, phi_next=np.zeros(basis.k), terminal=True)
        else:
            phi_next = fourier_features(basis, obs)
            tr = Transition(phi_t=phi, reward=reward, phi_next=phi_next)
        step_with_fresh_trace(td_step_standard, manual, tr, 0.05)
        if done:
            break
        phi = phi_next
    assert np.array_equal(agent["learner"].weights, manual.weights)
    assert len(seen) == 50 or seen[-1].terminal


def test_tiny_alpha_gives_identical_action_sequences():
    # at alpha ~ 0 the greedy decisions depend only on the shared policy
    # stream, so standard and implicit agents act identically
    basis = make_fourier_basis(order=2, dims=4)

    def actions(implicit):
        agent = make_agent(basis.k, 2, implicit=implicit, alpha0=1e-8,
                           featurize=partial(fourier_features, basis))
        acts = []
        sarsa_episode(
            env=CartPole(),
            seed=11,
            max_steps=100,
            on_step=lambda tr, alpha, e: acts.append(int(np.argmax(np.abs(tr.phi_t)) // basis.k)),
            **agent,
        )
        return acts

    assert actions(False) == actions(True)
