"""TD step rules against hand values and the dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from implicit_td.control import sarsa_episode
from implicit_td.core import DiscountSpec, Transition, update_trace
from implicit_td.envs import (
    CART_EPISODE_CAP,
    CartPole,
    FiniteMrp,
    random_chain_mrp,
    stationary_distribution,
)
from implicit_td.learners import (
    DIVERGENCE_THRESHOLD,
    NONFINITE_MAX_ABS,
    TdLearnerState,
    abs_max,
    implicit_step,
    make_learner,
    standard_step,
    td_fixed_point_oracle,
    td_step_implicit,
    td_step_standard,
)
from implicit_td.stability import TransitionGeometry
from implicit_td.stepsize import make_schedule
from oracles import dense_gain_matrix, step_with_fresh_trace, td_step_implicit_oracle


def learner_at(weights, disc):
    """A learner with the given weights and a zero trace."""
    return TdLearnerState(
        weights=np.array(weights, float), trace=np.zeros(len(weights)), disc=disc
    )


def transition(phi_t, reward, phi_next, terminal=False):
    return Transition(
        phi_t=np.asarray(phi_t, float),
        reward=reward,
        phi_next=np.asarray(phi_next, float),
        terminal=terminal,
    )


def test_standard_step_hand_value():
    # k=1: delta = 0.1 + 0.9*0.8*0.5 - 0.5 = -0.04, w' = 0.5 - 0.5*0.04
    learner = learner_at([0.5], DiscountSpec(gamma=0.9, lam=0.0))
    step_with_fresh_trace(td_step_standard, learner, transition([1.0], 0.1, [0.8]), 0.5)
    assert learner.weights[0] == pytest.approx(0.48)
    # w' - w = alpha * delta * e with e = 1
    assert (learner.weights[0] - 0.5) / 0.5 == pytest.approx(-0.04)
    assert learner.max_abs == learner.weights[0]
    assert learner.step_count == 1


def test_standard_step_zero_features_no_move():
    learner = learner_at([1.0, 2.0], DiscountSpec(gamma=0.9, lam=0.5))
    step_with_fresh_trace(td_step_standard, learner, transition([0, 0], 0.0, [0, 0]), 5.0)
    assert np.array_equal(learner.weights, [1.0, 2.0])


def test_zero_weights_zero_reward_invariant_for_both_rules():
    for step in (td_step_standard, td_step_implicit):
        learner = make_learner(3, DiscountSpec(gamma=0.9, lam=0.7))
        rng = np.random.default_rng(0)
        for _ in range(20):
            tr = transition(rng.normal(size=3), 0.0, rng.normal(size=3))
            step_with_fresh_trace(step, learner, tr, 0.3)
        assert np.array_equal(learner.weights, np.zeros(3))


def test_implicit_step_hand_value_and_standard_contrast():
    disc = DiscountSpec(gamma=1e-12, lam=0.0)  # gamma ~ 0; spec'd limit case
    learner = make_learner(1, disc)
    step_with_fresh_trace(td_step_implicit, learner, transition([1.0], 1.0, [0.0]), 1.0)
    assert learner.weights[0] == pytest.approx(0.5)
    # the applied update is alpha * (b - e.w') * e with b = 1, e = 1, w = 0
    assert learner.weights[0] == pytest.approx(1.0 * (1.0 - learner.weights[0]))
    assert learner.max_abs == learner.weights[0]

    learner = make_learner(1, disc)
    step_with_fresh_trace(td_step_standard, learner, transition([1.0], 1.0, [0.0]), 1.0)
    assert learner.weights[0] == pytest.approx(1.0)


def test_oracle_alpha_zero_identity():
    learner = learner_at([1.0, -2.0], DiscountSpec(gamma=0.9, lam=0.3))
    got = td_step_implicit_oracle(learner, transition([1, 1], 0.5, [0, 1]), alpha=0.0)
    assert np.array_equal(got, [1.0, -2.0])


def test_oracle_zero_trace_identity():
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    learner = learner_at([3.0, 4.0], disc)
    got = td_step_implicit_oracle(learner, transition([0, 0], 7.0, [1, 1]), alpha=2.0)
    assert got == pytest.approx([3.0, 4.0])


def test_implicit_matches_dense_oracle_random():
    disc = DiscountSpec(gamma=0.95, lam=0.8)
    rng = np.random.default_rng(101)
    for _ in range(200):
        k = 8
        learner = TdLearnerState(
            weights=rng.normal(size=k), trace=rng.normal(size=k), disc=disc
        )
        tr = transition(rng.normal(size=k), float(rng.normal()), rng.normal(size=k))
        alpha = float(rng.uniform(1e-3, 5.0))
        want = td_step_implicit_oracle(learner, tr, alpha)
        e = update_trace(learner.trace, tr.phi_t, disc)
        td_step_implicit(learner, tr, alpha, e)
        assert np.max(np.abs(learner.weights - want)) <= 1e-10
        # an accepted step keeps the trace it was handed
        assert learner.trace is e and learner.step_count == 1


def test_standard_rewritten_form_identity():
    # phi_t = e_t - gamma*lambda*e_{t-1}, so the update can be written with
    # gamma*lambda*(e_prev.w) - e.w in the bracket; both forms must agree
    disc = DiscountSpec(gamma=0.9, lam=0.6)
    rng = np.random.default_rng(55)
    for _ in range(100):
        k = 4
        w = rng.normal(size=k)
        e_prev = rng.normal(size=k)
        tr = transition(rng.normal(size=k), float(rng.normal()), rng.normal(size=k))
        alpha = 0.2
        learner = TdLearnerState(weights=w.copy(), trace=e_prev.copy(), disc=disc)
        e = update_trace(e_prev, tr.phi_t, disc)
        td_step_standard(learner, tr, alpha, e)
        assert learner.trace is e and learner.step_count == 1

        bracket = (
            tr.reward
            + disc.gamma * float(tr.phi_next @ w)
            + disc.trace_decay * float(e_prev @ w)
            - float(e @ w)
        )
        rewritten = w + alpha * bracket * e
        assert np.max(np.abs(learner.weights - rewritten)) <= 1e-12


def test_zero_reward_steps_are_the_gain_matrices():
    # with r=0 and a shared zero next-feature, one step is w -> G w for the
    # matching dense gain matrix of either rule
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    rng = np.random.default_rng(77)
    for implicit in (False, True):
        step = td_step_implicit if implicit else td_step_standard
        for _ in range(50):
            k = 6
            w = rng.normal(size=k)
            e_prev = rng.normal(size=k)
            phi = rng.normal(size=k)
            phi_next = rng.normal(size=k)
            alpha = float(rng.uniform(0.01, 2.0))
            learner = TdLearnerState(weights=w.copy(), trace=e_prev.copy(), disc=disc)
            tr = transition(phi, 0.0, phi_next)
            e = update_trace(e_prev, phi, disc)
            step(learner, tr, alpha, e)

            g = TransitionGeometry(e=e, d=phi - disc.gamma * phi_next, alpha=alpha)
            want = dense_gain_matrix(g, implicit=implicit) @ w
            assert learner.weights == pytest.approx(want, abs=1e-10)


def test_terminal_zeroes_bootstrap_and_resets_trace():
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    learner = learner_at([1.0, 1.0], disc)
    tr = transition([1.0, 0.0], 2.0, [0.0, 0.0], terminal=True)
    e = update_trace(learner.trace, tr.phi_t, disc)
    td_step_standard(learner, tr, 0.5, e)
    # delta = r - phi.w = 2 - 1, no bootstrap term: w' = w + 0.5 * 1 * e
    assert learner.weights == pytest.approx([1.5, 1.0])
    # the step keeps e; the trace is reset where the next episode starts
    assert learner.trace is e

    # sarsa_episode starts every episode from a zero trace, whatever the
    # learner holds: a stale trace first, then the last episode's terminal e
    learner = make_learner(8, disc)  # two actions of CartPole's 4 observations
    learner.trace = np.ones(8)
    schedule = make_schedule("constant", 0.1)
    for seed in (0, 1):
        seen = []
        stats = sarsa_episode(
            learner, schedule, CartPole(), lambda obs: obs, 0.1, False, seed,
            CART_EPISODE_CAP, on_step=lambda tr, alpha, e: seen.append((tr.phi_t, e)),
        )
        first_phi, first_e = seen[0]
        assert np.array_equal(first_e, first_phi)  # gamma*lambda*0 + phi_t
        assert stats.terminated and learner.trace is seen[-1][1]
        assert np.any(learner.trace != 0.0)


def test_delta_zero_leaves_both_rules_fixed():
    # engineered so r + gamma*phi'.w - phi.w = 0 and e_prev = 0 (then the
    # implicit bracket matches the standard delta exactly)
    disc = DiscountSpec(gamma=0.5, lam=0.9)
    w0 = np.array([2.0, -1.0])
    phi = np.array([1.0, 1.0])
    phi_next = np.array([2.0, 0.0])
    r = float(phi @ w0 - 0.5 * (phi_next @ w0))  # makes delta = 0
    for step in (td_step_standard, td_step_implicit):
        learner = learner_at(w0, disc)
        step_with_fresh_trace(step, learner, transition(phi, r, phi_next), 1.3)
        assert learner.weights == pytest.approx(w0, abs=1e-14)


def test_divergence_threshold_flags_and_freezes():
    disc = DiscountSpec(gamma=0.999, lam=0.5)
    learner = learner_at([1.0], disc)
    # one huge step pushes past the threshold: flag set, weights kept finite
    tr = transition([1.0], DIVERGENCE_THRESHOLD * 2, [0.0])
    step_with_fresh_trace(td_step_standard, learner, tr, 1.0)
    assert learner.diverged
    frozen = learner.weights.copy()
    # a diverged learner takes no step under either rule
    for step in (td_step_standard, td_step_implicit):
        step_with_fresh_trace(step, learner, transition([1.0], 1.0, [1.0]), 1.0)
        assert np.array_equal(learner.weights, frozen)
        assert learner.max_abs == float(np.max(np.abs(frozen)))  # the pre-step value


def test_max_abs_record_is_a_running_max():
    learner = learner_at([0.0], DiscountSpec(gamma=0.9, lam=0.0))
    step_with_fresh_trace(td_step_standard, learner, transition([1.0], 4.0, [0.0]), 1.0)
    assert learner.weights[0] == learner.max_abs == 4.0
    # a second step brings the weight back down; the record stays up
    step_with_fresh_trace(td_step_standard, learner, transition([1.0], 1.0, [0.0]), 0.5)
    assert learner.weights[0] == 2.5
    assert learner.max_abs == 4.0
    assert not learner.diverged


# values whose max-abs is easy to get wrong: NaN, infinities, signed zeros,
# subnormals, and few enough of them that ties are common
MAX_ABS_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 600),
        elements=st.one_of(st.sampled_from(MAX_ABS_SPECIALS), st.floats(width=64)),
    )
)
def test_abs_max_is_the_maximum_reduce_of_abs_bit_for_bit(w):
    got = abs_max(w)
    want = np.maximum.reduce(np.abs(w))
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).view(np.int64) == want.view(np.int64)


def test_diverged_is_read_only():
    learner = make_learner(1, DiscountSpec(gamma=0.9, lam=0.5))
    with pytest.raises(AttributeError):
        learner.diverged = True
    assert not learner.diverged
    learner.max_abs = NONFINITE_MAX_ABS
    assert learner.diverged


def test_nonfinite_candidate_rejected_state_unchanged():
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    learner = learner_at([1.0], disc)
    learner.weights = np.array([1e308])
    step_with_fresh_trace(td_step_standard, learner, transition([1.0], 0.0, [-1.0]), 1e6)
    assert learner.diverged
    assert learner.weights[0] == 1e308  # candidate was discarded
    assert learner.max_abs == NONFINITE_MAX_ABS
    assert learner.step_count == 0


# finite pre-step weights and inputs whose candidate w' is non-finite under
# both rules: (w0, entering trace, phi_t, phi_next), reward 0, alpha 1
NONFINITE_CANDIDATES = {
    # gamma*phi'.w and phi.w overflow to inf together: inf - inf
    "nan_only": ([1e308], [0.5], [2.0], [2.0]),
    # e.w overflows while w stays finite, so w' = w -/+ inf
    "plus_inf": ([-1e300], [1e-9], [1e10], [0.0]),
    "minus_inf": ([1e300], [1e-9], [1e10], [0.0]),
}


@pytest.mark.parametrize("implicit", [False, True], ids=["standard", "implicit"])
@pytest.mark.parametrize("kind", sorted(NONFINITE_CANDIDATES))
def test_nonfinite_candidate_kinds_rejected_state_unchanged(kind, implicit):
    w0, trace0, phi_t, phi_next = NONFINITE_CANDIDATES[kind]
    disc = DiscountSpec(gamma=0.9, lam=0.5)
    learner = learner_at(w0, disc)
    learner.trace = np.array(trace0)
    tr = transition(phi_t, 0.0, phi_next)
    kernel, step = (implicit_step, td_step_implicit) if implicit else (standard_step, td_step_standard)
    with np.errstate(over="ignore", invalid="ignore"):
        candidate = kernel(
            learner.weights, learner.trace, update_trace(learner.trace, tr.phi_t, disc),
            tr.phi_t, tr.phi_next, tr.reward, 1.0, disc.gamma, disc.trace_decay,
            tr.terminal,
        )
        expected = {"nan_only": [np.nan], "plus_inf": [np.inf], "minus_inf": [-np.inf]}[kind]
        assert np.array_equal(candidate, expected, equal_nan=True)
        weights, trace = learner.weights, learner.trace
        step(learner, tr, 1.0, update_trace(trace, tr.phi_t, disc))
    assert learner.diverged
    assert learner.weights is weights and learner.weights.tolist() == w0
    assert learner.trace is trace and learner.trace.tolist() == trace0
    assert learner.step_count == 0
    assert learner.max_abs == NONFINITE_MAX_ABS


@pytest.mark.parametrize("batch", [1, 2, 8, 33])
@pytest.mark.parametrize("k", [1, 2, 5, 50, 64, 512])
def test_kernels_on_a_stack_equal_their_one_row_calls_bit_for_bit(k, batch):
    # a (B, k) stack with (B, 1) reward and alpha columns, each row scaled by
    # 1e-3, 1 or 1e3 so that rows of very different size share one call
    rng = np.random.default_rng(1000 * k + batch)
    gamma, decay = 0.95, 0.95 * 0.7
    for offset in range(3):
        scale = np.array([(1e-3, 1.0, 1e3)[(i + offset) % 3] for i in range(batch)])[:, None]
        w, e_prev, phi, phi_next = (scale * rng.normal(size=(batch, k)) for _ in range(4))
        e = decay * e_prev + phi
        reward = scale * rng.normal(size=(batch, 1))
        alpha = rng.uniform(1e-3, 2.0, size=(batch, 1))
        for kernel in (standard_step, implicit_step):
            for terminal in (False, True):
                w_new = kernel(
                    w, e_prev, e, phi, phi_next, reward, alpha, gamma, decay, terminal
                )
                assert w_new.shape == (batch, k)
                for i in range(batch):
                    w_row = kernel(
                        w[i], e_prev[i], e[i], phi[i], phi_next[i], float(reward[i, 0]),
                        float(alpha[i, 0]), gamma, decay, terminal,
                    )
                    assert w_new[i].tobytes() == w_row.tobytes(), (kernel.__name__, i)


@pytest.mark.parametrize("k", [0, -1])
def test_learner_needs_a_positive_dimension(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        make_learner(k, DiscountSpec(gamma=0.9, lam=0.5))


def test_alpha_must_be_positive():
    learner = make_learner(1, DiscountSpec(gamma=0.9, lam=0.5))
    with pytest.raises(ValueError):
        step_with_fresh_trace(td_step_standard, learner, transition([1.0], 0.0, [0.0]), 0.0)
    with pytest.raises(ValueError):
        step_with_fresh_trace(td_step_implicit, learner, transition([1.0], 0.0, [0.0]), -0.1)


# --- fixed-point oracle


def test_fixed_point_two_state_cycle_hand_value():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    mrp = FiniteMrp(
        p=p, r=np.array([1.0, 0.0]), xi0=np.array([0.5, 0.5]),
        features=np.eye(2),
    )
    w = td_fixed_point_oracle(mrp, DiscountSpec(gamma=0.5, lam=0.0))
    assert w == pytest.approx([4.0 / 3.0, 2.0 / 3.0])


def test_fixed_point_zero_reward():
    mrp = random_chain_mrp(4, seed=3, reward_scale=0.0)
    w = td_fixed_point_oracle(mrp, DiscountSpec(gamma=0.9, lam=0.5))
    assert w == pytest.approx(np.zeros(4), abs=1e-12)


def with_two_features(mrp, seed):
    """The chain's P, r and xi0 under two seeded features per state. Unlike
    tabular features, two features cannot represent every value function,
    so w* depends on lambda."""
    features = np.random.default_rng(seed).uniform(-1.0, 1.0, (mrp.n_states, 2))
    return FiniteMrp(
        p=mrp.p, r=mrp.r, xi0=mrp.xi0, features=features
    )


def test_fixed_point_lambda_one_is_true_values():
    # at lambda = 1, w* is the D-weighted projection of the true values
    # (Tsitsiklis & Van Roy 1997); with tabular features, the values themselves
    tabular = random_chain_mrp(5, seed=11)
    two_feature = with_two_features(tabular, seed=0)
    for mrp, gamma in ((tabular, 0.9), (two_feature, 0.9), (two_feature, 0.999999)):
        w = td_fixed_point_oracle(mrp, DiscountSpec(gamma=gamma, lam=1.0))
        true_values = np.linalg.solve(np.eye(5) - gamma * mrp.p, mrp.r)
        weighted = stationary_distribution(mrp)[:, None] * mrp.features
        projected = np.linalg.solve(
            weighted.T @ mrp.features, weighted.T @ true_values
        )
        assert np.max(np.abs(w - projected)) <= 1e-9 * np.max(np.abs(projected))


def test_fixed_point_matches_sample_averages():
    # independent cross-check: estimate A = E[e (phi - gamma phi')^T] and
    # b = E[e r] by simulation and solve
    from implicit_td.envs import sample_state_path

    tabular = random_chain_mrp(4, seed=21)
    # the feature seed makes lambda move w* far past the 0.05 tolerance, so
    # the simulation also checks how w* depends on lambda
    two_feature = with_two_features(tabular, seed=172)
    disc = DiscountSpec(gamma=0.7, lam=0.4)
    lambda_zero = td_fixed_point_oracle(two_feature, DiscountSpec(gamma=0.7, lam=0.0))
    assert np.max(np.abs(td_fixed_point_oracle(two_feature, disc) - lambda_zero)) > 0.5

    for mrp in (tabular, two_feature):
        w_star = td_fixed_point_oracle(mrp, disc)
        rng = np.random.default_rng(5)
        n = 400_000
        path = sample_state_path(mrp, n + 1, rng)
        feats = mrp.features
        k = feats.shape[1]
        e = np.zeros(k)
        a_hat = np.zeros((k, k))
        b_hat = np.zeros(k)
        for t in range(n):
            phi = feats[path[t]]
            e = disc.trace_decay * e + phi
            a_hat += np.outer(e, phi - disc.gamma * feats[path[t + 1]])
            b_hat += e * mrp.r[path[t]]
        w_sim = np.linalg.solve(a_hat / n, b_hat / n)
        assert np.max(np.abs(w_sim - w_star)) < 0.05
