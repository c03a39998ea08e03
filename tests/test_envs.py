"""Feature basis, finite chains, and the two control benchmarks."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from implicit_td import envs
from implicit_td.core import DimensionMismatchError
from implicit_td.envs import (
    CartPole,
    FiniteMrp,
    PuddleWorld,
    fourier_features,
    make_fourier_basis,
    random_chain_mrp,
    sample_state_path,
    stationary_distribution,
)

# --- Fourier basis


def test_fourier_1d_endpoints():
    basis = make_fourier_basis(order=3, dims=1)
    assert np.array_equal(fourier_features(basis, np.array([0.0])), [1, 1, 1, 1])
    assert fourier_features(basis, np.array([1.0])) == pytest.approx([1, -1, 1, -1])


def test_fourier_first_feature_constant():
    basis = make_fourier_basis(order=3, dims=2)
    feats = fourier_features(basis, np.array([0.37, 0.91]))
    assert feats.shape == (16,)
    assert feats[0] == 1.0
    assert np.all(np.abs(feats) <= 1.0)


def test_fourier_coefficients_lexicographic():
    basis = make_fourier_basis(order=1, dims=2)
    assert basis.coefficients.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_sizes_are_read_from_the_arrays_and_cannot_be_passed():
    # dims is the coefficients' column count and n_states P's row count, so
    # neither can disagree with the arrays it describes
    basis = make_fourier_basis(order=2, dims=3)
    assert (basis.dims, basis.k) == (3, 27)
    assert random_chain_mrp(6, seed=0).n_states == 6
    with pytest.raises(TypeError):
        envs.FourierBasis(coefficients=basis.coefficients, dims=3)
    with pytest.raises(TypeError):
        FiniteMrp(
            p=np.full((2, 2), 0.5), r=np.zeros(2), xi0=np.full(2, 0.5), features=np.eye(2),
            n_states=2,
        )


@pytest.mark.parametrize(
    "order,dims,match", [(-1, 2, "order must be >= 0"), (3, 0, "dims must be >= 1")]
)
def test_fourier_basis_rejects_a_bad_order_or_dimension(order, dims, match):
    with pytest.raises(ValueError, match=match):
        make_fourier_basis(order, dims)


def test_fourier_dimension_mismatch():
    basis = make_fourier_basis(order=2, dims=2)
    with pytest.raises(DimensionMismatchError):
        fourier_features(basis, np.array([0.5]))


def test_fourier_midpoint_values():
    basis = make_fourier_basis(order=3, dims=1)
    assert fourier_features(basis, np.array([0.5])) == pytest.approx(
        [1.0, 0.0, -1.0, 0.0], abs=1e-12
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data(), st.sampled_from([2, 4]), st.integers(0, 5))
def test_fourier_features_are_cos_of_pi_times_the_dot_bit_for_bit(data, dims, order):
    basis = make_fourier_basis(order=order, dims=dims)
    s = data.draw(hnp.arrays(np.float64, dims, elements=st.floats(0.0, 1.0)))
    got = fourier_features(basis, s)
    want = np.cos(np.pi * basis.coefficients.dot(s))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --- finite MRPs


def test_random_chain_deterministic_and_stochastic():
    a = random_chain_mrp(4, seed=99)
    b = random_chain_mrp(4, seed=99)
    assert np.array_equal(a.p, b.p) and np.array_equal(a.r, b.r)
    assert a.p.sum(axis=1) == pytest.approx(np.ones(4))
    assert np.all(a.p > 0.0)
    assert np.array_equal(a.features, np.eye(4))


def test_stationary_distribution_two_oracles():
    mrp = random_chain_mrp(5, seed=7)
    xi = stationary_distribution(mrp)
    assert xi.sum() == pytest.approx(1.0)
    # power iteration as the second, independent computation
    v = np.full(5, 0.2)
    for _ in range(10_000):
        v = v @ mrp.p
    assert xi == pytest.approx(v, abs=1e-10)


def test_reducible_chain_rejected():
    p = np.array([[1.0, 0.0], [0.5, 0.5]])  # state 0 absorbs
    with pytest.raises(ValueError):
        FiniteMrp(
            p=p,
            r=np.zeros(2),
            xi0=np.array([0.5, 0.5]),
            features=np.eye(2),
        )


# one field of a valid two-state chain replaced, and the check it trips
MALFORMED_MRPS = {
    "p_shape": (dict(p=np.full((2, 3), 1 / 3)), "P must be 2x2"),
    # n_states is P's row count; a P that is not 2-D is still refused
    "p_1d": (dict(p=np.full(2, 0.5)), r"P must be 2x2, got \(2,\)"),
    "p_0d": (dict(p=np.array(1.0)), r"P must be 0x0, got \(\)"),
    "r_length": (dict(r=np.zeros(3)), "r and xi0 must have length"),
    "xi0_length": (dict(xi0=np.full(3, 1 / 3)), "r and xi0 must have length"),
    "features_1d": (dict(features=np.ones(2)), "features must be an n_states x k"),
    "features_rows": (dict(features=np.eye(3)), "features must be an n_states x k"),
    "negative_p": (dict(p=np.array([[1.5, -0.5], [0.5, 0.5]])), "must be nonnegative"),
    "negative_xi0": (dict(xi0=np.array([1.5, -0.5])), "must be nonnegative"),
    "p_row_sum": (dict(p=np.array([[0.5, 0.4], [0.5, 0.5]])), "each row of P must sum to 1"),
    "xi0_sum": (dict(xi0=np.array([0.5, 0.4])), "xi0 must sum to 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MRPS))
def test_malformed_mrp_rejected(case):
    override, match = MALFORMED_MRPS[case]
    valid = dict(p=np.full((2, 2), 0.5), r=np.zeros(2), xi0=np.full(2, 0.5), features=np.eye(2))
    FiniteMrp(**valid)
    with pytest.raises(ValueError, match=match):
        FiniteMrp(**{**valid, **override})


@pytest.mark.parametrize("scale", [2.5, 1e-300, 0.0])
def test_a_negative_reward_scale_mirrors_the_rewards(scale):
    # numpy's uniform refuses a range whose high is below its low
    plain, mirrored = (random_chain_mrp(5, seed=11, reward_scale=s) for s in (scale, -scale))
    assert np.array_equal(mirrored.p, plain.p)
    assert np.array_equal(mirrored.r, -plain.r)
    assert np.all(np.abs(plain.r) <= scale)


def test_random_chain_needs_two_states():
    with pytest.raises(ValueError, match="n_states must be >= 2"):
        random_chain_mrp(1, seed=0)


def test_periodic_but_irreducible_chain_accepted():
    # deterministic 2-cycle; period 2 is fine, only reducibility is fatal
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    mrp = FiniteMrp(
        p=p, r=np.array([1.0, 0.0]), xi0=np.array([0.5, 0.5]),
        features=np.eye(2),
    )
    assert stationary_distribution(mrp) == pytest.approx([0.5, 0.5])


def _mrp_on(p):
    n = p.shape[0]
    return FiniteMrp(
        p=p, r=np.zeros(n), xi0=np.full(n, 1.0 / n), features=np.ones((n, 1))
    )


@pytest.mark.parametrize(
    "p",
    [
        # 0 reaches every state, but absorbing state 2 reaches no other
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        # every state reaches 0, but 0 never reaches state 2
        np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]),
    ],
)
def test_chain_unreachable_in_one_direction_rejected(p):
    with pytest.raises(ValueError, match="strongly connected"):
        _mrp_on(p)


def test_strong_connectivity_agrees_with_scipy_on_random_graphs():
    # n = 1 included: a lone state is strongly connected, with or without its self-loop
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(2024)
    checked_mrps = 0
    for n in range(1, 13):
        for density in np.linspace(0.0, 1.0, 11):
            for _ in range(25):
                edges = rng.random((n, n)) < density
                # self-loops drawn on their own, so sparse graphs have them too
                np.fill_diagonal(edges, rng.random(n) < 0.5)
                n_comp, _ = csgraph.connected_components(
                    edges, directed=True, connection="strong"
                )
                expected = n_comp == 1
                assert envs._strongly_connected(edges) == expected, edges
                out_degree = edges.sum(axis=1, keepdims=True)
                if np.all(out_degree > 0):
                    # P is row-stochastic with exactly these edges
                    p = edges / out_degree
                    checked_mrps += 1
                    if expected:
                        _mrp_on(p)
                    else:
                        with pytest.raises(ValueError, match="strongly connected"):
                            _mrp_on(p)
    assert checked_mrps > 1000


def test_large_ring_accepted_and_cut_ring_rejected():
    # a ring is the slowest case: the search takes one step per state
    n = 2000
    p = np.zeros((n, n))
    p[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    start = time.perf_counter()
    _mrp_on(p)
    assert time.perf_counter() - start < 1.0
    p[n - 1] = 0.0
    p[n - 1, n - 1] = 1.0  # state n-1 now absorbs: the ring is cut
    with pytest.raises(ValueError, match="strongly connected"):
        _mrp_on(p)


def test_mrp_episode_horizon_and_determinism():
    mrp = random_chain_mrp(3, seed=1)
    assert len(sample_state_path(mrp, 1, np.random.default_rng(0))) == 1
    a = sample_state_path(mrp, 21, np.random.default_rng(5))
    b = sample_state_path(mrp, 21, np.random.default_rng(5))
    assert len(a) == 21
    assert np.array_equal(a, b)


def test_mrp_episode_cycle_alternates():
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    mrp = FiniteMrp(
        p=p, r=np.array([1.0, 0.0]), xi0=np.array([1.0, 0.0]),
        features=np.eye(2),
    )
    path = sample_state_path(mrp, 7, np.random.default_rng(3))
    for i in range(6):
        state = i % 2
        assert mrp.features[path[i]][state] == 1.0
        assert mrp.features[path[i + 1]][1 - state] == 1.0
        assert mrp.r[path[i]] == mrp.r[state]


def _searchsorted_path(mrp, length, rng):
    """Reference walk: one np.searchsorted call per state over one big draw."""
    cdf = np.cumsum(mrp.p, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(length)
    path = np.empty(length, dtype=np.int64)
    path[0] = int(np.searchsorted(np.cumsum(mrp.xi0), u[0], side="right"))
    s = path[0]
    for t in range(1, length):
        s = int(np.searchsorted(cdf[s], u[t], side="right"))
        path[t] = s
    return path


def _two_cycle():
    return FiniteMrp(
        p=np.array([[0.0, 1.0], [1.0, 0.0]]), r=np.array([1.0, 0.0]),
        xi0=np.array([0.5, 0.5]), features=np.eye(2),
    )


@pytest.mark.parametrize("n", [2, 5, 50])
def test_bisect_walk_equals_searchsorted_walk(n):
    mrp = random_chain_mrp(n, seed=n)
    for seed in range(3):
        got = sample_state_path(mrp, 5000, np.random.default_rng(seed))
        ref = _searchsorted_path(mrp, 5000, np.random.default_rng(seed))
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)


def test_bisect_walk_equals_searchsorted_walk_on_the_cycle():
    # the cycle's CDF rows are [0, 1] and [1, 1]: repeated values
    mrp = _two_cycle()
    got = sample_state_path(mrp, 501, np.random.default_rng(8))
    assert np.array_equal(got, _searchsorted_path(mrp, 501, np.random.default_rng(8)))


class _StubRng:
    """Hands out a fixed sequence of uniforms, rng.random(n) style."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out)


def test_bisect_walk_breaks_cdf_ties_like_searchsorted():
    # zero-probability states repeat CDF values; every uniform below is
    # exactly one of the CDF entries, so each lookup is a tie
    p = np.array([
        [0.25, 0.0, 0.5, 0.25],
        [0.0, 0.0, 0.5, 0.5],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    mrp = FiniteMrp(
        p=p, r=np.zeros(4), xi0=np.array([0.5, 0.0, 0.5, 0.0]),
        features=np.eye(4),
    )
    ties = sorted({0.0, *np.cumsum(p, axis=1).ravel(), *np.cumsum(mrp.xi0)} - {1.0})
    uniforms = [ties[(7 * i) % len(ties)] for i in range(200)]
    got = sample_state_path(mrp, 200, _StubRng(uniforms))
    assert np.array_equal(got, _searchsorted_path(mrp, 200, _StubRng(uniforms)))
    assert len(set(got.tolist())) == 4


@pytest.mark.parametrize("mrp", [random_chain_mrp(5, seed=3), _two_cycle()], ids=["chain", "cycle"])
@pytest.mark.parametrize("cuts", [(1,), (1, 1000), (7, 8, 300), (999, 1000)])
def test_continued_calls_equal_one_call(mrp, cuts):
    whole = sample_state_path(mrp, 1500, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    parts = [sample_state_path(mrp, cuts[0], rng)]
    for lo, hi in zip(cuts, (*cuts[1:], 1500)):
        parts.append(sample_state_path(mrp, hi - lo, rng, start=int(parts[-1][-1])))
    assert np.array_equal(np.concatenate(parts), whole)


def test_zero_length_path_is_empty_and_negative_is_rejected():
    mrp = random_chain_mrp(3, seed=1)
    rng = np.random.default_rng(0)
    path = sample_state_path(mrp, 0, rng)
    assert path.shape == (0,) and path.dtype == np.int64
    assert len(sample_state_path(mrp, 0, rng, start=2)) == 0
    with pytest.raises(ValueError):
        sample_state_path(mrp, -1, rng)
    with pytest.raises(ValueError):
        sample_state_path(mrp, 5, rng, start=3)


def test_state_path_frequencies_match_stationary():
    mrp = random_chain_mrp(5, seed=42)
    path = sample_state_path(mrp, 100_000, np.random.default_rng(17))
    xi = stationary_distribution(mrp)
    freq = np.bincount(path, minlength=5) / path.shape[0]
    assert 0.5 * np.sum(np.abs(freq - xi)) < 0.01


# --- puddle world


def test_puddle_depth_hand_values():
    env = PuddleWorld()
    assert env.puddle_depth(0.2, 0.75) == pytest.approx(0.1)  # on axis 1
    assert env.puddle_depth(0.45, 0.6) == pytest.approx(0.1)  # on axis 2
    assert env.puddle_depth(0.2, 0.80) == pytest.approx(0.05)
    assert env.puddle_depth(0.9, 0.1) == 0.0


def test_puddle_step_reward_matches_depth():
    env = PuddleWorld()
    env.reset(seed=4)
    obs, reward, done = env.step(3)
    if not done:
        x, y = obs
        assert reward == pytest.approx(-1.0 - 400.0 * env.puddle_depth(x, y))


def test_puddle_clean_step_costs_exactly_one():
    env = PuddleWorld()
    env.reset(seed=0)
    env._x, env._y = 0.9, 0.1  # far from both puddles, outside the goal
    obs, reward, done = env.step(1)
    assert reward == -1.0
    assert not done


def test_puddle_goal_terminates_with_zero_reward():
    env = PuddleWorld()
    env.reset(seed=0)
    env._x, env._y = 0.95, 0.95
    obs, reward, done = env.step(0)
    assert done and reward == 0.0
    with pytest.raises(RuntimeError):
        env.step(0)


@pytest.mark.parametrize(
    "env,action,match",
    [(PuddleWorld(), 4, r"action must be in \[0, 4\), got 4"),
     (CartPole(), 2, "action must be 0 or 1, got 2")],
    ids=["puddle_world", "cart_pole"],
)
def test_out_of_range_action_rejected(env, action, match):
    env.reset(seed=0)
    with pytest.raises(ValueError, match=match):
        env.step(action)


def test_puddle_seeded_trajectories_identical():
    def run(seed):
        env = PuddleWorld()
        env.reset(seed)
        out = []
        for i in range(30):
            obs, reward, done = env.step(i % 4)
            out.append((tuple(obs), reward, done))
            if done:
                break
        return out

    assert run(123) == run(123)
    assert run(123) != run(124)


def test_clip_unit_equals_builtin_min_max_bit_for_bit():
    rng = np.random.default_rng(0)
    values = [
        math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
        math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1.7976931348623157e308,
        *rng.uniform(-0.5, 1.5, 200).tolist(),
    ]
    for v in values:
        expected = min(1.0, max(0.0, v))
        assert envs._clip_unit(v).hex() == expected.hex()


def test_puddle_positions_stay_in_unit_square():
    env = PuddleWorld()
    rng = np.random.default_rng(0)
    obs = env.reset(seed=8)
    for _ in range(200):
        obs, _, done = env.step(int(rng.integers(4)))
        assert 0.0 <= obs[0] <= 1.0 and 0.0 <= obs[1] <= 1.0
        if done:
            obs = env.reset(seed=9)


class _PerStepNoisePuddleWorld(PuddleWorld):
    """Reference: puddle world drawing its noise with one normal(size=2)
    call per step, and the capsule distance computed from the corner
    points on every call."""

    def puddle_depth(self, x, y):
        depth = 0.0
        for ax, ay, bx, by in envs.PUDDLE_CAPSULES:
            vx, vy = bx - ax, by - ay
            t = ((x - ax) * vx + (y - ay) * vy) / (vx * vx + vy * vy)
            t = min(1.0, max(0.0, t))
            dx, dy = x - (ax + t * vx), y - (ay + t * vy)
            d = envs.PUDDLE_RADIUS - math.hypot(dx, dy)
            if d > depth:
                depth = d
        return depth

    def step(self, action):
        if self.done:
            raise RuntimeError("step() called on a finished episode; reset first")
        m = envs.PUDDLE_MOVE
        dx, dy = ((0.0, m), (0.0, -m), (-m, 0.0), (m, 0.0))[action]
        nx, ny = self._rng.normal(0.0, envs.PUDDLE_NOISE_SIGMA, size=2)
        self._x = min(1.0, max(0.0, self._x + dx + float(nx)))
        self._y = min(1.0, max(0.0, self._y + dy + float(ny)))
        self._steps += 1
        if self._x + self._y >= envs.PUDDLE_GOAL_THRESHOLD:
            self.done = True
            return np.array([self._x, self._y]), 0.0, True
        reward = -1.0 - envs.PUDDLE_PENALTY_SCALE * self.puddle_depth(self._x, self._y)
        if self._steps >= envs.PUDDLE_EPISODE_CAP:
            self.done = True
        return np.array([self._x, self._y]), reward, self.done


def _puddle_pair(seed):
    env, ref = PuddleWorld(), _PerStepNoisePuddleWorld()
    assert env.reset(seed).tobytes() == ref.reset(seed).tobytes()
    return env, ref


def _step_both(env, ref, actions):
    """Step both worlds until done or out of actions, asserting bitwise
    equal (obs, reward, done) on every step; returns (steps, rewards, done)."""
    rewards = []
    done = False
    for action in actions:
        obs, reward, done = env.step(action)
        ref_obs, ref_reward, ref_done = ref.step(action)
        assert obs.tobytes() == ref_obs.tobytes()
        assert float(reward).hex() == float(ref_reward).hex()
        assert done is ref_done
        rewards.append(reward)
        if done:
            break
    return len(rewards), rewards, done


def test_block_noise_equals_per_step_noise_over_full_episodes():
    rng = np.random.default_rng(31)
    rewards = []
    for seed in range(10):
        env, ref = _puddle_pair(seed)
        # biased toward up/right so that the episodes reach the goal
        actions = rng.choice(4, size=envs.PUDDLE_EPISODE_CAP, p=[0.35, 0.15, 0.15, 0.35])
        steps, episode_rewards, done = _step_both(env, ref, actions.tolist())
        assert done
        rewards += episode_rewards
    assert min(rewards) < -1.0  # some steps end inside a puddle


def test_block_noise_equals_per_step_noise_on_a_capped_episode():
    env, ref = _puddle_pair(5)
    # down and left pin the walker to the corner far from the goal
    steps, rewards, done = _step_both(env, ref, [1, 2] * envs.PUDDLE_EPISODE_CAP)
    assert (steps, done) == (envs.PUDDLE_EPISODE_CAP, True)
    assert rewards[-1] == -1.0
    with pytest.raises(RuntimeError):
        env.step(0)


def test_block_noise_equals_per_step_noise_on_a_goal_episode():
    env, ref = _puddle_pair(2)
    steps, rewards, done = _step_both(env, ref, [0, 3] * envs.PUDDLE_EPISODE_CAP)
    assert done and rewards[-1] == 0.0 and steps < envs.PUDDLE_EPISODE_CAP


@pytest.mark.parametrize("cut", [1, 31, 32, 33, 45])
def test_block_noise_equals_per_step_noise_across_a_mid_block_reset(cut):
    env, ref = _puddle_pair(11)
    rng = np.random.default_rng(cut)
    _step_both(env, ref, rng.integers(4, size=cut).tolist())
    assert env._steps == cut  # still inside the episode
    assert env.reset(12).tobytes() == ref.reset(12).tobytes()
    steps, _, done = _step_both(env, ref, rng.integers(4, size=envs.PUDDLE_EPISODE_CAP).tolist())
    assert done


# --- cart-pole


def _integrate_cartpole(substeps, n_steps):
    # independent re-derivation of the dynamics, Euler at dt/substeps
    def accel(s, force):
        x, xd, th, thd = s
        total = envs.CART_MASS + envs.CART_POLE_MASS
        pole_ml = envs.CART_POLE_MASS * envs.CART_POLE_HALF_LENGTH
        sin, cos = math.sin(th), math.cos(th)
        temp = (force + pole_ml * thd * thd * sin) / total
        th_acc = (envs.CART_GRAVITY * sin - cos * temp) / (
            envs.CART_POLE_HALF_LENGTH * (4.0 / 3.0 - envs.CART_POLE_MASS * cos * cos / total)
        )
        return temp - pole_ml * th_acc * cos / total, th_acc

    s = (0.0, 0.0, 0.0, 0.0)
    h = envs.CART_DT / substeps
    for i in range(n_steps):
        force = envs.CART_FORCE if i % 2 == 1 else -envs.CART_FORCE
        for _ in range(substeps):
            x, xd, th, thd = s
            x_acc, th_acc = accel(s, force)
            s = (x + h * xd, xd + h * x_acc, th + h * thd, thd + h * th_acc)
    return s


def test_cartpole_matches_fine_integration():
    # drive the env with alternating forces from the zero state and compare
    # against a reimplementation of the dynamics at two resolutions
    env = CartPole()
    env.reset(seed=1)
    env._s = (0.0, 0.0, 0.0, 0.0)
    for i in range(20):
        _, _, done = env.step(i % 2)
        assert not done
    x, _, th, _ = env._s
    assert abs(th) < envs.CART_THETA_LIMIT

    # at matching resolution the trajectories must agree exactly
    same = _integrate_cartpole(substeps=1, n_steps=20)
    assert env._s == pytest.approx(same, abs=1e-12)

    # against a 20x finer grid only discretization error remains
    fine = _integrate_cartpole(substeps=20, n_steps=20)
    assert th == pytest.approx(fine[2], abs=0.02)
    assert x == pytest.approx(fine[0], abs=0.02)


def test_cartpole_angle_failure_sets_done():
    env = CartPole()
    env.reset(seed=0)
    env._s = (0.0, 0.0, 0.20, 2.0)  # past 12 degrees after one step
    obs, reward, done = env.step(1)
    assert done and reward == 0.0
    with pytest.raises(RuntimeError):
        env.step(0)


def test_cartpole_surviving_step_rewards_one():
    env = CartPole()
    env.reset(seed=3)
    _, reward, done = env.step(0)
    assert reward == 1.0 and not done


def test_cartpole_seeded_reset_deterministic():
    a = CartPole().reset(seed=11)
    b = CartPole().reset(seed=11)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, CartPole().reset(seed=12))


def test_cartpole_observation_in_unit_box():
    env = CartPole()
    obs = env.reset(seed=2)
    for _ in range(100):
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
        obs, _, done = env.step(1)
        if done:
            break
