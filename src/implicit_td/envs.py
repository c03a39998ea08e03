"""Finite MRPs with exact solvers' inputs, two control benchmarks, Fourier features.

The finite MRP type carries everything the fixed-point oracle needs (P, r,
features, initial distribution) and validates stochasticity and strong
connectivity on construction. Periodic chains are accepted on purpose: every
quantity computed downstream (stationary distribution, TD fixed point,
long-run sample averages) only needs irreducibility, and the deterministic
two-state cycle used as a hand-checkable test bed has period 2.

The two benchmark environments are small mutable state machines with a
shared interface: `reset(seed) -> obs`, `step(action) -> (obs, reward,
done)`, observations already normalized to the unit box so they can go
straight into `fourier_features`. Their physical constants are the module
constants PUDDLE_* and CART_*; `done` is also set when an episode reaches
its step cap.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .core import DimensionMismatchError


# ---------------------------------------------------------------------------
# Fourier basis


@dataclass(frozen=True, slots=True)
class FourierBasis:
    """All (order+1)^dims cosine features cos(pi * c . s) over [0,1]^dims.

    dims is the coefficients' column count, set once here: fourier_features
    reads it on every call."""

    coefficients: np.ndarray  # shape (k, dims), float for fast matvec
    dims: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", self.coefficients.shape[1])

    @property
    def k(self) -> int:
        return self.coefficients.shape[0]


def make_fourier_basis(order: int, dims: int) -> FourierBasis:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    coeffs = np.array(
        list(itertools.product(range(order + 1), repeat=dims)), dtype=np.float64
    )
    return FourierBasis(coeffs)


# pi as a read-only 0-d array: an array times it skips the conversion that a
# Python-float operand costs on every call
_PI = np.array(np.pi)
_PI.flags.writeable = False


def fourier_features(basis: FourierBasis, s: np.ndarray) -> np.ndarray:
    """Featurize one point of the unit box. Caller clamps; here we only check."""
    if s.shape != (basis.dims,):
        raise DimensionMismatchError(
            f"expected point of shape ({basis.dims},), got {s.shape}"
        )
    z = basis.coefficients.dot(s)  # fresh array: scale and take the cosine in place
    z *= _PI
    return np.cos(z, out=z)


# ---------------------------------------------------------------------------
# Finite Markov reward processes


@dataclass(frozen=True, slots=True)
class FiniteMrp:
    """A finite MRP: row-stochastic P, per-state rewards, features, start dist.

    Validation requires strong connectivity of the transition graph (edges
    where P > 0) so the stationary distribution is unique. It is checked by
    two breadth-first searches from state 0, one along the edges and one
    against them: the graph is strongly connected exactly when both reach
    every state. n_states is P's row count, set here; cdf_rows, set after
    validation, holds the running sums of P's rows and of xi0, each ending
    at 1.0: the inverse-CDF rows sample_state_path reads.
    """

    p: np.ndarray
    r: np.ndarray
    xi0: np.ndarray
    features: np.ndarray
    n_states: int = field(init=False)
    cdf_rows: list[list[float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.p.shape[0] if self.p.ndim else 0  # a 0-d P fails as 0x0
        if self.p.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {self.p.shape}")
        object.__setattr__(self, "n_states", n)
        if self.r.shape != (n,) or self.xi0.shape != (n,):
            raise ValueError("r and xi0 must have length n_states")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("features must be an n_states x k matrix")
        if np.any(self.p < 0.0) or np.any(self.xi0 < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if not np.allclose(self.p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("each row of P must sum to 1 within 1e-12")
        if not math.isclose(float(self.xi0.sum()), 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("xi0 must sum to 1")
        if not _strongly_connected(self.p > 0.0):
            raise ValueError("transition graph must be strongly connected")
        cdf = np.cumsum(np.vstack([self.p, self.xi0]), axis=1)
        cdf[:, -1] = 1.0
        object.__setattr__(self, "cdf_rows", cdf.tolist())


def _strongly_connected(edges: np.ndarray) -> bool:
    """Whether state 0 reaches every state along `edges` and along `edges.T`."""
    for adj in (edges, edges.T):
        seen = np.zeros(adj.shape[0], dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            # each state enters the frontier once, so adj is read once in all
            frontier = adj[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def random_chain_mrp(n_states: int, seed: int, reward_scale: float = 1.0) -> FiniteMrp:
    """Seeded dense random chain: all transition entries positive, tabular features."""
    if n_states < 2:
        raise ValueError(f"n_states must be >= 2, got {n_states}")
    rng = np.random.default_rng(seed)
    raw = rng.random((n_states, n_states))
    p = raw / raw.sum(axis=1, keepdims=True)
    # numpy refuses a range whose high is below its low (-0.0 below 0.0
    # too), so a negative scale draws the rewards of |scale| and mirrors them
    r = rng.uniform(-abs(reward_scale), abs(reward_scale), size=n_states)
    if reward_scale < 0.0:
        r = -r
    xi0 = np.full(n_states, 1.0 / n_states)
    return FiniteMrp(p=p, r=r, xi0=xi0, features=np.eye(n_states))


def stationary_distribution(mrp: FiniteMrp) -> np.ndarray:
    """Unique xi with xi P = xi, by replacing one balance equation with sum=1."""
    n = mrp.n_states
    a = mrp.p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    xi = np.linalg.solve(a, b)
    # irreducibility makes xi positive; clip float dust from the solve
    return np.clip(xi, 0.0, None) / xi.sum()


def sample_state_path(
    mrp: FiniteMrp, length: int, rng: np.random.Generator, start: int | None = None
) -> np.ndarray:
    """The next `length` states of a path, from one rng.random(length) draw.

    Each state is the inverse CDF of its predecessor's row of P at one
    uniform: bisect_right over the row as a list, the same index that
    searchsorted(side="right") gives. The first state's predecessor is
    `start`; without it the first state is drawn from xi0.

    Continuation: PCG64 does not buffer doubles, so a call with
    start=path[-1] on the same generator returns exactly the states that
    one longer call would have returned after `path`. A path can therefore
    be drawn block by block, as far as it is used.
    """
    n = mrp.n_states
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if start is not None and not 0 <= start < n:
        raise ValueError(f"start must lie in [0, {n}), got {start}")
    rows = mrp.cdf_rows  # row n is xi0, the predecessor row of a path's first state
    s = n if start is None else start
    path = [s := bisect_right(rows[s], u) for u in rng.random(length).tolist()]
    return np.array(path, dtype=np.int64)


# ---------------------------------------------------------------------------
# Benchmark environments


class DiscreteActionEnv(Protocol):
    n_actions: int
    obs_dim: int

    def reset(self, seed: int) -> np.ndarray: ...

    def step(self, action: int) -> tuple[np.ndarray, float, bool]: ...


def _clip_unit(v: float) -> float:
    """min(1.0, max(0.0, v)) bit for bit, NaN included, without two builtin calls."""
    return 1.0 if v >= 1.0 else (v if v > 0.0 else 0.0)


PUDDLE_MOVE = 0.05
PUDDLE_NOISE_SIGMA = 0.01
PUDDLE_RADIUS = 0.1
PUDDLE_PENALTY_SCALE = 400.0
PUDDLE_GOAL_THRESHOLD = 1.8  # terminate when x + y >= this
PUDDLE_EPISODE_CAP = 1000
# capsule axes as (ax, ay, bx, by)
PUDDLE_CAPSULES = (
    (0.10, 0.75, 0.45, 0.75),
    (0.45, 0.40, 0.45, 0.80),
)
# each capsule as (ax, ay, vx, vy, |v|^2) with v = b - a
_PUDDLE_AXES = tuple(
    (ax, ay, bx - ax, by - ay, (bx - ax) * (bx - ax) + (by - ay) * (by - ay))
    for ax, ay, bx, by in PUDDLE_CAPSULES
)
# noise rows drawn per Generator call; any size gives the same draws. Half
# of a default cell's episodes end within 24 steps, and a 32-row draw costs
# about two single-row draws.
_PUDDLE_NOISE_BLOCK = 32
# (dx, dy) of actions up, down, left, right
_PUDDLE_MOVES = (
    (0.0, PUDDLE_MOVE), (0.0, -PUDDLE_MOVE), (-PUDDLE_MOVE, 0.0), (PUDDLE_MOVE, 0.0)
)


class PuddleWorld:
    """2-D navigation with two capsule-shaped puddles and a corner goal.

    Actions 0..3 move up/down/left/right by PUDDLE_MOVE plus Gaussian noise
    on both coordinates, clamped to the unit square. Each step costs -1 plus
    PUDDLE_PENALTY_SCALE times the deepest puddle intrusion; the step that
    lands in the goal region contributes 0 and ends the episode.

    The noise comes from the generator seeded by `reset`, drawn
    _PUDDLE_NOISE_BLOCK steps at a time as one normal(size=(n, 2)) call:
    the Generator draws one normal after another, so each step gets the
    pair a per-step normal(size=2) call would have returned. Rows drawn
    past the end of an episode are never read, and nothing else reads the
    generator after the start state.
    """

    n_actions = 4
    obs_dim = 2

    def __init__(self) -> None:
        self._x = 0.0
        self._y = 0.0
        self._rng: np.random.Generator | None = None
        self._noise: list[list[float]] = []
        self._steps = 0
        self.done = True

    def reset(self, seed: int) -> np.ndarray:
        self._rng = np.random.default_rng(seed)
        while True:
            x, y = self._rng.random(2)
            if x + y < PUDDLE_GOAL_THRESHOLD:
                break
        self._x, self._y = float(x), float(y)
        self._steps = 0
        self.done = False
        return np.array([self._x, self._y])

    def puddle_depth(self, x: float, y: float) -> float:
        depth = 0.0
        for ax, ay, vx, vy, v_sq in _PUDDLE_AXES:
            # distance from (x, y) to the nearest point of segment a + t*v
            t = ((x - ax) * vx + (y - ay) * vy) / v_sq
            t = _clip_unit(t)
            d = PUDDLE_RADIUS - math.hypot(x - (ax + t * vx), y - (ay + t * vy))
            if d > depth:
                depth = d
        return depth

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        if self.done:
            raise RuntimeError("step() called on a finished episode; reset first")
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action must be in [0, {self.n_actions}), got {action}")
        dx, dy = _PUDDLE_MOVES[action]
        steps = self._steps
        row = steps % _PUDDLE_NOISE_BLOCK
        if row == 0:
            assert self._rng is not None
            self._noise = self._rng.normal(
                0.0, PUDDLE_NOISE_SIGMA, size=(_PUDDLE_NOISE_BLOCK, 2)
            ).tolist()
        nx, ny = self._noise[row]
        x = self._x = _clip_unit(self._x + dx + nx)
        y = self._y = _clip_unit(self._y + dy + ny)
        self._steps = steps = steps + 1
        obs = np.array([x, y])
        if x + y >= PUDDLE_GOAL_THRESHOLD:
            self.done = True
            return obs, 0.0, True
        reward = -1.0 - PUDDLE_PENALTY_SCALE * self.puddle_depth(x, y)
        done = self.done = steps >= PUDDLE_EPISODE_CAP
        return obs, reward, done


CART_GRAVITY = 9.8
CART_MASS = 1.0
CART_POLE_MASS = 0.1
CART_POLE_HALF_LENGTH = 0.5
CART_FORCE = 10.0
CART_DT = 0.02
CART_X_LIMIT = 2.4
CART_THETA_LIMIT = 12.0 * math.pi / 180.0
# velocity box used only for observation normalization
CART_XDOT_LIMIT = 3.0
CART_THETADOT_LIMIT = 3.5
CART_EPISODE_CAP = 3000
CART_RESET_SPREAD = 0.05
_CART_TOTAL_MASS = CART_MASS + CART_POLE_MASS
_CART_POLE_ML = CART_POLE_MASS * CART_POLE_HALF_LENGTH
# observation box per coordinate: lower bound and width hi - lo
_CART_X_LO, _CART_XDOT_LO, _CART_THETA_LO, _CART_THETADOT_LO = (
    -CART_X_LIMIT, -CART_XDOT_LIMIT, -CART_THETA_LIMIT, -CART_THETADOT_LIMIT
)
_CART_X_SPAN = CART_X_LIMIT - _CART_X_LO
_CART_XDOT_SPAN = CART_XDOT_LIMIT - _CART_XDOT_LO
_CART_THETA_SPAN = CART_THETA_LIMIT - _CART_THETA_LO
_CART_THETADOT_SPAN = CART_THETADOT_LIMIT - _CART_THETADOT_LO


def _cart_obs(x: float, xd: float, th: float, thd: float) -> np.ndarray:
    return np.array(
        [
            _clip_unit((x - _CART_X_LO) / _CART_X_SPAN),
            _clip_unit((xd - _CART_XDOT_LO) / _CART_XDOT_SPAN),
            _clip_unit((th - _CART_THETA_LO) / _CART_THETA_SPAN),
            _clip_unit((thd - _CART_THETADOT_LO) / _CART_THETADOT_SPAN),
        ]
    )


class CartPole:
    """Classic pole balancing, Euler-integrated, +1 per surviving step.

    Observations are (x, xdot, theta, thetadot) mapped affinely into [0,1]^4
    by the position/angle failure bounds and the velocity normalization box;
    velocities outside the box clip.
    """

    n_actions = 2
    obs_dim = 4

    def __init__(self) -> None:
        self._s = (0.0, 0.0, 0.0, 0.0)
        self._steps = 0
        self.done = True

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        start = rng.uniform(-CART_RESET_SPREAD, CART_RESET_SPREAD, size=4)
        self._s = tuple(float(v) for v in start)
        self._steps = 0
        self.done = False
        return _cart_obs(*self._s)

    def step(self, action: int) -> tuple[np.ndarray, float, bool]:
        if self.done:
            raise RuntimeError("step() called on a finished episode; reset first")
        if action not in (0, 1):
            raise ValueError(f"action must be 0 or 1, got {action}")
        x, xd, th, thd = self._s
        force = CART_FORCE if action == 1 else -CART_FORCE
        total_mass = _CART_TOTAL_MASS
        pole_ml = _CART_POLE_ML
        sin_th, cos_th = math.sin(th), math.cos(th)
        temp = (force + pole_ml * thd * thd * sin_th) / total_mass
        th_acc = (CART_GRAVITY * sin_th - cos_th * temp) / (
            CART_POLE_HALF_LENGTH
            * (4.0 / 3.0 - CART_POLE_MASS * cos_th * cos_th / total_mass)
        )
        x_acc = temp - pole_ml * th_acc * cos_th / total_mass
        x += CART_DT * xd
        xd += CART_DT * x_acc
        th += CART_DT * thd
        thd += CART_DT * th_acc
        self._s = (x, xd, th, thd)
        self._steps = steps = self._steps + 1
        obs = _cart_obs(x, xd, th, thd)
        if abs(x) > CART_X_LIMIT or abs(th) > CART_THETA_LIMIT:
            self.done = True
            return obs, 0.0, True
        done = self.done = steps >= CART_EPISODE_CAP
        return obs, 1.0, done
