"""Standard and implicit TD(lambda) update rules and the TD fixed-point oracle.

Both learners keep (weights, trace) where the stored trace is the one
*entering* the next update. The caller builds the fresh trace e = gamma *
lambda * e_prev + phi and the kernel takes it, then applies its rule:

    standard:  w' = w + alpha * [r + gamma*phi'.w - phi.w] * e
    implicit:  w' solves w' = w + alpha * [r + gamma*phi'.w
                                           + gamma*lambda*(e_prev.w) - e.w'] * e

The standard step takes two inner products (phi'.w, phi.w); the implicit
step takes four (phi'.w, e_prev.w, e.e, e.u) and one scalar divide for the
rank-one inverse, never a k x k matrix, so both steps cost O(k).
Terminal transitions zero the bootstrap term. The episode driver builds e
once per step and zeroes the trace at episode starts; a step does neither.

Each rule is written once, as an array-level kernel (standard_step,
implicit_step). The TD-evaluation driver calls the kernels directly;
td_step_standard and td_step_implicit wrap them with input checks and the
divergence contract below, mutate the learner and return None. They apply
the fresh trace e the caller hands them, which an accepted step stores.

Both kernels are rank-polymorphic. Each picks its form once per call, from
w.ndim, and writes every inner product inline, with no Python call per
product. On one (k,) row, reward and alpha are floats and each product is
float(a.dot(b)), which reaches BLAS ddot without the matmul operator's
per-call dispatch. On a (B, k) stack of rows stepping in lockstep, reward
and alpha are (B, 1) columns, gamma and decay are the spec's read-only 0-d
arrays, and each product is np.vecdot(a, b, keepdims=True), which makes the
same ddot call once per row; the implicit shrink's 1.0 is this module's
read-only 0-d _ONE_0D, since a Python float plus a column takes numpy's
slow scalar route. So each row of a stack comes out bit for bit as its own
1-D call. A kernel builds w' in place in one fresh array, with the bits of
w + c*e, since IEEE multiplication and addition commute.

Divergence contract, applied inside the one checked step (_td_step) that
both wrappers call: each candidate's max-abs (abs_max, NaN when any entry
is) folds into the learner's running record (fold_max_abs). A non-finite
candidate is rejected, leaving the state otherwise untouched. `diverged`
is derived: the record exceeds DIVERGENCE_THRESHOLD. A diverged learner
ignores further steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import DiscountSpec, Transition, check_same_length
from .core import update_trace  # not called here; kept for bench/layers.py, which rebinds it
from .envs import FiniteMrp, stationary_distribution

DIVERGENCE_THRESHOLD = 1e8
# what a non-finite max-abs folds in as: above the threshold, so the record
# says diverged either way, and finite, so it can be written to a CSV row
NONFINITE_MAX_ABS = 10.0 * DIVERGENCE_THRESHOLD

# the 1.0 of a stack's implicit shrink, as a read-only 0-d array: a (B, 1)
# column plus it skips the conversion that a Python-float operand costs
_ONE_0D = np.array(1.0)
_ONE_0D.flags.writeable = False


def abs_max(w: np.ndarray) -> float:
    """The largest |w_i| of a non-empty 1-D array, NaN if any entry is: the
    value np.maximum.reduce(np.abs(w)) gives, since argmax returns the first
    NaN, without ufunc.reduce's fixed cost per call."""
    a = np.abs(w)
    return float(a[a.argmax()])


def fold_max_abs(recorded: float, max_abs: float) -> float:
    """The max-abs record after weights of max-abs `max_abs` were seen."""
    if not math.isfinite(max_abs):
        max_abs = NONFINITE_MAX_ABS
    return max_abs if max_abs > recorded else recorded  # cheaper than max()


@dataclass(slots=True)
class TdLearnerState:
    weights: np.ndarray
    trace: np.ndarray
    disc: DiscountSpec
    step_count: int = field(init=False, default=0)
    # the largest max-abs of any candidate, folded
    max_abs: float = field(init=False, default=0.0)

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def diverged(self) -> bool:
        return self.max_abs > DIVERGENCE_THRESHOLD


def make_learner(k: int, disc: DiscountSpec) -> TdLearnerState:
    """A learner with zero weights and a zero trace."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return TdLearnerState(weights=np.zeros(k), trace=np.zeros(k), disc=disc)


def standard_step(
    w: np.ndarray, e_prev: np.ndarray, e: np.ndarray, phi: np.ndarray,
    phi_next: np.ndarray, reward: float | np.ndarray, alpha: float | np.ndarray,
    gamma: float | np.ndarray, decay: float | np.ndarray, terminal: bool,
) -> np.ndarray:
    """Standard TD(lambda) kernel on plain arrays, without validation:
    returns w'. `e` is the fresh trace decay*e_prev + phi, with `decay` =
    gamma*lambda; this rule reads neither e_prev nor decay, which it takes
    so that both kernels share one signature. Rows are (k,) arrays with
    float reward and alpha, or (B, k) stacks with (B, 1) columns;
    `terminal` applies to every row."""
    if w.ndim == 1:
        bootstrap = 0.0 if terminal else gamma * float(phi_next.dot(w))
        delta = reward + bootstrap - float(phi.dot(w))
    else:
        bootstrap = 0.0 if terminal else gamma * np.vecdot(phi_next, w, keepdims=True)
        delta = reward + bootstrap - np.vecdot(phi, w, keepdims=True)
    u = e * (alpha * delta)  # w + (alpha*delta)*e in one fresh array
    u += w
    return u


def implicit_step(
    w: np.ndarray, e_prev: np.ndarray, e: np.ndarray, phi: np.ndarray,
    phi_next: np.ndarray, reward: float | np.ndarray, alpha: float | np.ndarray,
    gamma: float | np.ndarray, decay: float | np.ndarray, terminal: bool,
) -> np.ndarray:
    """Implicit TD(lambda) kernel via the rank-one inverse: returns w'.
    Arguments take the shapes standard_step takes; this rule reads e_prev
    and decay for its e_prev.w term, and phi only through e.

    With b = r + gamma*phi'.w + gamma*lambda*(e_prev.w), the fixed point of
    w' = w + alpha*(b - e.w')*e is

        u  = w + alpha * b * e
        w' = u - (alpha / (1 + alpha*||e||^2)) * (e.u) * e
    """
    if w.ndim == 1:
        bootstrap = 0.0 if terminal else gamma * float(phi_next.dot(w))
        bracket = reward + bootstrap + decay * float(e_prev.dot(w))
        u = e * (alpha * bracket)  # u and then w' in one fresh array
        u += w
        shrink = alpha / (1.0 + alpha * float(e.dot(e)))
        u -= e * (shrink * float(e.dot(u)))
    else:
        bootstrap = 0.0 if terminal else gamma * np.vecdot(phi_next, w, keepdims=True)
        bracket = reward + bootstrap + decay * np.vecdot(e_prev, w, keepdims=True)
        u = e * (alpha * bracket)
        u += w
        shrink = alpha / (_ONE_0D + alpha * np.vecdot(e, e, keepdims=True))
        u -= e * (shrink * np.vecdot(e, u, keepdims=True))
    return u


def _td_step(
    kernel: Callable[..., np.ndarray], state: TdLearnerState, tr: Transition,
    alpha: float, e: np.ndarray,
) -> None:
    """Check the inputs and apply the kernel's w' under the divergence
    contract: w' has a finite max-abs exactly when every entry is finite
    (abs_max is NaN when any entry is)."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if state.max_abs > DIVERGENCE_THRESHOLD:  # state.diverged without the property call
        return
    phi = tr.phi_t
    if state.weights.shape != phi.shape:
        check_same_length(state.weights, phi)
    if e.shape != phi.shape:
        check_same_length(e, phi)
    disc = state.disc
    w_new = kernel(
        state.weights, state.trace, e, phi, tr.phi_next, tr.reward,
        alpha, disc.gamma, disc.trace_decay, tr.terminal,
    )
    max_abs = abs_max(w_new)
    if math.isfinite(max_abs):
        state.weights = w_new
        state.trace = e
        state.step_count += 1
    state.max_abs = fold_max_abs(state.max_abs, max_abs)


def td_step_standard(
    state: TdLearnerState, tr: Transition, alpha: float, e: np.ndarray
) -> None:
    """One accumulating-trace TD(lambda) step; mutates `state`. `e` is the
    caller's update_trace(state.trace, tr.phi_t, state.disc), kept if accepted."""
    _td_step(standard_step, state, tr, alpha, e)


def td_step_implicit(
    state: TdLearnerState, tr: Transition, alpha: float, e: np.ndarray
) -> None:
    """One implicit TD(lambda) step (see implicit_step); mutates `state`.
    `e` is as td_step_standard takes it."""
    _td_step(implicit_step, state, tr, alpha, e)


def td_fixed_point_oracle(mrp: FiniteMrp, disc: DiscountSpec) -> np.ndarray:
    """w* of linear TD(lambda) on a finite MRP, in closed form: A w* = b with

        A = Phi^T D (I - gamma*lambda*P)^-1 (I - gamma*P) Phi,
        b = Phi^T D (I - gamma*lambda*P)^-1 r,  D = diag(stationary dist.).

    gamma*lambda < 1 keeps I - gamma*lambda*P nonsingular; one solve takes
    both right-hand sides, stacked. At lambda = 1, w* is the D-weighted
    projection of the true values (Tsitsiklis & Van Roy, IEEE TAC 1997).
    """
    xi = stationary_distribution(mrp)
    phi = mrp.features
    eye = np.eye(mrp.n_states)
    rhs = np.column_stack(((eye - disc.gamma * mrp.p) @ phi, mrp.r))
    resolved = np.linalg.solve(eye - disc.trace_decay * mrp.p, rhs)
    ab = phi.T @ (xi[:, None] * resolved)  # D without forming it: [A | b]
    return np.linalg.solve(ab[:, :-1], ab[:, -1])
