"""Dense and alternative reference computations the tests check the library against.

Each oracle builds the k x k matrix (or evaluates the identity) that the
O(k) closed forms in implicit_td avoid, so the dense ones cap k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from implicit_td.core import DiscountSpec, Transition, check_same_length, update_trace
from implicit_td.envs import FiniteMrp, sample_state_path
from implicit_td.harness import CHECK_EVERY, TdEvalResult
from implicit_td.learners import (
    DIVERGENCE_THRESHOLD,
    TdLearnerState,
    abs_max,
    fold_max_abs,
    implicit_step,
    standard_step,
)
from implicit_td.stability import TransitionGeometry
from implicit_td.stepsize import StepSizeSchedule, next_alpha

ORACLE_MAX_K = 64
DENSE_ORACLE_MAX_K = 64


def td_step_implicit_oracle(
    state: TdLearnerState, tr: Transition, alpha: float
) -> np.ndarray:
    """Dense solve of (I + alpha e e^T) w' = w + alpha*b*e. Test oracle.

    Accepts alpha = 0 (the identity solve) so the zero-step limit is
    checkable; does not mutate the state.
    """
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    k = state.k
    if k > ORACLE_MAX_K:
        raise ValueError(f"dense oracle capped at k={ORACLE_MAX_K}, got {k}")
    check_same_length(state.weights, tr.phi_t)
    disc = state.disc
    w = state.weights
    e = update_trace(state.trace, tr.phi_t, disc)
    bootstrap = 0.0 if tr.terminal else disc.gamma * float(tr.phi_next @ w)
    bracket = tr.reward + bootstrap + disc.trace_decay * float(state.trace @ w)
    lhs = np.eye(k) + alpha * np.outer(e, e)
    rhs = w + (alpha * bracket) * e
    return np.linalg.solve(lhs, rhs)


def step_with_fresh_trace(
    step: Callable[[TdLearnerState, Transition, float, np.ndarray], None],
    state: TdLearnerState, tr: Transition, alpha: float,
) -> None:
    """Apply td_step_standard or td_step_implicit as an episode driver does:
    with the fresh trace update_trace(state.trace, tr.phi_t, state.disc)."""
    step(state, tr, alpha, update_trace(state.trace, tr.phi_t, state.disc))


def td_evaluation_reference(
    mrp: FiniteMrp, disc: DiscountSpec, schedule: StepSizeSchedule, total_steps: int,
    seed: int, implicit: bool, eval_window: int, target: tuple[np.ndarray, float] | None,
) -> TdEvalResult:
    """run_td_evaluation's one row as a plain loop. Test oracle.

    The whole path is drawn up front; every step calls next_alpha, then
    update_trace, then the kernel. Divergence and the target are checked
    every CHECK_EVERY steps and at the last step, and the first check that
    trips ends the run.
    """
    rng = np.random.default_rng(seed)
    start = sample_state_path(mrp, 1, rng)
    rest = sample_state_path(mrp, total_steps, rng, start=int(start[0]))
    path = np.concatenate([start, rest]).tolist()
    kernel = implicit_step if implicit else standard_step
    w = np.zeros(mrp.features.shape[1])
    e = np.zeros_like(w)
    max_abs = 0.0
    steps_done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while steps_done < total_steps:
            phi, phi_next = mrp.features[path[steps_done]], mrp.features[path[steps_done + 1]]
            reward = float(mrp.r[path[steps_done]])
            alpha = next_alpha(schedule, steps_done, e, phi, phi_next, disc.gamma)
            e_prev, e = e, update_trace(e, phi, disc)
            w = kernel(
                w, e_prev, e, phi, phi_next, reward, alpha, disc.gamma, disc.trace_decay, False
            )
            steps_done += 1
            if steps_done % CHECK_EVERY and steps_done < total_steps:
                continue
            max_abs = fold_max_abs(max_abs, abs_max(w))
            if max_abs > DIVERGENCE_THRESHOLD:
                break
            if target is not None and abs_max(w - target[0]) <= target[1]:
                break
    n = min(eval_window, steps_done)
    rewards = mrp.r[path[steps_done - n : steps_done]]
    return TdEvalResult(w, steps_done, max_abs, float(rewards.mean()) if n else 0.0)


def dense_gain_matrix(g: TransitionGeometry, implicit: bool) -> np.ndarray:
    """Materialize the k x k gain matrix. Test oracle; k is capped.

    The implicit variant constructs Q explicitly through the rank-one inverse
    identity Q = I - (alpha / (1 + alpha ||e||^2)) e e^T before multiplying.
    """
    k = g.e.shape[0]
    if k > DENSE_ORACLE_MAX_K:
        raise ValueError(f"dense oracle capped at k={DENSE_ORACLE_MAX_K}, got {k}")
    eye = np.eye(k)
    x = np.outer(g.e, g.d)
    if not implicit:
        return eye - g.alpha * x
    q = eye - (g.alpha / (1.0 + g.alpha * float(g.e @ g.e))) * np.outer(g.e, g.e)
    return eye - g.alpha * (q @ x)


def spectral_sq_norm(m: np.ndarray) -> float:
    """Largest eigenvalue of M M^T (the squared spectral norm). Test oracle."""
    if m.shape[0] > DENSE_ORACLE_MAX_K or m.shape[1] > DENSE_ORACLE_MAX_K:
        raise ValueError(f"dense oracle capped at k={DENSE_ORACLE_MAX_K}, got {m.shape}")
    return float(np.linalg.eigvalsh(m @ m.T)[-1])


@dataclass(frozen=True, slots=True)
class RankTwoEigs:
    """The two nonzero-subspace eigenvalues of a rank-two matrix.

    For a real rank-two matrix the pair is either real (complex_pair False,
    lam1 >= lam2) or a complex-conjugate pair (complex_pair True, lam1 the
    member with positive imaginary part).
    """

    lam1: complex
    lam2: complex
    complex_pair: bool


def rank_two_eigenvalues(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> RankTwoEigs:
    """Nonzero-subspace eigenvalues of a b^T + c d^T.

    Derived from the trace identities lam1 + lam2 = a.b + c.d and
    lam1 * lam2 = (a.b)(c.d) - (a.d)(b.c); the remaining k-2 eigenvalues of
    the matrix are zero.
    """
    check_same_length(a, b)
    check_same_length(a, c)
    check_same_length(a, d)
    ab = float(a @ b)
    cd = float(c @ d)
    ad = float(a @ d)
    bc = float(b @ c)
    trace = ab + cd
    disc = (ab - cd) ** 2 + 4.0 * ad * bc
    if disc >= 0.0:
        half_spread = 0.5 * math.sqrt(disc)
        lam1 = 0.5 * trace + half_spread
        lam2 = 0.5 * trace - half_spread
        return RankTwoEigs(complex(lam1), complex(lam2), False)
    imag = 0.5 * math.sqrt(-disc)
    return RankTwoEigs(
        complex(0.5 * trace, imag), complex(0.5 * trace, -imag), True
    )
