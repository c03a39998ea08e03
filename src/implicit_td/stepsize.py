"""Step-size schedules for the TD learners.

Three kinds:

* ``constant``: alpha0 forever.
* ``polynomial``: alpha0 * (t+1)^-POLYNOMIAL_EXPONENT.
* ``alpha_bound``: adaptive shrinkage that caps alpha at 1/|e.(gamma*phi' -
  phi)| whenever that inner product is negative, the threshold past which an
  update flips the sign of its own TD error. The cap observed on one
  transition protects the *following* updates: next_alpha returns the value
  currently in force, then tightens it with the transition it was shown.
  Within an episode the cap only ever lowers alpha; episode drivers call
  reset_schedule at episode starts, which restores alpha0 (the bound is
  derived from the current trace, and traces restart with the episode).

Schedules are consulted once per step, before the learner update; learners
never own one. A polynomial step size depends on the step count alone, so
the TD-evaluation loop takes a whole block's at once (polynomial_alphas), by
the formula next_alpha's polynomial branch uses, instead of a next_alpha
call per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("constant", "polynomial", "alpha_bound")
# in (0.5, 1]: the decaying sequence is square-summable but not summable
POLYNOMIAL_EXPONENT = 0.7


@dataclass(slots=True)
class StepSizeSchedule:
    kind: str
    alpha0: float
    alpha_current: float = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.alpha0 < np.inf:
            raise ValueError(f"alpha0 must be positive and finite, got {self.alpha0}")
        self.alpha_current = self.alpha0


def make_schedule(kind: str, alpha0: float) -> StepSizeSchedule:
    return StepSizeSchedule(kind=kind, alpha0=alpha0)


def reset_schedule(sched: StepSizeSchedule) -> None:
    """Restore the episode-scoped adaptive state. Call at episode starts."""
    sched.alpha_current = sched.alpha0


def polynomial_alphas(alpha0: float, start: int, n: int) -> list[float]:
    """The polynomial schedule's step sizes for step counts start, ...,
    start + n - 1, as floats: the values next_alpha returns for them."""
    exponent = -POLYNOMIAL_EXPONENT
    return [alpha0 * float(t) ** exponent for t in range(start + 1, start + n + 1)]


def next_alpha(
    sched: StepSizeSchedule,
    step_count: int,
    e: np.ndarray,
    phi_t: np.ndarray,
    phi_next: np.ndarray,
    gamma: float | np.ndarray,
) -> float:
    """Step size for the upcoming update.

    ``e`` must be the trace entering the update (the post-decay e_t), since
    the alpha_bound curvature test e.(gamma*phi_next - phi_t) is taken
    against the direction the update will actually move in. Only
    alpha_bound reads it, and gamma (SARSA passes DiscountSpec.gamma_0d).

    For alpha_bound the returned value is the bound in force *before* this
    transition is folded in: the cap a transition generates applies from the
    following step onward. alpha_current always holds the tightened value.
    """
    if sched.kind == "constant":
        return sched.alpha0
    if sched.kind == "polynomial":
        (alpha,) = polynomial_alphas(sched.alpha0, step_count, 1)
        return alpha
    alpha = sched.alpha_current
    curvature = float(e.dot(gamma * phi_next - phi_t))
    if curvature < 0.0:
        # curvature == 0 would divide by zero; the sign test excludes it.
        sched.alpha_current = min(sched.alpha_current, 1.0 / -curvature)
    return alpha
