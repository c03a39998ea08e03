"""Closed-form stability analysis of single TD(lambda) steps.

A zero-reward TD(lambda) step applies a linear gain matrix to the weights:

    standard:  w' = (I - alpha * X) w          with X = e d^T
    implicit:  w' = (I - alpha * Q X) w        with Q = (I + alpha e e^T)^-1

where e is the eligibility trace entering the update and d = phi_t -
gamma * phi_next. Because X is rank-one, the Gram matrix M M^T of either gain
matrix M has k-2 eigenvalues equal to 1 plus an explicit pair, here evaluated
in closed form. Q shrinks the trace direction by beta = 1 / (1 + alpha
||e||^2), so the implicit pair is the standard pair with alpha replaced by
alpha * beta in every coefficient.

Norm convention: the two closed-form pairs are eigenvalues of M M^T, i.e.
squared singular values. Reports therefore store *squared* spectral norms
(`sq_norm_*`); the spectral norm itself is sqrt(sq_norm). Note also that the
shrinkage obeys alpha * beta * ||e||^2 = alpha ||e||^2 / (1 + alpha ||e||^2)
< 1 for every finite trace, which is the quantitative form of the implicit
step's built-in contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import check_same_length


@dataclass(slots=True)
class TransitionGeometry:
    """The quantities one audit needs: trace e, TD direction d, step-size.

    The three inner products e.e, d.d and e.d are taken once, at
    construction, and kept as e_norm_sq, d_norm_sq and e_dot_d; they
    describe the e and d the geometry was built with. One is built per
    audited step, so the class is not frozen.
    """

    e: np.ndarray
    d: np.ndarray
    alpha: float
    e_norm_sq: float = field(init=False)
    d_norm_sq: float = field(init=False)
    e_dot_d: float = field(init=False)

    def __post_init__(self) -> None:
        check_same_length(self.e, self.d)
        if self.e.shape[0] < 2:
            raise ValueError(
                "geometry needs k >= 2 (the gain matrix has k-2 unit "
                f"eigenvalues), got k={self.e.shape[0]}"
            )
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        e_norm_sq = float(self.e.dot(self.e))
        d_norm_sq = float(self.d.dot(self.d))
        # a finite sum of squares has only finite terms; an infinite or NaN
        # one may also come from finite entries whose squares overflow, so
        # only then are the entries tested one by one
        if not (math.isfinite(e_norm_sq) and math.isfinite(d_norm_sq)) and not (
            np.isfinite(self.e).all() and np.isfinite(self.d).all()
        ):
            raise ValueError("geometry vectors must be finite")
        self.e_norm_sq = e_norm_sq
        self.d_norm_sq = d_norm_sq
        self.e_dot_d = float(self.e.dot(self.d))


@dataclass(slots=True)
class StabilityReport:
    """Eigenvalue pairs, squared spectral norms and their ratio for one transition."""

    beta: float
    lam_plus: float
    lam_minus: float
    lam_im_plus: float
    lam_im_minus: float
    sq_norm_standard: float
    sq_norm_implicit: float
    ratio: float


def _gram_eig_pair(
    a: float, e_norm_sq: float, d_norm_sq: float, e_dot_d: float, ed_norm: float
) -> tuple[float, float]:
    """Eigenvalue pair of (I - a*e*d^T)(I - a*e*d^T)^T beyond the unit ones.

    ed_norm is |e||d|, taken as sqrt(e_norm_sq * d_norm_sq). The
    discriminant equals (a|e||d| - 2)^2 + 4a(|e||d| - e.d) >= 0 in exact
    arithmetic. On the boundary e = d, a|e|^2 = 2 rounding can take it just
    below zero, so it is clamped at 0.
    """
    prod = a * a * e_norm_sq * d_norm_sq
    disc = max(prod + 4.0 - 4.0 * a * e_dot_d, 0.0)
    half_spread = 0.5 * a * ed_norm * math.sqrt(disc)
    center = 1.0 + 0.5 * (prod - 2.0 * a * e_dot_d)
    return center + half_spread, center - half_spread


def audit_step(g: TransitionGeometry) -> StabilityReport:
    """Evaluate both closed-form pairs, the squared norms and their ratio for one step.

    Reads e.e, d.d and e.d from the geometry and takes beta = 1 / (1 +
    alpha ||e||^2) and |e||d| once each; the implicit pair is the standard
    pair's closed form evaluated at alpha * beta.
    """
    e_norm_sq, d_norm_sq, e_dot_d = g.e_norm_sq, g.d_norm_sq, g.e_dot_d
    beta = 1.0 / (1.0 + g.alpha * e_norm_sq)
    ed_norm = math.sqrt(e_norm_sq * d_norm_sq)
    lam_plus, lam_minus = _gram_eig_pair(g.alpha, e_norm_sq, d_norm_sq, e_dot_d, ed_norm)
    lam_im_plus, lam_im_minus = _gram_eig_pair(
        g.alpha * beta, e_norm_sq, d_norm_sq, e_dot_d, ed_norm
    )
    sq_norm_standard, sq_norm_implicit = max(lam_plus, 1.0), max(lam_im_plus, 1.0)
    return StabilityReport(
        beta, lam_plus, lam_minus, lam_im_plus, lam_im_minus,
        sq_norm_standard, sq_norm_implicit, sq_norm_implicit / sq_norm_standard,
    )
