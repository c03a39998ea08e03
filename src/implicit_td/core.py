"""Dense vector arithmetic and the domain types shared by learners and auditors.

All vectors are 1-D float64 arrays of a common length k (the approximation
dimension). Eligibility traces use the accumulating form and are reset to the
zero vector at episode starts; the reset is owned by whoever drives episodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DimensionMismatchError(ValueError):
    """Two vectors of different lengths were combined."""


def check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}"
        )


@dataclass(frozen=True, slots=True)
class DiscountSpec:
    """Discount factor gamma in (0,1) and trace-decay parameter lam in [0,1].

    trace_decay = gamma * lam is taken once; gamma_0d and trace_decay_0d hold
    gamma and trace_decay as the read-only 0-d float64 arrays that per-step
    code multiplies arrays by. A spec pickles as (gamma, lam) and rebuilds
    them: numpy unpickles a read-only array as writeable.
    """

    gamma: float
    lam: float
    trace_decay: float = field(init=False, repr=False, compare=False)
    gamma_0d: np.ndarray = field(init=False, repr=False, compare=False)
    trace_decay_0d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        decay = self.gamma * self.lam
        object.__setattr__(self, "trace_decay", decay)
        for name, x in (("gamma_0d", self.gamma), ("trace_decay_0d", decay)):
            a = np.array(x, dtype=np.float64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __reduce__(self) -> tuple:
        return DiscountSpec, (self.gamma, self.lam)


def update_trace(
    e_prev: np.ndarray, phi: np.ndarray, disc: DiscountSpec
) -> np.ndarray:
    """Accumulating-trace recursion: gamma * lam * e_prev + phi, built in
    one fresh array (the same bits: IEEE * and + commute)."""
    if e_prev.shape != phi.shape:
        check_same_length(e_prev, phi)
    e = e_prev * disc.trace_decay_0d
    e += phi
    return e


@dataclass(slots=True)
class Transition:
    """One observed step: features at t, reward, features at t+1, terminal flag.

    For terminal transitions the feature vector of the successor state is the
    zero vector by convention, so downstream consumers never bootstrap off it.
    One is built per step, so the class is not frozen; __post_init__ checks
    only the values it is built with.
    """

    phi_t: np.ndarray
    reward: float
    phi_next: np.ndarray
    terminal: bool = False

    def __post_init__(self) -> None:
        if self.phi_t.shape != self.phi_next.shape:
            check_same_length(self.phi_t, self.phi_next)
        if not math.isfinite(self.reward):
            raise ValueError(f"reward must be finite, got {self.reward}")
