"""Schedule behavior: constant, polynomial decay, adaptive bound."""

import math

import numpy as np
import pytest

from implicit_td.stepsize import (
    make_schedule,
    next_alpha,
    reset_schedule,
)

E = np.array([1.0, 1.0])
PHI = np.array([1.0, 0.0])
PHI_NEXT = np.array([0.0, 1.0])


def consult(sched, step=0, e=E, phi=PHI, phi_next=PHI_NEXT, gamma=0.9):
    return next_alpha(sched, step, e, phi, phi_next, gamma)


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule("warmup", 0.1)
    with pytest.raises(ValueError):
        make_schedule("constant", 0.0)
    with pytest.raises(ValueError):
        make_schedule("constant", math.inf)


def test_constant_every_step():
    sched = make_schedule("constant", 0.1)
    for step in (0, 1, 10, 10_000):
        assert consult(sched, step) == 0.1


def test_polynomial_decay_values():
    sched = make_schedule("polynomial", 0.5)
    assert consult(sched, 0) == 0.5
    assert consult(sched, 1) == pytest.approx(0.5 * 2.0**-0.7)
    assert consult(sched, 99) == pytest.approx(0.5 * 100.0**-0.7)


def test_alpha_bound_shrinks_for_later_steps():
    # e.(gamma*phi_next - phi) = -4 tightens the bound to 0.25, but the
    # value returned for the step that produced it is the one already in
    # force; the tightened value shows up on the next consultation.
    sched = make_schedule("alpha_bound", 0.5)
    e = np.array([4.0])
    got = next_alpha(sched, 0, e, np.array([1.0]), np.array([0.0]), 0.9)
    assert got == 0.5
    assert sched.alpha_current == 0.25
    got = next_alpha(sched, 1, np.zeros(1), np.zeros(1), np.zeros(1), 0.9)
    assert got == 0.25


def test_alpha_bound_positive_curvature_leaves_alpha_alone():
    sched = make_schedule("alpha_bound", 0.5)
    e = np.array([2.0])
    got = next_alpha(sched, 0, e, np.array([0.0]), np.array([2.0]), 0.5)
    assert got == 0.5
    assert sched.alpha_current == 0.5


def test_alpha_bound_zero_curvature_leaves_alpha_alone():
    sched = make_schedule("alpha_bound", 0.5)
    next_alpha(sched, 0, np.zeros(2), PHI, PHI_NEXT, 0.9)
    assert sched.alpha_current == 0.5


def test_alpha_bound_nonincreasing_within_episode():
    sched = make_schedule("alpha_bound", 2.0)
    rng = np.random.default_rng(5)
    prev = float("inf")
    for step in range(200):
        e = rng.normal(size=3)
        phi = rng.normal(size=3)
        phi_next = rng.normal(size=3)
        got = next_alpha(sched, step, e, phi, phi_next, 0.99)
        assert 0.0 < got <= prev
        assert sched.alpha_current <= sched.alpha0
        prev = got


def test_reset_schedule_restores_alpha0():
    sched = make_schedule("alpha_bound", 1.0)
    next_alpha(sched, 0, np.array([10.0]), np.array([1.0]), np.array([0.0]), 0.9)
    assert sched.alpha_current < 1.0
    reset_schedule(sched)
    assert sched.alpha_current == 1.0


def test_returned_values_positive_and_finite():
    for sched in (
        make_schedule("constant", 0.3),
        make_schedule("polynomial", 0.3),
        make_schedule("alpha_bound", 0.3),
    ):
        for step in range(50):
            got = consult(sched, step)
            assert np.isfinite(got) and got > 0.0
