"""Vector plumbing and the trace recursion."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from implicit_td.core import (
    DimensionMismatchError,
    DiscountSpec,
    Transition,
    update_trace,
)


def test_discount_spec_bounds():
    d = DiscountSpec(gamma=0.9, lam=0.5)
    assert d.trace_decay == pytest.approx(0.45)
    with pytest.raises(ValueError):
        DiscountSpec(gamma=1.0, lam=0.5)
    with pytest.raises(ValueError):
        DiscountSpec(gamma=0.0, lam=0.5)
    with pytest.raises(ValueError):
        DiscountSpec(gamma=0.9, lam=1.5)
    # lam spans the closed interval
    DiscountSpec(gamma=0.9, lam=0.0)
    DiscountSpec(gamma=0.9, lam=1.0)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("gamma,lam", [(0.9, 0.5), (0.99, 1.0), (0.1, 0.0), (0.95, 0.7)])
def test_discount_spec_owns_read_only_0d_operands_and_round_trips_through_pickle(gamma, lam):
    spec = DiscountSpec(gamma=gamma, lam=lam)
    # the worker of fixed_point_check receives a pickled spec; copies go the same way
    for got in (spec, pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert _bits(got.gamma) == _bits(gamma) and _bits(got.lam) == _bits(lam)
        assert _bits(got.trace_decay) == _bits(gamma * lam)
        for operand, value in ((got.gamma_0d, gamma), (got.trace_decay_0d, gamma * lam)):
            assert operand.shape == () and operand.dtype == np.float64
            assert operand.tobytes() == _bits(value)
            assert not operand.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                operand[()] = 0.5
        assert got == spec and hash(got) == hash(spec)
        assert repr(got) == f"DiscountSpec(gamma={gamma!r}, lam={lam!r})"
    assert spec != DiscountSpec(gamma=gamma, lam=0.25)


def test_update_trace_zero_trace_passthrough():
    d = DiscountSpec(gamma=0.9, lam=0.5)
    out = update_trace(np.zeros(2), np.array([1.0, 2.0]), d)
    assert np.array_equal(out, [1.0, 2.0])


def test_update_trace_lambda_zero_kills_history():
    d = DiscountSpec(gamma=0.9, lam=0.0)
    out = update_trace(np.array([7.0]), np.array([3.0]), d)
    assert np.array_equal(out, [3.0])


def test_update_trace_hand_value():
    # gamma*lam = 0.45 applied to the old trace, feature added on top
    d = DiscountSpec(gamma=0.9, lam=0.5)
    out = update_trace(np.array([1.0, 0.0]), np.array([0.0, 1.0]), d)
    assert out == pytest.approx([0.45, 1.0])


def test_update_trace_length_mismatch():
    d = DiscountSpec(gamma=0.9, lam=0.5)
    with pytest.raises(DimensionMismatchError, match=r"^vector lengths differ: 2 vs 3$"):
        update_trace(np.zeros(2), np.zeros(3), d)


@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
def test_update_trace_linear(e1, e2, a, b):
    n = min(len(e1), len(e2))
    e1, e2 = np.array(e1[:n]), np.array(e2[:n])
    d = DiscountSpec(gamma=0.9, lam=0.5)
    lhs = update_trace(a * e1 + b * e2, a * e2 + b * e1, d)
    rhs = a * update_trace(e1, e2, d) + b * update_trace(e2, e1, d)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@st.composite
def traces_and_features(draw):
    k = draw(st.integers(1, 600))
    # bounded so that e_prev * decay + phi cannot overflow
    finite = st.floats(-1e300, 1e300, width=64)
    e_prev = draw(hnp.arrays(np.float64, k, elements=finite))
    phi = draw(hnp.arrays(np.float64, k, elements=finite))
    gamma = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    lam = draw(st.floats(0.0, 1.0))
    return e_prev, phi, DiscountSpec(gamma=gamma, lam=lam)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(traces_and_features())
def test_update_trace_is_decay_times_trace_plus_phi_bit_for_bit(drawn):
    e_prev, phi, d = drawn
    e_prev_before, phi_before = e_prev.copy(), phi.copy()
    got = update_trace(e_prev, phi, d)
    want = d.trace_decay * e_prev + phi
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(e_prev.view(np.int64), e_prev_before.view(np.int64))
    assert np.array_equal(phi.view(np.int64), phi_before.view(np.int64))
    assert not np.shares_memory(got, e_prev)
    assert not np.shares_memory(got, phi)


def test_transition_validation():
    tr = Transition(phi_t=np.ones(2), reward=1.0, phi_next=np.zeros(2))
    assert not tr.terminal
    with pytest.raises(DimensionMismatchError, match=r"^vector lengths differ: 2 vs 3$"):
        Transition(phi_t=np.ones(2), reward=0.0, phi_next=np.zeros(3))
    with pytest.raises(ValueError):
        Transition(phi_t=np.ones(1), reward=float("nan"), phi_next=np.ones(1))
