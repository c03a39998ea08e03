"""Closed-form gain eigenvalues against dense linear-algebra oracles."""

import dataclasses
import math

import numpy as np
import pytest

from implicit_td.stability import (
    StabilityReport,
    TransitionGeometry,
    _gram_eig_pair,
    audit_step,
)
from oracles import dense_gain_matrix, rank_two_eigenvalues, spectral_sq_norm


def geom(alpha, e, d):
    return TransitionGeometry(e=np.array(e, float), d=np.array(d, float), alpha=alpha)


def standard_pair(g):
    rep = audit_step(g)
    return rep.lam_plus, rep.lam_minus


def implicit_pair(g):
    rep = audit_step(g)
    return rep.lam_im_plus, rep.lam_im_minus


def test_compute_beta_values():
    def beta(alpha, e):
        # beta depends on the trace alone; d is any vector of matching length
        return audit_step(geom(alpha, e, np.zeros(len(e)))).beta

    assert beta(1.0, np.zeros(3)) == 1.0
    assert beta(1.0, np.array([1.0, 0.0])) == 0.5
    assert beta(3.0, np.array([0.0, 1.0])) == 0.25
    # shrinkage never exceeds 1 and never reaches 0 for finite input
    b = beta(10.0, np.full(4, 5.0))
    assert 0.0 < b < 1.0


def test_standard_pair_aligned_cases():
    # e = d along one axis: gain matrix is diag(1 - alpha, 1, ...) so the
    # squared eigenvalues are (1-alpha)^2 and 1, in whichever order is larger.
    lp, lm = standard_pair(geom(0.1, [1, 0], [1, 0]))
    assert (lp, lm) == pytest.approx((1.0, 0.81))
    lp, lm = standard_pair(geom(3.0, [1, 0], [1, 0]))
    assert (lp, lm) == pytest.approx((4.0, 1.0))
    lp, lm = standard_pair(geom(0.5, [0, 0], [1, 0]))
    assert (lp, lm) == pytest.approx((1.0, 1.0))


def test_implicit_pair_aligned_cases():
    lp, lm = implicit_pair(geom(3.0, [1, 0], [1, 0]))
    assert (lp, lm) == pytest.approx((1.0, 0.0625))
    lp, lm = implicit_pair(geom(0.1, [1, 0], [1, 0]))
    assert (lp, lm) == pytest.approx((1.0, (1.0 - 0.1 / 1.1) ** 2))
    lp, lm = implicit_pair(geom(0.5, [0, 0], [1, 0]))
    assert (lp, lm) == pytest.approx((1.0, 1.0))


def _dense_mmt_eigs(g, implicit):
    m = dense_gain_matrix(g, implicit=implicit)
    return np.sort(np.linalg.eigvalsh(m @ m.T))


@pytest.mark.parametrize("k", [2, 4, 16])
def test_pairs_match_dense_eigendecomposition(k):
    rng = np.random.default_rng(20240 + k)
    for _ in range(200):
        g = geom(float(rng.uniform(1e-3, 10.0)), rng.normal(size=k), rng.normal(size=k))
        for implicit, closed in ((False, standard_pair), (True, implicit_pair)):
            lp, lm = closed(g)
            evs = _dense_mmt_eigs(g, implicit)
            scale = max(1.0, abs(lp), abs(lm))
            assert abs(evs[-1] - max(lp, lm)) / scale < 1e-8
            assert abs(evs[0] - min(lp, lm)) / scale < 1e-8
            # the k-2 eigenvalues away from span{e, d} stay at 1
            if k > 2:
                rest = np.delete(evs, [0, k - 1])
                assert np.max(np.abs(rest - 1.0)) < 1e-10


def test_pair_ordering_and_domain():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g = geom(float(rng.uniform(1e-3, 10.0)), rng.normal(size=3), rng.normal(size=3))
        rep = audit_step(g)
        assert rep.lam_plus >= rep.lam_minus >= 0.0
        assert rep.lam_im_plus >= rep.lam_im_minus >= 0.0


def test_discriminant_boundary_e_equals_d():
    # a terminal step with lambda = 0 has e = d = phi. At alpha*|e|^2 = 2 the
    # standard gain is I - 2 e e^T/|e|^2, a reflection, so its pair is (1, 1)
    # and the discriminant is 0 in exact arithmetic; rounding may take it
    # below 0. The implicit gain scales e by 1 - 2/3, so its pair is (1, 1/9).
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        k = int(rng.integers(2, 64))
        e = rng.normal(size=k)
        report = audit_step(TransitionGeometry(e=e, d=e.copy(), alpha=2.0 / float(e @ e)))
        # a discriminant of rounding size eps gives a spread of sqrt(eps)
        assert report.lam_plus == pytest.approx(1.0, abs=1e-6)
        assert report.lam_minus == pytest.approx(1.0, abs=1e-6)
        assert report.lam_im_plus == pytest.approx(1.0, abs=1e-12)
        assert report.lam_im_minus == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_rank_two_eigenvalues_examples():
    one = np.array([1.0, 0.0])
    two = np.array([0.0, 1.0])
    r = rank_two_eigenvalues(one, one, two, two)
    assert not r.complex_pair
    assert (r.lam1, r.lam2) == pytest.approx((1.0, 1.0))
    r = rank_two_eigenvalues(one, two, np.zeros(2), np.zeros(2))
    assert (r.lam1, r.lam2) == pytest.approx((0.0, 0.0))
    r = rank_two_eigenvalues(one, 2 * one, two, np.array([1.0, 1.0]))
    assert (r.lam1, r.lam2) == pytest.approx((2.0, 1.0))


def test_rank_two_eigenvalues_frozen_dense_case():
    # eigenvalues of outer(a,b)+outer(c,d) for this tuple are (3 +- sqrt(13))/2
    a = np.array([1.0, 0.0, 1.0])
    b = np.array([2.0, 1.0, 0.0])
    c = np.array([0.0, 1.0, 1.0])
    d = np.array([1.0, -1.0, 2.0])
    r = rank_two_eigenvalues(a, b, c, d)
    root = math.sqrt(13.0)
    assert (r.lam1, r.lam2) == pytest.approx(((3 + root) / 2, (3 - root) / 2))


def test_rank_two_complex_pair():
    # outer((1,0),(0,1)) + outer((0,1),(-1,0)) is a rotation generator: eigs +-i
    r = rank_two_eigenvalues(
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0]),
        np.array([-1.0, 0.0]),
    )
    assert r.complex_pair
    assert r.lam1 == pytest.approx(1j)
    assert r.lam2 == pytest.approx(-1j)


def test_rank_two_trace_identities():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b, c, d = (rng.normal(size=4) for _ in range(4))
        r = rank_two_eigenvalues(a, b, c, d)
        assert r.lam1 + r.lam2 == pytest.approx(a @ b + c @ d, abs=1e-10)
        assert r.lam1 * r.lam2 == pytest.approx(
            (a @ b) * (c @ d) - (a @ d) * (b @ c), abs=1e-10
        )


def test_dense_gain_matrix_cases():
    g = geom(0.5, [0.0, 0.0], [1.0, 2.0])
    assert np.array_equal(dense_gain_matrix(g, implicit=False), np.eye(2))
    g = geom(3.0, [1.0, 0.0], [1.0, 0.0])
    assert dense_gain_matrix(g, implicit=False) == pytest.approx(np.diag([-2.0, 1.0]))
    assert dense_gain_matrix(g, implicit=True) == pytest.approx(np.diag([0.25, 1.0]))


def test_spectral_sq_norm_oracle():
    assert spectral_sq_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_sq_norm(np.diag([-2.0, 1.0])) == pytest.approx(4.0)
    # power-iteration second opinion on a random matrix
    rng = np.random.default_rng(3)
    m = rng.normal(size=(8, 8))
    v = rng.normal(size=8)
    mmt = m @ m.T
    for _ in range(2000):
        v = mmt @ v
        v /= np.linalg.norm(v)
    power = float(v @ mmt @ v)
    assert spectral_sq_norm(m) == pytest.approx(power, rel=1e-8)


def test_audit_step_composition():
    rep = audit_step(geom(3.0, [1.0, 0.0], [1.0, 0.0]))
    assert isinstance(rep, StabilityReport)
    assert rep.beta == pytest.approx(0.25)
    assert rep.sq_norm_standard == pytest.approx(4.0)
    assert rep.sq_norm_implicit == pytest.approx(1.0)

    rep = audit_step(geom(0.7, [0.0, 0.0], [1.0, -1.0]))
    assert rep.beta == 1.0
    for v in (
        rep.lam_plus,
        rep.lam_minus,
        rep.lam_im_plus,
        rep.lam_im_minus,
        rep.sq_norm_standard,
        rep.sq_norm_implicit,
    ):
        assert v == pytest.approx(1.0)

    rep = audit_step(geom(0.1, [1.0, 0.0], [1.0, 0.0]))
    assert rep.sq_norm_standard == pytest.approx(1.0)
    assert rep.sq_norm_implicit == pytest.approx(1.0)


def test_audit_step_shrinkage_bound_and_dominance():
    rng = np.random.default_rng(19)
    for _ in range(500):
        e = rng.normal(size=4)
        d = rng.normal(size=4)
        alpha = float(rng.uniform(1e-3, 10.0))
        rep = audit_step(geom(alpha, e, d))
        assert alpha * rep.beta * float(e @ e) < 1.0
        assert rep.sq_norm_standard >= 1.0
        assert rep.sq_norm_implicit >= 1.0
        if float(e @ d) >= 0.0:
            assert rep.sq_norm_implicit <= rep.sq_norm_standard + 1e-12


def test_geometry_validation():
    with pytest.raises(ValueError):
        TransitionGeometry(e=np.ones(1), d=np.ones(1), alpha=1.0)
    with pytest.raises(ValueError):
        TransitionGeometry(e=np.ones(2), d=np.ones(2), alpha=0.0)
    with pytest.raises(ValueError):
        TransitionGeometry(e=np.array([np.inf, 0.0]), d=np.ones(2), alpha=1.0)
    with pytest.raises(ValueError):
        TransitionGeometry(e=np.ones(2), d=np.ones(3), alpha=1.0)


@pytest.mark.parametrize(
    "e,d",
    [
        ([1.0, np.inf, 0.0], [1.0, 1.0, 1.0]),
        ([1.0, -np.inf, 0.0], [1.0, 1.0, 1.0]),
        ([1.0, 1.0, 1.0], [0.0, np.nan, 1.0]),
        ([1e200, np.inf, 0.0], [1.0, 1.0, 1.0]),  # a norm that overflows anyway
        ([1.0, 1.0, 1.0], [1e200, 0.0, np.nan]),
    ],
)
def test_geometry_rejects_nonfinite_entries(e, d):
    with pytest.raises(ValueError, match="geometry vectors must be finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            TransitionGeometry(e=np.array(e), d=np.array(d), alpha=1.0)


def test_geometry_accepts_finite_entries_whose_squares_overflow():
    e = np.full(3, 1e200)
    d = np.array([1e200, -1e200, 0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        dots = float(e.dot(e)), float(d.dot(d)), float(e.dot(d))
        report = audit_step(TransitionGeometry(e=e, d=d, alpha=0.5))
        expected = audit_step_from_dots(0.5, *dots)
    assert math.isinf(dots[0]) and math.isinf(dots[1])
    # NaN-aware equality of every field
    assert np.array_equal(
        np.array(dataclasses.astuple(report)),
        np.array(dataclasses.astuple(expected)),
        equal_nan=True,
    )


def audit_step_from_dots(alpha, e_norm_sq, d_norm_sq, e_dot_d):
    """The closed forms of audit_step on given inner products."""
    beta = 1.0 / (1.0 + alpha * e_norm_sq)
    ed_norm = math.sqrt(e_norm_sq * d_norm_sq)
    lp, lm = _gram_eig_pair(alpha, e_norm_sq, d_norm_sq, e_dot_d, ed_norm)
    lip, lim = _gram_eig_pair(alpha * beta, e_norm_sq, d_norm_sq, e_dot_d, ed_norm)
    sq_std, sq_im = max(lp, 1.0), max(lip, 1.0)
    return StabilityReport(beta, lp, lm, lip, lim, sq_std, sq_im, sq_im / sq_std)


@pytest.mark.parametrize("k", [2, 64, 512])
def test_geometry_keeps_its_inner_products_bit_for_bit(k):
    rng = np.random.default_rng(31 + k)
    for scale in (1e-3, 1.0, 1e3):
        e, d = scale * rng.normal(size=k), rng.normal(size=k)
        g = TransitionGeometry(e=e, d=d, alpha=0.3)
        got = (g.e_norm_sq, g.d_norm_sq, g.e_dot_d)
        want = (float(e.dot(e)), float(d.dot(d)), float(e.dot(d)))
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert all(type(x) is float for x in got)
        assert audit_step(g) == audit_step_from_dots(0.3, *want)
