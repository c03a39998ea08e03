"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single summary line; `pytest -v` shows one pass/fail
line per criterion. Runtime budgets are asserted alongside the numeric
tolerances because they are part of the contract.
"""

import dataclasses
import inspect
import os
import time
import timeit
import tracemalloc

import numpy as np

from implicit_td.core import DiscountSpec, Transition, update_trace
from implicit_td.envs import FiniteMrp
from implicit_td.harness import (
    ExperimentConfig,
    fixed_point_check,
    run_cell,
    run_sweep,
    run_td_evaluation,
    stability_audit_run,
)
from implicit_td.learners import (
    TdLearnerState,
    _td_step,
    implicit_step,
    td_fixed_point_oracle,
    td_step_implicit,
)
from implicit_td.stability import TransitionGeometry, audit_step
from implicit_td.stepsize import make_schedule
from oracles import (
    dense_gain_matrix,
    rank_two_eigenvalues,
    step_with_fresh_trace,
    td_step_implicit_oracle,
)


def test_criterion_1_sherman_morrison_equivalence():
    # closed-form implicit step == dense solve, 1000 transitions per k
    started = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 8, 32):
        rng = np.random.default_rng(1000 + k)
        disc = DiscountSpec(gamma=0.95, lam=0.7)
        for _ in range(1000):
            learner = TdLearnerState(
                weights=rng.normal(size=k), trace=rng.normal(size=k), disc=disc
            )
            tr = Transition(
                phi_t=rng.normal(size=k),
                reward=float(rng.normal()),
                phi_next=rng.normal(size=k),
                terminal=bool(rng.random() < 0.1),
            )
            alpha = float(rng.uniform(1e-3, 5.0))
            want = td_step_implicit_oracle(learner, tr, alpha)
            step_with_fresh_trace(td_step_implicit, learner, tr, alpha)
            worst = max(worst, float(np.max(np.abs(learner.weights - want))))
    elapsed = time.perf_counter() - started
    print(f"criterion 1: max |closed form - dense solve| = {worst:.3e} "
          f"over 4000 transitions in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_gain_eigenvalue_closed_forms():
    # closed-form eigenvalue pairs of G G^T against dense eigendecomposition
    started = time.perf_counter()
    worst_pair = 0.0
    worst_unit = 0.0
    for k in (2, 4, 16):
        rng = np.random.default_rng(2000 + k)
        for _ in range(1000):
            g = TransitionGeometry(
                e=rng.normal(size=k),
                d=rng.normal(size=k),
                alpha=float(rng.uniform(1e-3, 10.0)),
            )
            report = audit_step(g)
            for implicit, (lam_plus, lam_minus) in (
                (False, (report.lam_plus, report.lam_minus)),
                (True, (report.lam_im_plus, report.lam_im_minus)),
            ):
                m = dense_gain_matrix(g, implicit=implicit)
                dense = np.sort(np.linalg.eigvalsh(m @ m.T))
                worst_pair = max(
                    worst_pair,
                    abs(dense[-1] - lam_plus) / max(1.0, abs(dense[-1])),
                    abs(dense[0] - lam_minus) / max(1.0, abs(dense[0])),
                )
                if k > 2:
                    worst_unit = max(
                        worst_unit, float(np.max(np.abs(dense[1:-1] - 1.0)))
                    )
    elapsed = time.perf_counter() - started
    print(f"criterion 2: pair rel err {worst_pair:.3e}, "
          f"unit eigenvalue err {worst_unit:.3e}, {elapsed:.1f}s")
    assert worst_pair <= 1e-8
    assert worst_unit <= 1e-10
    assert elapsed < 10.0


def test_criterion_3_rank_two_eigenvalues():
    started = time.perf_counter()
    worst_eig = 0.0
    worst_trace = 0.0
    for dim in (2, 3, 8):
        rng = np.random.default_rng(3000 + dim)
        for _ in range(1000):
            a, b, c, d = (rng.normal(size=dim) for _ in range(4))
            got = rank_two_eigenvalues(a, b, c, d)
            dense = np.linalg.eigvals(np.outer(a, b) + np.outer(c, d))
            # the two nonzero-subspace eigenvalues are the largest by modulus
            dense = sorted(dense, key=abs, reverse=True)[:2]
            dense = sorted(dense, key=lambda z: (z.real, z.imag))
            mine = sorted((got.lam1, got.lam2), key=lambda z: (z.real, z.imag))
            for have, want in zip(mine, dense):
                worst_eig = max(worst_eig, abs(have - want) / max(1.0, abs(want)))
            worst_trace = max(
                worst_trace,
                abs(got.lam1 + got.lam2 - (a @ b + c @ d)),
                abs(got.lam1 * got.lam2 - ((a @ b) * (c @ d) - (a @ d) * (b @ c))),
            )
    elapsed = time.perf_counter() - started
    print(f"criterion 3: eig err {worst_eig:.3e}, trace identity err "
          f"{worst_trace:.3e}, {elapsed:.1f}s")
    assert worst_eig <= 1e-8
    assert worst_trace <= 1e-10
    assert elapsed < 5.0


def test_criterion_4_fixed_point_agreement():
    started = time.perf_counter()
    # hand-derived fixed point of the deterministic 2-state cycle
    cycle = FiniteMrp(
        p=np.array([[0.0, 1.0], [1.0, 0.0]]),
        r=np.array([1.0, 0.0]),
        xi0=np.array([0.5, 0.5]),
        features=np.eye(2),
    )
    disc = DiscountSpec(gamma=0.5, lam=0.0)
    w_star = td_fixed_point_oracle(cycle, disc)
    assert np.max(np.abs(w_star - [4.0 / 3.0, 2.0 / 3.0])) < 1e-12
    errs = []
    for implicit in (False, True):
        res = run_td_evaluation(
            cycle,
            disc,
            make_schedule("polynomial", 0.5),
            10**6,
            seed=123,
            implicit=implicit,
            eval_window=10**6,
            target=(w_star, 0.02),
        )
        errs.append(float(np.max(np.abs(res.weights - w_star))))
        assert res.steps_completed <= 10**6

    # three seeded 5-state chains; the closed-form oracle behind
    # fixed_point_check is itself cross-validated by simulation in the unit
    # suite
    for seed in (0, 1, 2):
        report = fixed_point_check(
            5, seed, DiscountSpec(gamma=0.8, lam=0.5), 10**6, target_tol=0.02
        )
        errs.extend([report.err_standard, report.err_implicit])
    elapsed = time.perf_counter() - started
    print(f"criterion 4: max final error {max(errs):.4f} across cycle + 3 chains "
          f"x both learners, {elapsed:.1f}s")
    assert max(errs) <= 0.02
    assert elapsed < 60.0


def test_criterion_5_stability_separation():
    started = time.perf_counter()
    failures = []
    divergent_grid = tuple(a for a in ExperimentConfig(
        domain="cart_pole", algorithm="sarsa_standard").alpha0_grid if a >= 1.0)

    def sweep(config):
        # the sweep driver gives each cell run_cell's row, on every CPU
        rows = run_sweep(config, parallelism=os.cpu_count() or 1)
        # an error row records diverged=False: it must not pass as stable
        failures.extend(
            f"{config.domain}/{config.algorithm} alpha0={r.alpha0} seed {r.seed}: {r.status}"
            for r in rows if r.status != "ok"
        )
        return rows

    for domain in ("puddle_world", "cart_pole"):
        for algorithm in ("sarsa_standard", "sarsa_alpha_bound"):
            config = ExperimentConfig(domain=domain, algorithm=algorithm)
            rows = sweep(dataclasses.replace(config, alpha0_grid=divergent_grid))
            for alpha0 in divergent_grid:
                n_diverged = sum(r.diverged for r in rows if r.alpha0 == alpha0)
                if 2 * n_diverged <= config.n_seeds:
                    failures.append(
                        f"{domain}/{algorithm} alpha0={alpha0}: "
                        f"only {n_diverged}/{config.n_seeds} diverged"
                    )
        for algorithm in ("sarsa_implicit", "sarsa_implicit_alpha_bound"):
            for r in sweep(ExperimentConfig(domain=domain, algorithm=algorithm)):
                if r.diverged:
                    failures.append(
                        f"{domain}/{algorithm} alpha0={r.alpha0} seed {r.seed} diverged"
                    )
    elapsed = time.perf_counter() - started
    print(f"criterion 5: {len(failures)} violations, {elapsed:.0f}s")
    for line in failures:
        print("  " + line)
    assert not failures
    assert elapsed < 900.0


def test_criterion_6_contraction_dominance_audit():
    # audit every transition of one cell and re-derive the geometry alongside
    config = ExperimentConfig(
        domain="cart_pole",
        algorithm="sarsa_implicit",
        alpha0_grid=(0.5,),
        total_steps=12_000,
        n_seeds=1,
        eval_window=1000,
    )
    gamma = config.gamma
    geoms = []

    def capture(tr, alpha, e_used):
        geoms.append((e_used, tr.phi_t - gamma * tr.phi_next, alpha))

    run_cell(config, 0.5, 0, on_step=capture)
    _, rows = stability_audit_run(config, 0.5, 0, sample_every=1)
    assert len(rows) == len(geoms) >= 10_000

    shrink_violations = 0
    dominance_violations = 0
    aligned = 0
    for (_, row), (e, d, alpha) in zip(rows, geoms):
        report = audit_step(TransitionGeometry(e=e, d=d, alpha=alpha))
        assert report.sq_norm_implicit == row.sq_norm_implicit
        assert report.sq_norm_standard == row.sq_norm_standard
        if not alpha * report.beta * float(e @ e) < 1.0:
            shrink_violations += 1
        if float(e @ d) >= 0.0:
            aligned += 1
            if row.sq_norm_implicit > row.sq_norm_standard:
                dominance_violations += 1
    print(f"criterion 6: {len(rows)} rows audited ({aligned} aligned), "
          f"{shrink_violations} shrinkage and {dominance_violations} "
          f"dominance violations")
    assert shrink_violations == 0
    assert dominance_violations == 0


def test_criterion_7_linear_complexity_contract():
    started = time.perf_counter()
    # structural review: the update must stay in vector land, in the public
    # step, the checked step body it calls and the kernel
    for fn in (td_step_implicit, _td_step, implicit_step):
        source = inspect.getsource(fn)
        for token in ("outer", "eye(", "solve", "inv(", "matmul", "reshape"):
            assert token not in source, f"k x k construction suspected in {fn.__name__}: {token}"

    # allocation ceiling: one k=8192 step must stay far below k*k footprint
    disc = DiscountSpec(gamma=0.99, lam=0.9)
    rng = np.random.default_rng(0)
    k = 8192
    learner = TdLearnerState(weights=rng.normal(size=k), trace=np.zeros(k), disc=disc)
    tr = Transition(
        phi_t=rng.normal(size=k), reward=1.0, phi_next=rng.normal(size=k)
    )
    tracemalloc.start()
    td_step_implicit(learner, tr, 0.01, update_trace(learner.trace, tr.phi_t, disc))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 50 * k * 8  # a k x k float array alone would be k*k*8

    def step_time(k):
        learner = TdLearnerState(weights=rng.normal(size=k), trace=np.zeros(k), disc=disc)
        phis = rng.normal(size=(40, k))
        def run():
            for i in range(39):
                tr = Transition(
                    phi_t=phis[i], reward=0.01, phi_next=phis[i + 1]
                )
                e = update_trace(learner.trace, tr.phi_t, disc)
                td_step_implicit(learner, tr, 1e-4, e)
        return min(timeit.repeat(run, number=1, repeat=30)) / 39

    t4096 = step_time(4096)
    t8192 = step_time(8192)
    ratio = t8192 / t4096
    elapsed = time.perf_counter() - started
    print(f"criterion 7: peak step alloc {peak} bytes at k=8192, time ratio "
          f"{ratio:.2f} (k 4096 -> 8192), {elapsed:.1f}s")
    assert ratio <= 3.0
    assert elapsed < 30.0


def test_criterion_8_sweep_determinism(tmp_path):
    config = ExperimentConfig(
        domain="cart_pole",
        algorithm="sarsa_implicit",
        alpha0_grid=(0.25, 1.0),
        total_steps=1500,
        n_seeds=3,
        eval_window=500,
    )
    paths = [tmp_path / name for name in ("p1.csv", "p1_again.csv", "p8.csv")]
    run_sweep(config, parallelism=1, out_path=paths[0])
    run_sweep(config, parallelism=1, out_path=paths[1])
    run_sweep(config, parallelism=8, out_path=paths[2])
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2]
    print(f"criterion 8: {len(blobs[0])} byte CSV, parallelism 1/1/8 "
          f"identical: {identical}")
    assert identical
