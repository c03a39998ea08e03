"""Golden bytes: sweep.csv and audit.csv outputs compared byte for byte.

Run-against-run determinism cannot see a change that moves every number by
one ulp; these committed files can. A change that moves any byte must list
the moved rows, and why, before the files under tests/golden/ are rewritten
with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from implicit_td.harness import ExperimentConfig, run_sweep, stability_audit_run

GOLDEN = Path(__file__).resolve().parent / "golden"
# Where the files were recorded. Dot products go through the BLAS kernel
# OpenBLAS picks for the CPU core at run time, and other kernels (Haswell or
# Zen on AVX2-only machines) round some sums differently, which moves bytes.
RECORDED_ON = (
    "x86_64, OpenBLAS core SkylakeX (AVX-512), numpy 2.4.6, Python 3.11.7"
)

SARSA_ALGORITHMS = (
    "sarsa_standard",
    "sarsa_implicit",
    "sarsa_alpha_bound",
    "sarsa_implicit_alpha_bound",
)
# stable, then diverging for the standard rules (td_standard at 8, sarsa_standard at 1 and 8)
ALPHA0_GRID = (0.125, 1.0, 8.0)
BASE_SEED = 7


def _sweep(domain: str, algorithm: str, **over) -> ExperimentConfig:
    td = domain == "random_mrp"
    steps = 3000 if td else 1000
    base = dict(
        domain=domain,
        algorithm=algorithm,
        alpha0_grid=ALPHA0_GRID,
        total_steps=steps,
        n_seeds=2,
        eval_window=steps // 2,
        base_seed=BASE_SEED,
    )
    base.update(over)
    return ExperimentConfig(**base)


# file name -> config; every (domain, algorithm) pair the config allows
SWEEPS = {
    f"sweep_{domain}_{algorithm}.csv": _sweep(domain, algorithm)
    for domain, algorithms in (
        ("puddle_world", SARSA_ALGORITHMS),
        ("cart_pole", SARSA_ALGORITHMS),
        ("random_mrp", ("td_standard", "td_implicit")),
    )
    for algorithm in algorithms
}
# first |w| > 1e8 at step 1529, between the 1000- and 2000-step divergence checks
SWEEPS["sweep_random_mrp_td_standard_between_checks.csv"] = _sweep(
    "random_mrp", "td_standard", alpha0_grid=(1.375,), total_steps=5000, n_seeds=1
)

# file name -> (config, alpha0, sample_every); seed index 0
AUDITS = {
    "audit_puddle_world.csv": (_sweep("puddle_world", "sarsa_implicit", total_steps=600), 0.5, 7),
    "audit_cart_pole.csv": (_sweep("cart_pole", "sarsa_implicit", total_steps=600), 0.5, 7),
    "audit_random_mrp.csv": (_sweep("random_mrp", "td_implicit", total_steps=2000), 0.125, 23),
}


def render(name: str, out_dir: Path) -> bytes:
    path = out_dir / name
    if name in SWEEPS:
        run_sweep(SWEEPS[name], out_path=path)
    else:
        config, alpha0, sample_every = AUDITS[name]
        stability_audit_run(config, alpha0, 0, sample_every, out_path=path)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(SWEEPS) + sorted(AUDITS))
def test_output_bytes_match_golden(name, tmp_path):
    assert render(name, tmp_path) == (GOLDEN / name).read_bytes(), (
        f"{name} differs from the golden bytes recorded on {RECORDED_ON}; "
        "numpy.show_runtime() (with threadpoolctl installed) names this "
        "machine's OpenBLAS core"
    )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(SWEEPS) + sorted(AUDITS):
        render(name, GOLDEN)
        print(f"wrote {GOLDEN / name}")
