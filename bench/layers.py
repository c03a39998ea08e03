"""Which implicit_td functions the traced run wraps, and the per-layer metrics.

Each public function is rebound in the namespace where its caller looks it
up: `sarsa_episode` finds `td_step_implicit` in `implicit_td.control`, the
cell driver finds `fourier_features` in `implicit_td.harness`, and so on.
The lean TD-evaluation loop inside `run_td_evaluation` calls nothing per
step, so its cost shows as that function's self time.

Metric values are self time per call unless the name says otherwise. Counts
are per traced round (`harness.fixed_point_steps`: per check), so they
repeat exactly from run to run.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

from implicit_td import control, envs, harness, learners
from spans import Binding, SpanStats


def _k_of_state(state, *args, **kwargs) -> str:
    return f"k{state.weights.shape[0]}"


def _k_of_basis(basis, *args, **kwargs) -> str:
    return f"k{basis.coefficients.shape[0]}"


def _k_of_geometry(geometry, *args, **kwargs) -> str:
    return f"k{geometry.e.shape[0]}"


def _schedule_kind(schedule, *args, **kwargs) -> str:
    return schedule.kind


def _step_count(state, *args, **kwargs) -> int:
    return state.step_count


def _count_applied(counters: Counter, before: int, result, args: tuple) -> None:
    counters["learners.td_step_calls"] += 1
    counters["learners.td_step_applied"] += args[0].step_count != before


def _alpha_current(schedule, *args, **kwargs) -> float:
    return schedule.alpha_current


def _count_tightened(counters: Counter, before: float, result, args: tuple) -> None:
    counters["stepsize.cap_tightened"] += args[0].alpha_current < before


def _count_presampled(counters: Counter, token, result, args: tuple) -> None:
    counters["envs.path_presampled"] += args[1]


def _count_td_steps(counters: Counter, token, result, args: tuple) -> None:
    counters["harness.td_eval_steps"] += result.steps_completed


def _count_sarsa_steps(counters: Counter, token, result, args: tuple) -> None:
    counters["control.sarsa_steps"] += result.steps


def _count_fixed_point_steps(counters: Counter, token, result, args: tuple) -> None:
    counters["harness.fixed_point_steps"] += result.steps_standard + result.steps_implicit


def _count_audit_bytes(counters: Counter, token, result, args: tuple) -> None:
    counters["harness.audit_csv_bytes"] += Path(args[1]).stat().st_size


def bindings() -> list[Binding]:
    """Every rebinding the traced run installs, grouped by layer."""
    h, c = harness, control
    step = dict(tag=_k_of_state, before=_step_count, after=_count_applied)
    alpha = dict(tag=_schedule_kind, before=_alpha_current, after=_count_tightened)
    return [
        # envs
        Binding(envs.PuddleWorld, "step", "envs.step.puddle_world"),
        Binding(envs.CartPole, "step", "envs.step.cart_pole"),
        Binding(envs.PuddleWorld, "reset", "envs.reset"),
        Binding(envs.CartPole, "reset", "envs.reset"),
        Binding(h, "fourier_features", "envs.fourier_features", tag=_k_of_basis),
        Binding(h, "make_fourier_basis", "envs.make_fourier_basis"),
        Binding(h, "random_chain_mrp", "envs.random_chain_mrp"),
        Binding(h, "sample_state_path", "envs.sample_state_path", after=_count_presampled),
        # control
        Binding(h, "sarsa_episode", "control.sarsa_episode", after=_count_sarsa_steps),
        Binding(c, "epsilon_greedy", "control.epsilon_greedy"),
        Binding(c, "action_values", "control.action_values"),
        Binding(c, "stack_features", "control.stack_features"),
        # core
        Binding(c, "Transition", "core.transition"),
        Binding(h, "Transition", "core.transition"),
        Binding(c, "update_trace", "core.update_trace"),
        Binding(learners, "update_trace", "core.update_trace"),
        Binding(h, "update_trace", "core.update_trace"),
        # learners
        Binding(c, "td_step_standard", "learners.td_step_standard", **step),
        Binding(c, "td_step_implicit", "learners.td_step_implicit", **step),
        Binding(h, "td_step_standard", "learners.td_step_standard", **step),
        Binding(h, "td_step_implicit", "learners.td_step_implicit", **step),
        Binding(h, "make_learner", "learners.make_learner"),
        Binding(h, "td_fixed_point_oracle", "learners.td_fixed_point_oracle"),
        # stepsize
        Binding(c, "next_alpha", "stepsize.next_alpha", **alpha),
        Binding(h, "next_alpha", "stepsize.next_alpha", **alpha),
        Binding(h, "make_schedule", "stepsize.make_schedule"),
        # stability
        Binding(h, "audit_step", "stability.audit_step", tag=_k_of_geometry),
        # harness
        Binding(h, "run_sweep", "harness.run_sweep"),
        Binding(h, "run_cell", "harness.run_cell"),
        Binding(h, "run_td_evaluation", "harness.run_td_evaluation", after=_count_td_steps),
        Binding(h, "stability_audit_run", "harness.stability_audit_run"),
        Binding(
            h, "fixed_point_check", "harness.fixed_point_check", after=_count_fixed_point_steps
        ),
        Binding(h, "write_sweep_csv", "harness.write_sweep_csv"),
        Binding(h, "write_audit_csv", "harness.write_audit_csv", after=_count_audit_bytes),
    ]


def _per_call_us(span: str) -> Callable[[SpanStats, int], float | None]:
    def value(s: SpanStats, rounds: int) -> float | None:
        n = s.calls(span)
        return s.self_total_ns(span) / n / 1e3 if n else None

    return value


def _self_us_per(span: str, counter: str) -> Callable[[SpanStats, int], float | None]:
    def value(s: SpanStats, rounds: int) -> float | None:
        n = s.counters[counter]
        return s.self_total_ns(span) / n / 1e3 if n and s.calls(span) else None

    return value


def _ratio(num: Callable[[SpanStats], float], den: Callable[[SpanStats], float]):
    def value(s: SpanStats, rounds: int) -> float | None:
        d = den(s)
        return num(s) / d if d else None

    return value


def _per_round(count: Callable[[SpanStats], float]):
    def value(s: SpanStats, rounds: int) -> float | None:
        n = count(s)
        return n / rounds if n else None

    return value


def _call_ms(span: str, q: float):
    def value(s: SpanStats, rounds: int) -> float | None:
        d = s.durations_ns(span)
        return float(np.quantile(d, q)) / 1e6 if d.size else None

    return value


def _call_s(span: str):
    def value(s: SpanStats, rounds: int) -> float | None:
        d = s.durations_ns(span)
        return float(d.mean()) / 1e9 if d.size else None

    return value


def _counter(name: str) -> Callable[[SpanStats], float]:
    return lambda s: s.counters[name]


def _calls(span: str) -> Callable[[SpanStats], float]:
    return lambda s: s.calls(span)


# name -> (unit, value from one tracer's stats and its number of rounds)
SPAN_METRICS: dict[str, tuple[str, Callable[[SpanStats, int], float | None]]] = {
    "envs.step_us.puddle_world": ("us", _per_call_us("envs.step.puddle_world")),
    "envs.step_us.cart_pole": ("us", _per_call_us("envs.step.cart_pole")),
    "envs.reset_us": ("us", _per_call_us("envs.reset")),
    "envs.episodes": ("count", _per_round(_calls("envs.reset"))),
    "envs.fourier_features_us.k16": ("us", _per_call_us("envs.fourier_features.k16")),
    "envs.fourier_features_us.k256": ("us", _per_call_us("envs.fourier_features.k256")),
    "envs.sample_state_path_us_per_step": (
        "us",
        _self_us_per("envs.sample_state_path", "envs.path_presampled"),
    ),
    "envs.path_used_frac": (
        "1",
        _ratio(_counter("harness.td_eval_steps"), _counter("envs.path_presampled")),
    ),
    "control.sarsa_episode_self_us_per_step": (
        "us",
        _self_us_per("control.sarsa_episode", "control.sarsa_steps"),
    ),
    "control.epsilon_greedy_us": ("us", _per_call_us("control.epsilon_greedy")),
    "control.action_values_us": ("us", _per_call_us("control.action_values")),
    "control.stack_features_us": ("us", _per_call_us("control.stack_features")),
    "core.transition_us": ("us", _per_call_us("core.transition")),
    "core.update_trace_us": ("us", _per_call_us("core.update_trace")),
    "core.update_trace_calls_per_step": (
        "1",
        _ratio(_calls("core.update_trace"), _counter("control.sarsa_steps")),
    ),
    "learners.td_step_standard_us.k64": ("us", _per_call_us("learners.td_step_standard.k64")),
    "learners.td_step_standard_us.k512": ("us", _per_call_us("learners.td_step_standard.k512")),
    "learners.td_step_implicit_us.k64": ("us", _per_call_us("learners.td_step_implicit.k64")),
    "learners.td_step_implicit_us.k512": ("us", _per_call_us("learners.td_step_implicit.k512")),
    "learners.steps_applied_frac": (
        "1",
        _ratio(_counter("learners.td_step_applied"), _counter("learners.td_step_calls")),
    ),
    "stepsize.next_alpha_us.constant": ("us", _per_call_us("stepsize.next_alpha.constant")),
    "stepsize.next_alpha_us.alpha_bound": ("us", _per_call_us("stepsize.next_alpha.alpha_bound")),
    "stepsize.cap_tightened_frac": (
        "1",
        _ratio(_counter("stepsize.cap_tightened"), _calls("stepsize.next_alpha.alpha_bound")),
    ),
    "stability.audit_step_us.k64": ("us", _per_call_us("stability.audit_step.k64")),
    "stability.audit_step_us.k512": ("us", _per_call_us("stability.audit_step.k512")),
    "stability.audit_calls": (
        "count",
        _per_round(
            lambda s: s.calls("stability.audit_step.k64") + s.calls("stability.audit_step.k512")
        ),
    ),
    "harness.run_cell_ms.p50": ("ms", _call_ms("harness.run_cell", 0.5)),
    "harness.run_cell_ms.p90": ("ms", _call_ms("harness.run_cell", 0.9)),
    "harness.run_cell_calls": ("count", _per_round(_calls("harness.run_cell"))),
    "harness.run_td_evaluation_self_us_per_step": (
        "us",
        _self_us_per("harness.run_td_evaluation", "harness.td_eval_steps"),
    ),
    "harness.fixed_point_steps": (
        "count",
        _ratio(_counter("harness.fixed_point_steps"), _calls("harness.fixed_point_check")),
    ),
    "harness.write_audit_csv_s": ("s", _call_s("harness.write_audit_csv")),
    "harness.audit_csv_bytes": ("bytes", _per_round(_counter("harness.audit_csv_bytes"))),
    "harness.write_sweep_csv_s": ("s", _call_s("harness.write_sweep_csv")),
}


def span_metrics(main: SpanStats, main_rounds: int, cover: SpanStats | None, cover_rounds: int):
    """Per-layer values from the workload's own trace.

    A metric the workload never reaches (say `stability.audit_step_us.k64` on
    `control_sweep`) is taken from the cut-down coverage rounds instead, and
    its name is returned in the second value.
    """
    values: dict[str, float] = {}
    covered: list[str] = []
    for name, (_, fn) in SPAN_METRICS.items():
        value = fn(main, main_rounds)
        if value is None and cover is not None:
            value = fn(cover, cover_rounds)
            covered.append(name)
        if value is not None:
            values[name] = value
    return values, covered
