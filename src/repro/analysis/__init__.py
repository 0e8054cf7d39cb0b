"""Result handling: incumbent traces, multi-seed aggregation, tables."""

from .ascii_chart import render_chart, sparkline
from .mispromotion import MispromotionStudy, mispromotion_curve, simulate_mispromotions
from .results import AggregateCurve, RunRecord, aggregate
from .stats import (
    MethodSummary,
    bootstrap_ci,
    final_values,
    summarize,
    time_to_target,
    times_to_target,
    win_matrix,
)
from .tables import format_value, render_series, render_table
from .tracker import IncumbentTrace, trace_incumbent

__all__ = [
    "AggregateCurve",
    "IncumbentTrace",
    "MethodSummary",
    "MispromotionStudy",
    "RunRecord",
    "aggregate",
    "bootstrap_ci",
    "format_value",
    "render_chart",
    "sparkline",
    "mispromotion_curve",
    "render_series",
    "render_table",
    "simulate_mispromotions",
    "summarize",
    "time_to_target",
    "times_to_target",
    "trace_incumbent",
    "win_matrix",
    "final_values",
]
