"""Experiment metrics and text reporting."""

from .ascii import bar_chart, series_chart
from .export import row_to_dict, rows_to_csv, rows_to_json, write_rows
from .reporting import format_value, render_table
from .statistics import (
    MeanCI, batch_means_ci, compare_runs, mser5_truncation, t_quantile,
)
from .summary import HitRatioSummary, hit_ratio_summary, percent_of, speedup

__all__ = [
    "speedup",
    "percent_of",
    "HitRatioSummary",
    "hit_ratio_summary",
    "render_table",
    "format_value",
    "bar_chart",
    "series_chart",
    "row_to_dict",
    "rows_to_csv",
    "rows_to_json",
    "write_rows",
    "MeanCI",
    "batch_means_ci",
    "compare_runs",
    "mser5_truncation",
    "t_quantile",
]
