"""Measurement utilities: lower bounds, ratios, and table rendering."""

from repro.analysis.bounds import (
    critical_path_lower_bound,
    lower_bound,
    lp1_lower_bound,
    lp2_lower_bound,
    single_job_lower_bound,
    work_lower_bound,
)
from repro.analysis.perjob import PerJobStats, per_job_stats
from repro.analysis.ratios import RatioMeasurement, measure_ratio
from repro.analysis.tables import format_markdown_table, format_table

__all__ = [
    "PerJobStats",
    "per_job_stats",
    "lower_bound",
    "lp1_lower_bound",
    "lp2_lower_bound",
    "single_job_lower_bound",
    "critical_path_lower_bound",
    "work_lower_bound",
    "RatioMeasurement",
    "measure_ratio",
    "format_table",
    "format_markdown_table",
]
