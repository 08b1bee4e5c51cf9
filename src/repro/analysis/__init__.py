"""Result accounting and report formatting."""

from repro.analysis.costs import CostLedger
from repro.analysis.stats import BootstrapCI, bootstrap_mean_ci, paired_savings
from repro.analysis.serialize import load_report, save_report
from repro.textfmt import format_histogram, format_table, sparkline, timeseries_plot

__all__ = [
    "format_table",
    "format_histogram",
    "CostLedger",
    "sparkline",
    "timeseries_plot",
    "BootstrapCI",
    "bootstrap_mean_ci",
    "paired_savings",
    "load_report",
    "save_report",
]
