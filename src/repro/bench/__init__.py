"""Result tables and ASCII charts shared by the experiments, CLI and exporters."""

from .chart import bar_chart, series_chart, sparkline
from .runner import ResultTable, geometric_mean, speedup

__all__ = [
    "ResultTable",
    "bar_chart",
    "geometric_mean",
    "series_chart",
    "sparkline",
    "speedup",
]
