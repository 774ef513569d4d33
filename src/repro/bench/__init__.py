"""Result tables and ASCII charts shared by the experiments, CLI and exporters."""

from .chart import bar_chart, sparkline
from .runner import ResultTable, speedup

__all__ = [
    "ResultTable",
    "bar_chart",
    "sparkline",
    "speedup",
]
