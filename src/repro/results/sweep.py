"""Tabular view over the run records of one parameter sweep.

:class:`SweepResult` groups :class:`~repro.results.record.RunRecord` objects
into named series (usually one per protocol) and lines them up by the swept
value each record carries in its grid coordinates (``record.axes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.results.record import RunRecord


@dataclass
class SweepResult:
    """Results of sweeping one parameter for several series.

    A *series* is usually a protocol; matrices with secondary axes label
    series ``"spms[placement=random]"`` so every grid line stays visible.

    Attributes:
        parameter: Name of the swept parameter (e.g. ``"num_nodes"``).
        values: The swept values, in order.
        results: ``results[series]`` is that series' run records in sweep
            order; each record's ``axes[parameter]`` names its row.
    """

    parameter: str
    values: List[float] = field(default_factory=list)
    results: Dict[str, List[RunRecord]] = field(default_factory=dict)

    def add(self, series: str, value: float, result: RunRecord) -> None:
        """Record one run."""
        if value not in self.values:
            self.values.append(value)
        self.results.setdefault(series, []).append(result)

    def series(self, series: str, metric: str) -> List[float]:
        """Extract one metric across the sweep for one series."""
        return [getattr(r, metric) for r in self.results.get(series, [])]

    def by_value(self, series: str) -> Dict[object, RunRecord]:
        """Map each swept value to the series' record at that value.

        Alignment is by the record's ``axes[parameter]``, so series with
        holes (a quarantined job, a sparse fleet) keep every record on the
        right value.  Records that do not carry the parameter are left out.
        """
        aligned: Dict[object, RunRecord] = {}
        for record in self.results.get(series, []):
            if self.parameter in record.axes:
                aligned.setdefault(record.axes[self.parameter], record)
        return aligned

    def rows(self, metric: str) -> List[Dict[str, object]]:
        """Tabular view: one row per swept value, one column per series.

        Series with no run at a value (a protocol that skipped a point, a
        fleet of heterogeneous specs) simply omit that cell — consumers must
        tolerate sparse rows, and :meth:`format_table` renders them as ``-``.
        Results lacking *metric* are likewise skipped rather than raising.
        """
        aligned = {series: self.by_value(series) for series in self.results}
        rows = []
        for value in self.values:
            row: Dict[str, object] = {self.parameter: value}
            for series, by_value in aligned.items():
                match = by_value.get(value)
                if match is None:
                    continue
                metric_value = getattr(match, metric, None)
                if metric_value is not None:
                    row[series] = metric_value
            rows.append(row)
        return rows

    def format_table(self, metric: str, precision: int = 3) -> str:
        """Readable fixed-width table; missing cells render as ``-``."""
        series_names = sorted(self.results)
        width = max([14] + [len(name) for name in series_names])
        header = f"{self.parameter:>20} " + " ".join(
            f"{name:>{width}}" for name in series_names
        )
        lines = [header, "-" * len(header)]
        for row in self.rows(metric):
            cells = [f"{str(row[self.parameter]):>20}"]
            for name in series_names:
                value = row.get(name)
                cells.append(
                    f"{value:>{width}.{precision}f}"
                    if isinstance(value, (int, float))
                    else f"{'-':>{width}}"
                )
            lines.append(" ".join(cells))
        return "\n".join(lines)
