"""Tests for the statistics the engine and the figure benchmarks use:
``repro.obs.metrics.percentile`` and ``benchmarks.harness``'s
``cdf_at`` and ``linear_regression``."""

import pytest

from benchmarks.harness import cdf_at, linear_regression
from repro.obs.metrics import percentile


class TestPercentileCdf:
    def test_percentile_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_cdf_at(self):
        values = [1, 2, 3, 4]
        assert cdf_at(values, 2) == 0.5
        assert cdf_at(values, 0) == 0.0
        assert cdf_at(values, 10) == 1.0


class TestLinearRegression:
    def test_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2 * x + 1 for x in xs]
        slope, intercept = linear_regression(xs, ys)
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_figure6_style_fit(self):
        # Latency = 8.3 ms per tablet + noise-free base.
        xs = list(range(1, 33))
        ys = [8.3 * x + 31.0 for x in xs]
        slope, intercept = linear_regression(xs, ys)
        assert slope == pytest.approx(8.3)
        assert intercept == pytest.approx(31.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            linear_regression([1.0], [2.0])
        with pytest.raises(ValueError):
            linear_regression([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            linear_regression([1.0, 2.0], [1.0])
