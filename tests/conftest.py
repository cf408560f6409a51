"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.experiments import harness
from repro.experiments.harness import RunConfig
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import KERNEL, ReferenceSimulator, Simulator
from repro.sim.rng import RngRegistry
from repro.units import ms


@pytest.fixture(autouse=True)
def _no_ambient_tiebreak(monkeypatch):
    """Strip ``REPRO_TIEBREAK`` so an ambient permutation spec (e.g. a
    CI race job's environment) cannot skew golden digests; tests that
    exercise the seam set it explicitly."""
    monkeypatch.delenv("REPRO_TIEBREAK", raising=False)


@pytest.fixture(scope="session", params=["c", "python"])
def sim_class(request) -> type:
    """The simulator class of each event kernel: ``c`` is the compiled
    kernel (skipped when it did not load) and ``python`` the reference.

    Session-scoped, so hypothesis tests may use it too.
    """
    if request.param == "python":
        return ReferenceSimulator
    if not KERNEL.compiled:
        pytest.skip(f"compiled kernel not loaded: {KERNEL.reason}")
    return Simulator


@pytest.fixture
def kernel(sim_class, monkeypatch) -> type:
    """Like ``sim_class``, and the harness builds its points on it."""
    monkeypatch.setattr(harness, "Simulator", sim_class)
    return sim_class


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rngs() -> RngRegistry:
    """A seeded RNG registry."""
    return RngRegistry(seed=1234)


@pytest.fixture
def fast_config() -> RunConfig:
    """A short-horizon run config for system-level tests."""
    return RunConfig(seed=7, horizon_ns=ms(3.0), warmup_ns=ms(0.5))


@pytest.fixture
def metrics(sim: Simulator) -> MetricsCollector:
    """A collector with no warmup (every request measured)."""
    return MetricsCollector(sim, warmup_ns=0.0)
