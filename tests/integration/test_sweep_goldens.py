"""Pinned digests and event counts of three short sweeps, per kernel.

The full-scale Figure 2 digest (``test_kernel_differential.py``) takes
the better part of a minute; these three take about two seconds and
cover what it does not: a reduced fig2 horizon, the calibrated fast
path (anchor probes included in the event count), and one point of
every registered system.  Each runs under both event kernels through
the ``kernel`` fixture; with ``REPRO_KERNEL=python`` only the reference
side runs.  A change that moves a digest or an event count changes the
simulation, whatever it does to speed.
"""

from __future__ import annotations

from repro.bench.recorder import metrics_digest
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    make_executor,
)
from repro.experiments.fastpath import parse_fastpath_mode
from repro.experiments.figures import figure2
from repro.experiments.harness import RunConfig
from repro.systems import registry
from repro.units import us
from repro.workload.distributions import Fixed

#: Eighteen fig2 points at scale 0.1, seed 42, exact engine.
FIG2_TENTH_DIGEST = ("bf0e679ff428d9f1f9d36f5465cc22cd"
                     "c56050d4df506f277b79fcce91f32b24")
FIG2_TENTH_EVENTS = 154_047

#: Eighteen full-scale fig2 points under ``--fastpath auto``; the event
#: count includes the anchor and capacity probes the model ran.
FIG2_FASTPATH_DIGEST = ("1184efb9f5a2196b27373082fd7c4e83"
                        "ebc0c154558071c06dee05909493390f")
FIG2_FASTPATH_EVENTS = 320_694

#: One point per registered system at 200 kRPS, fixed 2 us, scale 0.2.
SYSTEMS_DIGEST = ("f829559c8ef9363e972b80598a162519"
                  "3d19c3c3f02648aeba122db7717a11a9")
SYSTEMS_EVENTS = 71_337


def _fig2(scale, fastpath="off"):
    """``(digest, events)`` of a serial, uncached fig2 sweep."""
    executor = make_executor(jobs=1)
    config = RunConfig(seed=42, fastpath=parse_fastpath_mode(fastpath))
    figure = figure2(config=config, scale=scale, executor=executor)
    metrics = [point.metrics for sweep in figure.sweeps
               for point in sweep.points]
    assert len(metrics) == 18
    return metrics_digest(metrics), executor.stats.events_executed


def test_fig2_tenth_scale(kernel):
    assert _fig2(0.1) == (FIG2_TENTH_DIGEST, FIG2_TENTH_EVENTS)


def test_fig2_fastpath_auto(kernel):
    assert _fig2(1.0, "auto") == (FIG2_FASTPATH_DIGEST,
                                  FIG2_FASTPATH_EVENTS)


def test_one_point_per_registered_system(kernel):
    config = RunConfig(seed=42).scaled(0.2)
    distribution = Fixed(us(2.0))
    names = [entry.name for entry in registry.list_systems()]
    specs = [PointSpec(factory=ConfiguredFactory.by_name(
                           name, registry.default_config(name)),
                       rate_rps=200e3, distribution=distribution,
                       config=config, label=name)
             for name in names]
    executor = make_executor(jobs=1)
    results = executor.run_points(specs)
    assert len(results) == len(names) == 9
    assert (metrics_digest(results), executor.stats.events_executed) == (
        SYSTEMS_DIGEST, SYSTEMS_EVENTS)
