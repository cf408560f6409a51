"""The compiled event kernel replays the reference kernel bit for bit.

Both kernels pop events in the total order of unique ``(when, priority,
key)`` tuples, so any difference between them is a kernel bug.  These
tests hold them to each other on the repo's goldens: the full-scale
Figure 2 digest under each kernel, and the race fuzzer's identity and
permuted digests for all nine systems, including a known tie race whose
permuted runs diverge from the identity run.  The registry golden runs
under each kernel in ``test_registry_golden.py``.

With ``REPRO_KERNEL=python`` (or no C compiler) the compiled side is
skipped and the reference side still checks the goldens.
"""

from __future__ import annotations

import pytest

from repro.analysis.racefuzz import fuzz_all, fuzz_system
from repro.bench.recorder import metrics_digest
from repro.experiments import harness
from repro.experiments.figures import figure2
from repro.experiments.harness import RunConfig
from repro.sim.engine import KERNEL, ReferenceSimulator, Simulator

#: SHA-256 over the eighteen full-scale fig2 points (seed 42); the same
#: golden ``test_progress_digest.py`` pins.
FIG2_DIGEST = ("6cf80a3c0fedef8715b493f77836c658"
               "819ecf6c218ea670038a054db6f00dbc")

needs_compiled = pytest.mark.skipif(
    not KERNEL.compiled,
    reason=f"compiled kernel not loaded: {KERNEL.reason}")


def test_fullscale_fig2_digest(kernel):
    figure = figure2(config=RunConfig(seed=42), scale=1.0)
    metrics = [point.metrics for sweep in figure.sweeps
               for point in sweep.points]
    assert metrics_digest(metrics) == FIG2_DIGEST


def _race_digests(monkeypatch, sim_class, **kwargs):
    """``{system: (identity, permuted...)}`` with points on *sim_class*."""
    monkeypatch.setattr(harness, "Simulator", sim_class)
    return {report.system: (report.identity_digest,
                            *(o.digest for o in report.outcomes))
            for report in fuzz_all(**kwargs)}


@needs_compiled
def test_race_fuzzer_digests_match_for_every_system(monkeypatch):
    kwargs = dict(permutations=3, scale=0.1, rate_rps=400e3)
    compiled = _race_digests(monkeypatch, Simulator, **kwargs)
    reference = _race_digests(monkeypatch, ReferenceSimulator, **kwargs)
    assert len(compiled) == 9
    assert compiled == reference


@needs_compiled
def test_divergent_permutations_match_across_kernels(monkeypatch):
    """A tie race makes permuted runs differ from the identity run; each
    permuted run must still be the same under both kernels."""
    digests = {}
    for sim_class in (Simulator, ReferenceSimulator):
        monkeypatch.setattr(harness, "Simulator", sim_class)
        report = fuzz_system("workstealing", scale=1.0, run_seed=10)
        assert report.verdict == "divergent"
        digests[sim_class] = (report.identity_digest,
                              [o.digest for o in report.outcomes])
    assert digests[Simulator] == digests[ReferenceSimulator]
