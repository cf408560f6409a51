"""Unit tests for the calibrated fast-path model pieces.

The end-to-end accuracy envelope lives in
``tests/integration/test_fastpath_differential.py``; this file pins the
configuration surface, the anchor-config arithmetic, the
ramp-corrected capacity fit, and the routing rules (faults force
exact, cache keys separate fast-path results from plain runs).
"""

import pytest

from dataclasses import replace

from repro.errors import ExperimentError
from repro.experiments.executor import (
    ConfiguredFactory,
    PointSpec,
    make_executor,
    spec_cache_key,
)
from repro.experiments.fastpath import (
    FastPathConfig,
    _capacity_fit,
    anchor_config,
    extrapolate_overload,
    extrapolate_stable,
    parse_fastpath_mode,
    short_anchor_config,
)
from repro.experiments.figures import figure2
from repro.experiments.harness import RunConfig, run_point_with_events
from repro.faults.plan import FaultPlan, RecoveryPlan
from repro.metrics.summary import (
    LatencySummary,
    RunMetrics,
    ThroughputSummary,
)
from repro.workload.distributions import BIMODAL_FIG2


def make_metrics(achieved_rps, window_ns, offered_rps=None, dropped=0,
                 p50=100.0, p99=500.0):
    completed = int(round(achieved_rps * window_ns * 1e-9))
    offered = achieved_rps if offered_rps is None else offered_rps
    generated = int(round(offered * window_ns * 1e-9))
    return RunMetrics(
        latency=LatencySummary(count=completed, mean_ns=p50, p50_ns=p50,
                               p90_ns=(p50 + p99) / 2, p99_ns=p99,
                               p999_ns=p99 * 1.2, max_ns=p99 * 1.5),
        throughput=ThroughputSummary(
            offered_rps=offered, achieved_rps=achieved_rps,
            generated=generated, completed=completed, dropped=dropped,
            window_ns=window_ns),
        preemptions=10, mean_slowdown=2.0, worker_wait_fraction=0.25)


class TestFastPathConfig:
    def test_defaults_are_valid(self):
        fp = FastPathConfig()
        assert fp.mode == "auto"
        assert 0 < fp.knee_lo <= fp.knee_hi <= fp.deep_lo

    @pytest.mark.parametrize("bad", [
        {"mode": "off"},  # off is spelled as fastpath=None, not a mode
        {"mode": "fast"},
        {"calibration_scale": 0.0},
        {"calibration_scale": 1.5},
        {"knee_lo": 0.0},
        {"knee_lo": 1.1, "knee_hi": 1.0},
        {"knee_hi": 1.5, "deep_lo": 1.2},
    ])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ExperimentError):
            FastPathConfig(**bad)

    def test_parse_modes(self):
        assert parse_fastpath_mode("off") is None
        assert parse_fastpath_mode("auto").mode == "auto"
        assert parse_fastpath_mode("force").mode == "force"
        with pytest.raises(ExperimentError):
            parse_fastpath_mode("maybe")


class TestAnchorConfigs:
    def test_anchor_scales_horizon_and_strips_fastpath(self):
        config = RunConfig(seed=7, horizon_ns=10e6, warmup_ns=2e6,
                           fastpath=FastPathConfig(calibration_scale=0.2))
        a_cfg = anchor_config(config)
        assert a_cfg.fastpath is None
        assert a_cfg.horizon_ns == pytest.approx(2e6)
        assert a_cfg.warmup_ns == pytest.approx(0.4e6)
        assert a_cfg.seed == 7

    def test_floor_lifts_short_horizons(self):
        fp = FastPathConfig(calibration_scale=0.1,
                            anchor_horizon_floor_ns=500_000.0)
        config = RunConfig(horizon_ns=1e6, warmup_ns=0.2e6, fastpath=fp)
        a_cfg = anchor_config(config)
        # 0.1 * 1e6 = 100k < floor: lifted to the floor, not below.
        assert a_cfg.horizon_ns == pytest.approx(500_000.0)

    def test_anchor_never_exceeds_requested_horizon(self):
        fp = FastPathConfig(calibration_scale=0.5,
                            anchor_horizon_floor_ns=5e9)
        config = RunConfig(horizon_ns=1e6, warmup_ns=0.2e6, fastpath=fp)
        assert anchor_config(config).horizon_ns <= config.horizon_ns

    def test_short_anchor_is_half_scale(self):
        config = RunConfig(horizon_ns=100e6, warmup_ns=20e6,
                           fastpath=FastPathConfig(calibration_scale=0.2))
        s_cfg = short_anchor_config(config)
        assert s_cfg is not None
        assert s_cfg.horizon_ns == pytest.approx(10e6)

    def test_short_anchor_collapses_under_floor(self):
        # Both scales floor-lift to the same horizon: no usable pair.
        fp = FastPathConfig(calibration_scale=0.2,
                            anchor_horizon_floor_ns=500_000.0)
        config = RunConfig(horizon_ns=1e6, warmup_ns=0.1e6, fastpath=fp)
        assert short_anchor_config(config) is None


class TestCapacityFit:
    def test_single_anchor_returns_achieved(self):
        cfg = RunConfig(horizon_ns=2e6, warmup_ns=0.0)
        m = make_metrics(500e3, 2e6)
        c, d = _capacity_fit([(m, cfg)])
        assert c == pytest.approx(500e3)
        assert d == 0.0

    def test_pair_recovers_true_capacity_and_deficit(self):
        # achieved(win) = C - D/win with C = 600k rps, D = 0.3 requests:
        # both anchors under-measure, the fit recovers both unknowns.
        capacity, deficit = 600e3, 0.3
        win_s, win_l = 1e6, 2e6
        short_cfg = RunConfig(horizon_ns=win_s, warmup_ns=0.0)
        long_cfg = RunConfig(horizon_ns=win_l, warmup_ns=0.0)
        short = make_metrics(capacity - deficit * 1e9 / win_s, win_s)
        long = make_metrics(capacity - deficit * 1e9 / win_l, win_l)
        c, d = _capacity_fit([(short, short_cfg), (long, long_cfg)])
        assert c == pytest.approx(capacity, rel=1e-9)
        assert d == pytest.approx(deficit, rel=1e-9)

    def test_noise_inverted_pair_clamps_to_long_anchor(self):
        # Short anchor measuring *more* than the long one is noise; the
        # deficit clamps at zero instead of predicting below achieved.
        short_cfg = RunConfig(horizon_ns=1e6, warmup_ns=0.0)
        long_cfg = RunConfig(horizon_ns=2e6, warmup_ns=0.0)
        c, d = _capacity_fit([
            (make_metrics(510e3, 1e6), short_cfg),
            (make_metrics(500e3, 2e6), long_cfg)])
        assert c == pytest.approx(500e3)
        assert d == 0.0


class TestOverloadExtrapolation:
    def test_throughput_pins_at_capacity_and_counts_scale(self):
        fp = FastPathConfig()
        config = RunConfig(horizon_ns=10e6, warmup_ns=2e6, fastpath=fp)
        a_cfg = anchor_config(config)
        win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
        anchor = make_metrics(500e3, win_a, offered_rps=1000e3)
        out = extrapolate_overload([(anchor, a_cfg)], 1000e3, config, fp)
        t = out.throughput
        assert t.offered_rps == 1000e3
        assert t.achieved_rps == pytest.approx(500e3)
        win = config.horizon_ns - config.warmup_ns
        assert t.completed == int(round(500e3 * win * 1e-9))
        assert t.window_ns == pytest.approx(win)
        lat = out.latency
        assert lat.p50_ns <= lat.p90_ns <= lat.p99_ns <= lat.p999_ns \
            <= lat.max_ns
        # Deep overload (u = 2 > deep_lo): latency must grow beyond the
        # anchor's, and the tight p99 envelope applies.
        assert lat.p99_ns > anchor.latency.p99_ns
        assert out.provenance.method == "plateau-drain"
        assert out.provenance.p99_error_bound == fp.p99_error_bound

    def test_shoulder_provenance_widens_p99_bound(self):
        fp = FastPathConfig()
        config = RunConfig(horizon_ns=10e6, warmup_ns=2e6, fastpath=fp)
        a_cfg = anchor_config(config)
        win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
        anchor = make_metrics(500e3, win_a, offered_rps=550e3)
        out = extrapolate_overload([(anchor, a_cfg)], 550e3, config, fp)
        # u = 1.1 < deep_lo: only the loose shoulder bound is claimed.
        assert out.provenance.p99_error_bound == \
            fp.shoulder_p99_error_bound

    def test_dropping_anchor_uses_spread_slope(self):
        # With drops, latency is pinned at the queue cap: the predicted
        # p99 must stay near the anchor's, not grow with the backlog.
        fp = FastPathConfig()
        config = RunConfig(horizon_ns=10e6, warmup_ns=2e6, fastpath=fp)
        a_cfg = anchor_config(config)
        win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
        anchor = make_metrics(500e3, win_a, offered_rps=1000e3,
                              dropped=400, p50=490.0, p99=500.0)
        out = extrapolate_overload([(anchor, a_cfg)], 1000e3, config, fp)
        assert out.latency.p99_ns < 2 * anchor.latency.p99_ns
        assert out.throughput.dropped > anchor.throughput.dropped


class TestStableExtrapolation:
    def test_distribution_transfers_counts_scale(self):
        fp = FastPathConfig()
        config = RunConfig(horizon_ns=10e6, warmup_ns=2e6, fastpath=fp)
        a_cfg = anchor_config(config)
        win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
        anchor = make_metrics(300e3, win_a)
        out = extrapolate_stable(anchor, 300e3, a_cfg, config, fp)
        ratio = (config.horizon_ns - config.warmup_ns) / win_a
        assert out.latency.p99_ns == anchor.latency.p99_ns
        assert out.throughput.completed == \
            int(round(anchor.throughput.completed * ratio))
        assert out.provenance.method == "anchor-scale"
        assert out.mean_slowdown == anchor.mean_slowdown

    def test_achieved_tracks_serving_ratio_not_windowed_rate(self):
        """A short anchor's windowed rate under-measures by the
        in-flight tail; the count ratio is the honest signal."""
        fp = FastPathConfig()
        config = RunConfig(horizon_ns=10e6, warmup_ns=2e6, fastpath=fp)
        a_cfg = anchor_config(config)
        win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
        # 380k/400k completed: windowed achieved says 95%, but the
        # generated/completed counts say the system keeps up at 99%.
        anchor = make_metrics(380e3, win_a, offered_rps=400e3)
        t = anchor.throughput
        anchor = replace(anchor, throughput=replace(
            t, completed=int(round(0.99 * t.generated))))
        t = anchor.throughput
        out = extrapolate_stable(anchor, 400e3, a_cfg, config, fp)
        assert out.throughput.achieved_rps == pytest.approx(
            400e3 * t.completed / t.generated)
        assert out.throughput.achieved_rps > t.achieved_rps

    def test_subknee_claims_loose_tput_and_unbounded_p99(self):
        fp = FastPathConfig()
        config = RunConfig(horizon_ns=10e6, warmup_ns=2e6, fastpath=fp)
        a_cfg = anchor_config(config)
        win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
        out = extrapolate_stable(make_metrics(300e3, win_a), 300e3,
                                 a_cfg, config, fp)
        prov = out.provenance
        assert prov.throughput_error_bound == \
            fp.subknee_throughput_error_bound
        assert prov.p99_error_bound == float("inf")


class TestRouting:
    def test_faults_force_exact_engine(self):
        """Chaos results must never be extrapolations: a real fault
        plan strips the fast path and the result carries no tag."""
        factory = ConfiguredFactory.by_name("shinjuku")
        plan = FaultPlan(recovery=RecoveryPlan(timeout_ns=1e6))
        assert not plan.is_null
        config = RunConfig(seed=3, horizon_ns=2e6, warmup_ns=0.4e6,
                           faults=plan, fastpath=FastPathConfig())
        metrics, events = run_point_with_events(
            factory, 200e3, BIMODAL_FIG2, config)
        assert metrics.provenance is None
        assert events > 0

    def test_null_fault_plan_keeps_fast_path(self):
        factory = ConfiguredFactory.by_name("shinjuku")
        config = RunConfig(seed=3, horizon_ns=4e6, warmup_ns=0.8e6,
                           faults=FaultPlan(),
                           fastpath=FastPathConfig(mode="force"))
        metrics, _events = run_point_with_events(
            factory, 200e3, BIMODAL_FIG2, config)
        assert metrics.provenance is not None
        assert not metrics.provenance.exact

    def test_cache_key_separates_fastpath_modes(self):
        base = RunConfig(seed=1, horizon_ns=2e6, warmup_ns=0.4e6)
        factory = ConfiguredFactory.by_name("shinjuku")
        spec = PointSpec(factory=factory, rate_rps=100e3,
                         distribution=BIMODAL_FIG2, config=base,
                         label="shinjuku")
        keys = {spec_cache_key(spec)}
        for fp in (FastPathConfig(mode="auto"),
                   FastPathConfig(mode="force"),
                   FastPathConfig(mode="auto", calibration_scale=0.3)):
            keyed = replace(spec, config=replace(base, fastpath=fp))
            keys.add(spec_cache_key(keyed))
        assert len(keys) == 4  # every variant hashes differently
        assert None not in keys


class TestFigureSweep:
    @staticmethod
    def _fig2(mode):
        """``(metrics, events)`` of a fig2 sweep at scale 0.05."""
        executor = make_executor(jobs=1)
        config = RunConfig(seed=42, fastpath=parse_fastpath_mode(mode))
        figure = figure2(config=config, scale=0.05, executor=executor)
        metrics = [point.metrics for sweep in figure.sweeps
                   for point in sweep.points]
        return metrics, executor.stats.events_executed

    def test_modelled_points_never_count_as_exact(self):
        """Under ``auto`` every point says how it was obtained: a model
        point names its method and error bound and is never tagged
        exact, and the sweep (anchor probes included) runs fewer events
        than the all-exact one."""
        approx, approx_events = self._fig2("auto")
        exact, exact_events = self._fig2("off")
        assert len(approx) == len(exact) == 18
        assert all(m.provenance is None for m in exact)
        assert all(m.provenance is not None for m in approx)
        modelled = [m.provenance for m in approx if not m.provenance.exact]
        assert 0 < len(modelled) < len(approx)
        for prov in modelled:
            assert prov.kind == "approx"
            assert prov.method in ("plateau-drain", "subknee-mgk",
                                   "anchor-scale")
            assert prov.throughput_error_bound > 0.0
        assert approx_events < exact_events
