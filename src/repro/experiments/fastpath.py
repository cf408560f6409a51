"""Calibrated fast-path sweep evaluation: model the plateau, simulate
the knee.

Load sweeps spend most of their wall time on points whose outcome is
queueing-theoretically boring: deep in overload the completion rate is
pinned at capacity and latency grows linearly with the backlog, while
far below the knee the system sits in steady state and a short window
measures the same distribution as a long one.  This module predicts
those points from *anchors* — short exact runs at a calibration
fraction of the horizon — and reserves full-horizon discrete-event
simulation for the knee region, where queueing behavior actually turns
over.  Every produced :class:`~repro.metrics.summary.RunMetrics`
carries a :class:`~repro.metrics.summary.Provenance` tag naming the
method and the error envelope the prediction is held to
(``tests/integration/test_fastpath_differential.py`` enforces it
across every registered system).

Models
------
**Capacity probe.**  One anchor at the batch's highest offered rate;
its achieved throughput is the capacity estimate ``C`` that classifies
every other rate by utilization ``u = rate / C``.

**Plateau (u > knee_hi): drain-time extrapolation.**  In sustained
overload latency is monotone in arrival time — the backlog only grows
— so quantile ``q`` of the latency distribution is the latency of the
served arrival at fraction ``q`` of the served-arrival span
(``tau * window``, ``tau = completed/generated``).  Each plateau
endpoint runs a *pair* of anchors at two horizons; the per-quantile
growth slope is the finite difference between them, measured on the
very function being extrapolated.  An unbounded queue yields its true
linear backlog slope and a bounded/backpressured queue (latency pinned
at cap/C) yields ~zero, with no modelling assumption picking between
the two.  Counts scale by the window ratio; achieved throughput
transfers (it is pinned at ``C`` in both windows).  Interior plateau
rates interpolate linearly between the extrapolated endpoints (exact
under the fluid model, where everything is affine in the offered
rate).

**Sub-knee (u < knee_lo): M/G/k-style quantile fit.**  Each latency
statistic is fit as ``L_q(rho) = b_q + w_q * rho/(1-rho)`` through the
lowest and highest sub-knee anchors, so interior rates interpolate in
``rho/(1-rho)`` space — the shape every M/G/k-family system follows to
first order below saturation.

**Knee band (knee_lo <= u <= knee_hi).**  ``auto`` mode runs these
points exactly at the full horizon (tagged ``exact``): the knee is
where slowly-converging transients make short anchors lie.  ``force``
mode approximates them from per-point self-anchors instead.

Fault-injected runs never take the fast path: the harness strips the
fast-path config whenever a real fault plan is present, so chaos
results are always fully simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.metrics.summary import (
    LatencySummary,
    Provenance,
    RunMetrics,
    ThroughputSummary,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.executor import SweepExecutor
    from repro.experiments.harness import RunConfig, SystemFactory
    from repro.workload.distributions import ServiceTimeDistribution
    from repro.workload.generator import ClientPool

#: CLI spellings of the fast-path mode.
MODES = ("off", "auto", "force")


@dataclass(frozen=True)
class FastPathConfig:
    """Knobs of the calibrated fast path (``RunConfig.fastpath``).

    ``None`` on the run config means *off* — every point fully
    simulated, bit-identical to the historical behavior.
    """

    #: "auto" runs knee-band points exactly; "force" models everything.
    mode: str = "auto"
    #: Anchor horizon as a fraction of the requested horizon.  Plateau
    #: endpoints additionally run a half-scale anchor to pin down the
    #: ramp-corrected capacity behind the overload growth slope.
    calibration_scale: float = 0.10
    #: Anchors never shrink below this horizon (keeps the measurement
    #: window statistically meaningful for short requested horizons).
    anchor_horizon_floor_ns: float = 500_000.0
    #: Utilization band treated as the knee: points with
    #: ``knee_lo <= rate/C <= knee_hi`` are simulated exactly in auto.
    #: The band starts well below 1.0 because capacity is itself a
    #: short-anchor measurement: a point at u = 0.95 must not flip to
    #: the sub-knee model on a percent of probe noise.
    knee_lo: float = 0.92
    knee_hi: float = 1.05
    #: Utilization above which the plateau is "deep": backlog growth
    #: dominates transients and the tight envelope below is certified.
    deep_lo: float = 1.25
    #: Error envelope claimed for deep-plateau predictions (relative),
    #: which the differential suite enforces against exact runs.
    throughput_error_bound: float = 0.05
    p99_error_bound: float = 0.10
    #: p99 bound claimed for *shoulder* points (knee_hi < u < deep_lo),
    #: where the full-horizon transient is unobservable from short
    #: anchors; widen the exact knee band instead when shoulder
    #: fidelity matters.
    shoulder_p99_error_bound: float = 0.35
    #: Throughput bound claimed for sub-knee (stable) predictions.
    #: Looser than the plateau bound: a short anchor's serving ratio
    #: dips by the end-of-window in-flight fraction, which grows as
    #: utilization approaches the knee.  Sub-knee tags claim no p99
    #: bound at all (see :func:`_provenance`).
    subknee_throughput_error_bound: float = 0.10

    def __post_init__(self):
        if self.mode not in ("auto", "force"):
            raise ExperimentError(
                f"fastpath mode must be 'auto' or 'force', got {self.mode!r}")
        if not 0.0 < self.calibration_scale <= 1.0:
            raise ExperimentError(
                f"calibration_scale must be in (0, 1]: "
                f"{self.calibration_scale}")
        if not 0.0 < self.knee_lo <= self.knee_hi <= self.deep_lo:
            raise ExperimentError(
                f"need 0 < knee_lo <= knee_hi <= deep_lo, got "
                f"[{self.knee_lo}, {self.knee_hi}, {self.deep_lo}]")


def parse_fastpath_mode(mode: str) -> Optional[FastPathConfig]:
    """Map a CLI ``--fastpath`` spelling to a config (None for off)."""
    if mode not in MODES:
        raise ExperimentError(
            f"unknown fastpath mode {mode!r}; choose from "
            f"{', '.join(MODES)}")
    if mode == "off":
        return None
    return FastPathConfig(mode=mode)


def anchor_config(config: "RunConfig") -> "RunConfig":
    """The exact-run config anchors use: fast path off, horizon scaled.

    The scale is lifted to keep the anchor horizon at or above the
    configured floor, capped at 1.0 — so anchors are never *longer*
    than the requested run.  Because the fast-path field is stripped,
    anchor cache keys coincide with plain exact runs at that scale.
    """
    fp = config.fastpath
    assert fp is not None
    return _scaled_anchor(config, fp.calibration_scale)


def _scaled_anchor(config: "RunConfig", scale: float) -> "RunConfig":
    fp = config.fastpath
    assert fp is not None
    if config.horizon_ns * scale < fp.anchor_horizon_floor_ns:
        scale = min(1.0, fp.anchor_horizon_floor_ns / config.horizon_ns)
    return replace(config, fastpath=None).scaled(scale)


def short_anchor_config(config: "RunConfig") -> Optional["RunConfig"]:
    """The half-scale anchor config backing overload pair slopes.

    Plateau extrapolation measures each quantile's growth slope as the
    finite difference between anchors at two horizons; this is the
    shorter of the pair.  Returns None when the horizon floor collapses
    the pair into one run (the caller then falls back to the
    single-anchor spread estimate).
    """
    fp = config.fastpath
    assert fp is not None
    short = _scaled_anchor(config, fp.calibration_scale / 2.0)
    if short.horizon_ns >= anchor_config(config).horizon_ns:
        return None
    return short


def _run_exact(factory: "SystemFactory", rates: Sequence[float],
               distribution: "ServiceTimeDistribution",
               config: "RunConfig", system_name: str,
               executor: "SweepExecutor") -> List[RunMetrics]:
    """Exact runs for *rates* (config must have the fast path stripped)."""
    from repro.experiments.harness import _run_batch
    assert config.fastpath is None
    return _run_batch(factory, rates, distribution, config, system_name,
                      executor)


def _run_jobs(factory: "SystemFactory",
              jobs: Sequence[Tuple[float, "RunConfig"]],
              distribution: "ServiceTimeDistribution", system_name: str,
              executor: "SweepExecutor") -> List[RunMetrics]:
    """Exact runs for mixed (rate, config) jobs, one parallelizable batch.

    Anchors, half-scale shorts, and full-horizon knee runs all land in
    a single executor submission so worker processes overlap them.
    """
    for _rate, cfg in jobs:
        assert cfg.fastpath is None
    from repro.experiments.executor import PointSpec
    specs = [PointSpec(factory=factory, rate_rps=rate,
                       distribution=distribution, config=cfg,
                       label=system_name)
             for rate, cfg in jobs]
    return executor.run_points(specs)


# ---------------------------------------------------------------------------
# Per-anchor extrapolation
# ---------------------------------------------------------------------------

def _provenance(method: str, a_cfg: "RunConfig", fp: FastPathConfig,
                subknee: bool = False) -> Provenance:
    """An approx tag claiming the envelope honest for *method*.

    Sub-knee methods claim the looser throughput bound and *no* p99
    bound: tail quantiles measured on a short anchor are dominated by
    warmup transients and small-sample noise (a 1 ms anchor at low
    rate sees a handful of the rare long requests), so no finite tail
    bound is honest there.  The differential suite enforces the tight
    bounds on the plateau, where the drain model earns them.
    """
    return Provenance(
        kind="approx", method=method,
        anchor_horizon_ns=a_cfg.horizon_ns,
        throughput_error_bound=(fp.subknee_throughput_error_bound
                                if subknee else fp.throughput_error_bound),
        p99_error_bound=(float("inf") if subknee else fp.p99_error_bound))


def _monotone(p50: float, p90: float, p99: float, p999: float,
              mx: float) -> Tuple[float, float, float, float, float]:
    """Re-impose quantile ordering after independent per-field shifts."""
    p90 = max(p90, p50)
    p99 = max(p99, p90)
    p999 = max(p999, p99)
    mx = max(mx, p999)
    return p50, p90, p99, p999, mx


def _position(cfg: "RunConfig", tau: float, q: float) -> float:
    """Arrival-time position of latency quantile *q* in *cfg*'s window.

    Overload latency is monotone in arrival time, and an arrival at
    time ``t`` completes at roughly ``t / tau`` (``tau =
    completed/generated``, the serving ratio).  Completions measured in
    ``[warmup, horizon]`` therefore correspond to arrivals in
    ``[tau * warmup, tau * horizon]`` — the whole window compresses by
    the serving ratio, warmup edge included — and quantile *q* of the
    latency distribution is the latency of the arrival at fraction *q*
    of that span.
    """
    return tau * (cfg.warmup_ns + q * (cfg.horizon_ns - cfg.warmup_ns))


def _capacity_fit(anchors: Sequence[Tuple[RunMetrics, "RunConfig"]]
                  ) -> Tuple[float, float]:
    """Ramp-corrected ``(C, D)`` from a two-horizon anchor pair.

    A short window under-measures capacity by the startup deficit:
    ``achieved(win) = C - D/win`` for a deficit of D requests.  Two
    windows pin both unknowns; completion counts are far less noisy
    than latency quantiles, so this is the calibration the overload
    slope is built on.  The asymptotic ``C`` drives the backlog slope;
    callers evaluate the same law at the *target* window to predict
    what a full-horizon run would actually measure (it carries its own
    deficit).  Degenerate or noise-inverted pairs fall back to the
    longest anchor's achieved rate with ``D = 0`` (the estimate never
    drops below it).
    """
    anchor, a_cfg = anchors[-1]
    ach_l = anchor.throughput.achieved_rps
    if len(anchors) < 2:
        return ach_l, 0.0
    short, s_cfg = anchors[0]
    win_s = s_cfg.horizon_ns - s_cfg.warmup_ns
    win_l = a_cfg.horizon_ns - a_cfg.warmup_ns
    if win_s <= 0 or win_l <= win_s:
        return ach_l, 0.0
    inv_gap = 1e9 / win_s - 1e9 / win_l  # per-second difference
    deficit = max(0.0, (ach_l - short.throughput.achieved_rps) / inv_gap)
    return ach_l + deficit * 1e9 / win_l, deficit


def _served_demand_mean(rate: float,
                        distribution: "ServiceTimeDistribution",
                        cfg: "RunConfig", tau: float, seed: int) -> float:
    """Mean service demand (ns) over *cfg*'s served arrival span.

    Replays the load generator's named RNG streams — same seed, same
    draw order, no system simulation — so this is exactly the workload
    an exact run at *rate* would face.  In overload the window's
    completions correspond to arrivals in ``[tau*warmup, tau*horizon]``
    (see :func:`_position`); the mean demand over that span is what
    sets the window's sustainable completion rate.  Returns 0.0 when
    the span holds no arrivals.
    """
    from repro.sim.rng import RngRegistry
    from repro.units import rps_to_interarrival_ns
    rngs = RngRegistry(seed)
    arrival_rng = rngs.stream("arrivals")
    service_rng = rngs.stream("service")
    expovariate = arrival_rng.expovariate
    sample = distribution.sample
    inv_mean_gap = 1.0 / rps_to_interarrival_ns(rate)
    lo, hi = tau * cfg.warmup_ns, tau * cfg.horizon_ns
    horizon = cfg.horizon_ns
    now = 0.0
    total = 0.0
    count = 0
    while True:
        # Single-producer arrival clock, consumed in this loop only —
        # never compared against the kernel's clock.
        now += expovariate(inv_mean_gap)  # repro: allow[sim-time-arith]
        if now > horizon:
            break
        demand = sample(service_rng)
        if lo <= now <= hi:
            total += demand
            count += 1
    return (total / count) if count else 0.0


def _demand_correction(anchors: Sequence[Tuple[RunMetrics, "RunConfig"]],
                       rate: float, config: "RunConfig", tau: float,
                       tau_a: float,
                       distribution: Optional["ServiceTimeDistribution"],
                       ) -> float:
    """Capacity scale factor between the anchor and target windows.

    The anchors calibrate capacity on *their* slice of the service-time
    mixture; a seed-specific burst of long requests later in the target
    window (which a short anchor cannot see) lowers the full run's
    sustainable rate.  Since capacity is inversely proportional to the
    served mean demand, the replayed ratio corrects for it.

    Only deep overload is corrected (the caller gates on ``deep_lo``):
    there completions are genuinely demand-pinned, while on the
    shoulder the system retains slack and the ratio overcorrects.
    """
    if distribution is None:
        return 1.0
    _anchor, a_cfg = anchors[-1]
    mean_a = _served_demand_mean(rate, distribution, a_cfg, tau_a,
                                 config.seed)
    mean_t = _served_demand_mean(rate, distribution, config, tau,
                                 config.seed)
    if mean_a <= 0.0 or mean_t <= 0.0:
        return 1.0
    return mean_a / mean_t


def extrapolate_overload(anchors: Sequence[Tuple[RunMetrics, "RunConfig"]],
                         rate: float, config: "RunConfig",
                         fp: FastPathConfig,
                         distribution: Optional[
                             "ServiceTimeDistribution"] = None,
                         ) -> RunMetrics:
    """Plateau drain-time model: anchor run(s) at *rate* -> full horizon.

    In drop-free overload the backlog grows at ``rate - C`` requests
    per second, so the arrival at time ``t`` waits its share of the
    queue: ``L(t) ~ L'(t') + (rate/C - 1) * (t - t')``.  The slope is
    everything, and the anchor pair supplies it through the
    ramp-corrected capacity of :func:`_asymptotic_capacity` — short
    anchors under-complete, and an uncorrected capacity overstates the
    slope exactly where it hurts (mild overload divides by ``u - 1``).
    Dropping systems pin latency at the queue cap instead, which the
    anchor's own flat quantile spread measures directly.
    """
    anchor, a_cfg = anchors[-1]  # longest-horizon anchor leads
    win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
    win = config.horizon_ns - config.warmup_ns
    ratio = win / win_a
    t = anchor.throughput
    c_inf, deficit = _capacity_fit(anchors)
    tau_a = (t.completed / t.generated) if t.generated > 0 else 1.0
    tau = min(1.0, max(c_inf, 1e-9) / rate)
    # The anchor calibrates capacity on its slice of the service-time
    # mixture; re-weigh by the target window's replayed demand mix.
    # Deep overload only — on the shoulder the system still has slack
    # and the fully-pinned correction overshoots.
    if rate >= fp.deep_lo * c_inf:
        c_inf *= _demand_correction(anchors, rate, config, tau, tau_a,
                                    distribution)
    capacity = max(c_inf, 1e-9)
    tau = min(1.0, capacity / rate)
    # What a full-horizon exact run would measure: the same ramp law
    # evaluated at the target window (its deficit never fully amortizes).
    achieved = min(rate, max(c_inf - deficit * 1e9 / win, 1e-9))
    completed = int(round(achieved * win * 1e-9))
    lat = anchor.latency
    mean_ratio = 1.0
    latency: Optional[LatencySummary] = None
    if lat is not None and lat.count > 0:
        if t.dropped > 0 or len(anchors) < 2:
            # Latency pinned at the queue cap (drops), or no pair to
            # correct the capacity ramp: the anchor's own quantile
            # spread is the best available slope.
            span_a = max(tau_a * win_a, 1.0)
            beta = max(0.0, (lat.p99_ns - lat.p50_ns) / (0.49 * span_a))
        else:
            beta = max(0.0, rate / capacity - 1.0)

        def shift(value: float, q: float) -> float:
            gap = _position(config, tau, q) - _position(a_cfg, tau_a, q)
            return max(0.0, value + beta * gap)

        mean_ns = shift(lat.mean_ns, 0.5)
        p50, p90, p99, p999, mx = _monotone(
            shift(lat.p50_ns, 0.5), shift(lat.p90_ns, 0.9),
            shift(lat.p99_ns, 0.99), shift(lat.p999_ns, 0.999),
            shift(lat.max_ns, 1.0))
        latency = LatencySummary(count=completed, mean_ns=mean_ns,
                                 p50_ns=p50, p90_ns=p90, p99_ns=p99,
                                 p999_ns=p999, max_ns=mx)
        if lat.mean_ns > 0:
            mean_ratio = mean_ns / lat.mean_ns
    return RunMetrics(
        latency=latency,
        throughput=ThroughputSummary(
            offered_rps=rate,
            achieved_rps=achieved,  # pinned at capacity
            generated=int(round(t.generated * ratio)),
            completed=completed,
            dropped=int(round(t.dropped * ratio)),
            window_ns=win),
        preemptions=int(round(anchor.preemptions * ratio)),
        # Slowdown is latency / service demand; with the service
        # distribution fixed it scales with mean latency to first order.
        mean_slowdown=anchor.mean_slowdown * mean_ratio,
        worker_wait_fraction=anchor.worker_wait_fraction,
        provenance=_overload_provenance(rate, capacity, a_cfg, fp))


def _overload_provenance(rate: float, capacity: float,
                         a_cfg: "RunConfig",
                         fp: FastPathConfig) -> Provenance:
    """Plateau provenance, with the honest bound for shoulder points."""
    prov = _provenance("plateau-drain", a_cfg, fp)
    if rate < fp.deep_lo * capacity:
        prov = replace(prov, p99_error_bound=max(
            fp.p99_error_bound, fp.shoulder_p99_error_bound))
    return prov


def extrapolate_stable(anchor: RunMetrics, rate: float,
                       a_cfg: "RunConfig", config: "RunConfig",
                       fp: FastPathConfig) -> RunMetrics:
    """Steady-state scale-up: distributions transfer, counts scale.

    Achieved throughput is predicted from the anchor's serving ratio
    (``completed / generated``), not its windowed rate: on a short
    anchor the rate under-measures by the in-flight tail even when the
    system keeps up, while the count ratio stays ~1 in steady state.
    """
    win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
    win = config.horizon_ns - config.warmup_ns
    ratio = win / win_a
    t = anchor.throughput
    achieved = rate * _serving_ratio(t)
    completed = int(round(achieved * win * 1e-9))
    lat = anchor.latency
    latency = None if lat is None else replace(lat, count=completed)
    return RunMetrics(
        latency=latency,
        throughput=ThroughputSummary(
            offered_rps=rate, achieved_rps=achieved,
            generated=int(round(rate * win * 1e-9)),
            completed=completed,
            dropped=int(round(t.dropped * ratio)),
            window_ns=win),
        preemptions=int(round(anchor.preemptions * ratio)),
        mean_slowdown=anchor.mean_slowdown,
        worker_wait_fraction=anchor.worker_wait_fraction,
        provenance=_provenance("anchor-scale", a_cfg, fp,
                               subknee=True))


def _serving_ratio(t: ThroughputSummary) -> float:
    """Fraction of generated requests completed, clamped to [0, 1]."""
    if t.generated <= 0:
        return 1.0
    return min(1.0, t.completed / t.generated)


# ---------------------------------------------------------------------------
# Sub-knee M/G/k-style fit
# ---------------------------------------------------------------------------

def _rho_feature(rho: float) -> float:
    """The M/G/k delay shape ``rho / (1 - rho)``, clamped off the pole."""
    rho = min(rho, 0.999)
    return rho / (1.0 - rho)


def _fit(v1: float, v2: float, f1: float, f2: float, f: float) -> float:
    """Linear fit through two anchors in feature space, guarded.

    Degenerate anchors return the nearer value; a negative slope (an
    anchor-noise artifact — delay cannot fall with load) never
    extrapolates below the high anchor.
    """
    if f2 <= f1:
        return v2
    w = (v2 - v1) / (f2 - f1)
    if w < 0.0 and f > f2:
        return v2
    return max(0.0, v1 + w * (f - f1))


def _lin(v1: float, v2: float, x1: float, x2: float, x: float) -> float:
    """Plain linear interpolation with a degenerate-span guard."""
    if x2 <= x1:
        return v2
    return v1 + (v2 - v1) * (x - x1) / (x2 - x1)


def predict_subknee(rate: float, a1: float, m1: RunMetrics,
                    a2: float, m2: RunMetrics, capacity: float,
                    a_cfg: "RunConfig", config: "RunConfig",
                    fp: FastPathConfig) -> RunMetrics:
    """Predict a stable point at *rate* from sub-knee anchors a1 < a2."""
    lat1, lat2 = m1.latency, m2.latency
    if lat1 is None or lat2 is None or lat1.count == 0 or lat2.count == 0:
        nearest_rate, nearest = ((a1, m1) if abs(rate - a1) <= abs(rate - a2)
                                 else (a2, m2))
        return extrapolate_stable(nearest, rate, a_cfg, config, fp)
    rho1, rho2 = a1 / capacity, a2 / capacity
    rho = rate / capacity
    f1, f2, ft = (_rho_feature(rho1), _rho_feature(rho2),
                  _rho_feature(rho))
    win = config.horizon_ns - config.warmup_ns
    win_a = a_cfg.horizon_ns - a_cfg.warmup_ns
    t1, t2 = m1.throughput, m2.throughput
    eff = _lin(_serving_ratio(t1), _serving_ratio(t2), rho1, rho2, rho)
    achieved = rate * eff
    generated = int(round(rate * win * 1e-9))
    completed = int(round(achieved * win * 1e-9))
    drop_per_ns = _lin(t1.dropped / win_a, t2.dropped / win_a,
                       rho1, rho2, rho)
    mean_ns = _fit(lat1.mean_ns, lat2.mean_ns, f1, f2, ft)
    p50, p90, p99, p999, mx = _monotone(
        _fit(lat1.p50_ns, lat2.p50_ns, f1, f2, ft),
        _fit(lat1.p90_ns, lat2.p90_ns, f1, f2, ft),
        _fit(lat1.p99_ns, lat2.p99_ns, f1, f2, ft),
        _fit(lat1.p999_ns, lat2.p999_ns, f1, f2, ft),
        _fit(lat1.max_ns, lat2.max_ns, f1, f2, ft))
    preempt_rate = _lin(
        m1.preemptions / max(1, t1.completed),
        m2.preemptions / max(1, t2.completed), rho1, rho2, rho)
    wait = min(1.0, max(0.0, _lin(m1.worker_wait_fraction,
                                  m2.worker_wait_fraction,
                                  rho1, rho2, rho)))
    slowdown = max(1.0, _fit(m1.mean_slowdown, m2.mean_slowdown,
                             f1, f2, ft))
    return RunMetrics(
        latency=LatencySummary(count=completed, mean_ns=mean_ns,
                               p50_ns=p50, p90_ns=p90, p99_ns=p99,
                               p999_ns=p999, max_ns=mx),
        throughput=ThroughputSummary(
            offered_rps=rate, achieved_rps=achieved,
            generated=generated, completed=completed,
            dropped=int(round(drop_per_ns * win)), window_ns=win),
        preemptions=int(round(preempt_rate * completed)),
        mean_slowdown=slowdown,
        worker_wait_fraction=wait,
        provenance=_provenance("subknee-mgk", a_cfg, fp,
                               subknee=True))


def _interpolate_plateau(rate: float, lo_rate: float, lo: RunMetrics,
                         hi_rate: float, hi: RunMetrics) -> RunMetrics:
    """Linear blend of two extrapolated plateau endpoints at *rate*.

    Exact under the fluid model: backlog growth, drop rate, and
    generated counts are all affine in the offered rate on the plateau.
    """
    if hi_rate <= lo_rate:
        return replace(hi, throughput=replace(hi.throughput,
                                              offered_rps=rate))

    def mix(a: float, b: float) -> float:
        return _lin(a, b, lo_rate, hi_rate, rate)

    lat_lo, lat_hi = lo.latency, hi.latency
    tp_lo, tp_hi = lo.throughput, hi.throughput
    completed = int(round(mix(tp_lo.completed, tp_hi.completed)))
    if lat_lo is None or lat_hi is None:
        latency = lat_lo if lat_hi is None else lat_hi
        if latency is not None:
            latency = replace(latency, count=completed)
    else:
        p50, p90, p99, p999, mx = _monotone(
            mix(lat_lo.p50_ns, lat_hi.p50_ns),
            mix(lat_lo.p90_ns, lat_hi.p90_ns),
            mix(lat_lo.p99_ns, lat_hi.p99_ns),
            mix(lat_lo.p999_ns, lat_hi.p999_ns),
            mix(lat_lo.max_ns, lat_hi.max_ns))
        latency = LatencySummary(
            count=completed, mean_ns=mix(lat_lo.mean_ns, lat_hi.mean_ns),
            p50_ns=p50, p90_ns=p90, p99_ns=p99, p999_ns=p999, max_ns=mx)
    return RunMetrics(
        latency=latency,
        throughput=ThroughputSummary(
            offered_rps=rate,
            achieved_rps=mix(tp_lo.achieved_rps, tp_hi.achieved_rps),
            generated=int(round(mix(tp_lo.generated, tp_hi.generated))),
            completed=completed,
            dropped=int(round(mix(tp_lo.dropped, tp_hi.dropped))),
            window_ns=tp_lo.window_ns),
        preemptions=int(round(mix(lo.preemptions, hi.preemptions))),
        mean_slowdown=mix(lo.mean_slowdown, hi.mean_slowdown),
        worker_wait_fraction=mix(lo.worker_wait_fraction,
                                 hi.worker_wait_fraction),
        provenance=lo.provenance)


# ---------------------------------------------------------------------------
# Entry points (called by the harness)
# ---------------------------------------------------------------------------

def _self_anchor_point(anchor: RunMetrics, rate: float,
                       a_cfg: "RunConfig", config: "RunConfig",
                       fp: FastPathConfig,
                       distribution: Optional[
                           "ServiceTimeDistribution"] = None) -> RunMetrics:
    """Classify one rate by its own anchor and extrapolate accordingly."""
    if _anchor_saturated(anchor, fp):
        return extrapolate_overload([(anchor, a_cfg)], rate, config, fp,
                                    distribution)
    return extrapolate_stable(anchor, rate, a_cfg, config, fp)


def _anchor_saturated(anchor: RunMetrics, fp: FastPathConfig) -> bool:
    """Whether a self-anchor shows the system failing to keep up.

    Compares completions against generations over the same measured
    window rather than achieved against offered rate: on a short anchor
    the rate ratio droops a few percent from windowing noise on small
    counts even in steady state, while the count ratio only falls when
    a backlog is genuinely accumulating.
    """
    t = anchor.throughput
    return t.completed < fp.knee_lo * t.generated


def run_point_fastpath(factory: "SystemFactory", rate_rps: float,
                       distribution: "ServiceTimeDistribution",
                       config: "RunConfig",
                       clients: Optional["ClientPool"] = None,
                       sanitize: Optional[bool] = None,
                       ) -> Tuple[RunMetrics, int]:
    """Single-point fast path: anchor, classify, model or fall through.

    Returns (metrics, exact simulator events executed) like
    :func:`~repro.experiments.harness.run_point_with_events`.  In
    ``auto`` mode a point the anchor shows to be keeping up with its
    offered load falls through to a full exact run (tagged ``exact``);
    only clear overload is modelled.  ``force`` models both regimes.
    """
    from repro.experiments.harness import run_point_with_events
    fp = config.fastpath
    assert fp is not None
    a_cfg = anchor_config(config)
    anchor, events = run_point_with_events(
        factory, rate_rps, distribution, a_cfg, clients, sanitize)
    if _anchor_saturated(anchor, fp):
        pair: List[Tuple[RunMetrics, "RunConfig"]] = [(anchor, a_cfg)]
        s_cfg = short_anchor_config(config)
        if s_cfg is not None:
            short, short_events = run_point_with_events(
                factory, rate_rps, distribution, s_cfg, clients, sanitize)
            events += short_events
            pair.insert(0, (short, s_cfg))
        return (extrapolate_overload(pair, rate_rps, config, fp,
                                     distribution), events)
    if fp.mode == "force":
        return (extrapolate_stable(anchor, rate_rps, a_cfg, config, fp),
                events)
    exact_cfg = replace(config, fastpath=None)
    metrics, exact_events = run_point_with_events(
        factory, rate_rps, distribution, exact_cfg, clients, sanitize)
    metrics = replace(metrics, provenance=Provenance(kind="exact"))
    return metrics, events + exact_events


def run_batch_fastpath(factory: "SystemFactory",
                       rates_rps: Sequence[float],
                       distribution: "ServiceTimeDistribution",
                       config: "RunConfig", system_name: str,
                       executor: "SweepExecutor",
                       ) -> List[RunMetrics]:
    """Batch fast path: calibrate per-system models from exact anchors.

    Stages: (1) a capacity probe at the highest offered rate classifies
    every rate by utilization; (2) sub-knee endpoint anchors fit the
    M/G/k quantile model, plateau endpoint anchors feed the drain-time
    extrapolation; (3) knee-band rates run exactly at full horizon
    (``auto``) or from self-anchors (``force``).  Results come back in
    the order of *rates_rps*.
    """
    fp = config.fastpath
    assert fp is not None
    rates = [float(rate) for rate in rates_rps]
    unique = sorted(set(rates))
    if len(unique) == 1:
        # Degenerate batch: the single-point path already does the
        # anchor-classify-extrapolate dance.
        metrics, _events = run_point_fastpath(
            factory, unique[0], distribution, config)
        return [metrics for _ in rates]
    a_cfg = anchor_config(config)
    lam_max = unique[-1]
    anchors: Dict[float, RunMetrics] = {}
    anchors[lam_max] = _run_exact(factory, [lam_max], distribution, a_cfg,
                                  system_name, executor)[0]
    capacity = max(anchors[lam_max].throughput.achieved_rps, 1e-9)
    sub = [r for r in unique if r / capacity < fp.knee_lo]
    plateau = [r for r in unique if r / capacity > fp.knee_hi]
    knee = [r for r in unique if r not in sub and r not in plateau]
    # Everything the probe's classification asks for runs as one batch:
    # endpoint anchors, half-scale shorts for shoulder endpoints, and
    # (in auto mode) full-horizon knee runs.
    s_cfg = short_anchor_config(config)
    exact_cfg = replace(config, fastpath=None)
    endpoints: List[float] = []
    if sub:
        endpoints.extend({sub[0], sub[-1]})
    if plateau:
        endpoints.extend(dict.fromkeys([plateau[0], plateau[-1]]))
    # Every plateau endpoint extrapolates from an anchor pair: the
    # half-scale short pins down the ramp-corrected capacity behind
    # the overload growth slope (a single anchor under-measures it and
    # the drain-model p99 inherits the bias).
    short_rates = ([] if s_cfg is None else
                   list(dict.fromkeys([plateau[0], plateau[-1]]))
                   if plateau else [])
    jobs: List[Tuple[float, "RunConfig"]] = [
        (r, a_cfg) for r in dict.fromkeys(sorted(endpoints))
        if r not in anchors]
    jobs.extend((r, s_cfg) for r in short_rates)
    knee_exact = fp.mode == "auto"
    if knee:
        if knee_exact:
            jobs.extend((r, exact_cfg) for r in knee)
        else:
            jobs.extend((r, a_cfg) for r in knee if r not in anchors)
    shorts: Dict[float, RunMetrics] = {}
    exacts: Dict[float, RunMetrics] = {}
    for (rate, cfg), metrics in zip(jobs, _run_jobs(
            factory, jobs, distribution, system_name, executor)):
        if cfg is s_cfg and s_cfg is not a_cfg:
            shorts[rate] = metrics
        elif cfg is exact_cfg:
            exacts[rate] = metrics
        else:
            anchors[rate] = metrics

    predictions: Dict[float, RunMetrics] = {}
    # Sub-knee: fit through the endpoint anchors; the anchors
    # themselves scale up directly from their own runs.
    if sub:
        a1, a2 = sub[0], sub[-1]
        for rate in sub:
            if rate in anchors:
                predictions[rate] = extrapolate_stable(
                    anchors[rate], rate, a_cfg, config, fp)
            elif a1 == a2:
                predictions[rate] = extrapolate_stable(
                    anchors[a1], rate, a_cfg, config, fp)
            else:
                predictions[rate] = predict_subknee(
                    rate, a1, anchors[a1], a2, anchors[a2], capacity,
                    a_cfg, config, fp)
    # Plateau: extrapolate the endpoint anchor (pairs), interpolate
    # between.  Shoulder endpoints carry a half-scale short giving the
    # ramp-corrected capacity (see extrapolate_overload).
    if plateau:
        lo_rate, hi_rate = plateau[0], plateau[-1]

        def pair(rate: float) -> List[Tuple[RunMetrics, "RunConfig"]]:
            runs: List[Tuple[RunMetrics, "RunConfig"]] = []
            if rate in shorts:
                runs.append((shorts[rate], s_cfg))
            runs.append((anchors[rate], a_cfg))
            return runs

        lo = extrapolate_overload(pair(lo_rate), lo_rate, config, fp,
                                  distribution)
        hi = extrapolate_overload(pair(hi_rate), hi_rate, config, fp,
                                  distribution)
        for rate in plateau:
            if rate == lo_rate:
                predictions[rate] = lo
            elif rate == hi_rate:
                predictions[rate] = hi
            else:
                predictions[rate] = _interpolate_plateau(
                    rate, lo_rate, lo, hi_rate, hi)
    # Knee band: exact at full horizon (auto) or self-anchored (force).
    for rate in knee:
        if knee_exact:
            predictions[rate] = replace(
                exacts[rate], provenance=Provenance(kind="exact"))
        else:
            predictions[rate] = _self_anchor_point(
                anchors[rate], rate, a_cfg, config, fp, distribution)
    return [predictions[rate] for rate in rates]
