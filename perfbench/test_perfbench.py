"""Self-tests of the benchmark: exact counts, conservation, attribution.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The workloads run at reduced horizons here, so these tests check the
instruments, not the committed goldens.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from compare import regressions  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layers import LAYERS, profile_layers  # noqa: E402
from repro.metrics import collector  # noqa: E402
import run  # noqa: E402
from run import CONSERVATION_TOLERANCE, check_reps, load_spec  # noqa: E402
from session import run_traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Horizon scales that keep each traced run to a few seconds.
TEST_SCALES = {"fig2-exact": 0.1, "systems-mix": 0.2, "sweep-parallel": 0.5}
COUNTS = ("sim.events", "sim.events_per_req", "model.requests_completed",
          "model.preemptions", "experiments.cache_hits",
          "experiments.cache_misses", "experiments.cache_hit_ratio")


def _workload(name: str, workdir: Path, seed: int = 7):
    workload = WORKLOADS[name](seed, workdir, TEST_SCALES[name])
    workload.prepare()
    workload.setup()
    return workload


def _counts(metrics):
    return {name: value for name, value in metrics.items()
            if name in COUNTS or name.startswith("sim.events_per_req.")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_repeat_counts_exactly_and_conserve_time(name, tmp_path):
    runs = [run_traced(_workload(name, tmp_path / str(n)), tmp_path / "spool")
            for n in range(2)]
    first, second = runs
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    digests = {rep["digest"] for run in runs for rep in run["reps"]}
    assert len(digests) == 1, "tracing changed what was simulated"
    per_layer = {m["name"] for m in load_spec()["per_layer"]}
    for run in runs:
        metrics = run["metrics"]
        assert set(metrics) == per_layer
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        assert layer_sum == pytest.approx(metrics["trace.layer_sum_s"])
        assert metrics["trace.conservation_err"] <= CONSERVATION_TOLERANCE
        simulated = run["reps"][1]["points"] - run["reps"][1]["cache_hits"]
        assert run["points_traced"] == simulated
    if name == "sweep-parallel":
        assert first["metrics"]["experiments.cache_hits"] == \
            WORKLOADS[name].expected_points // 2


def test_check_reps_names_the_points_that_differ():
    golden = {"digest": "d", "points": ["a", "b", "c"]}
    good = {"error": None, "labels": ["x", "y", "z"],
            "point_digests": ["a", "b", "c"]}
    bad = dict(good, point_digests=["a", "B", "c"])
    short = dict(good, point_digests=["a", "b"])
    raised = dict(good, error="Traceback\nValueError: boom\n")
    assert check_reps([good], 3, golden) == (3, 0, [])
    attempted, failed, problems = check_reps([good, bad, short, raised], 3,
                                             golden)
    assert (attempted, failed) == (12, 7)
    assert "y" in problems[0] and "x" not in problems[0]
    assert "2 of 3" in problems[1] and "boom" in problems[2]
    # Without a golden, no point counts as correct.
    assert check_reps([good, bad], 3, None)[:2] == (6, 6)


def test_a_run_that_is_not_correct_exits_nonzero(monkeypatch, capsys):
    goldens = run.load_goldens()
    entry = goldens["sweep-parallel"]["seeds"]["1"]
    entry["points"] = ["0" * 12] + entry["points"][1:]
    monkeypatch.setattr(run, "load_goldens", lambda: goldens)
    assert run.main(["--workload", "sweep-parallel", "--seed", "65",
                     "--trace", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 3  # the first point, in each of three reps


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- planted slowdown ---------------------------------------------------------

def _spin_rate() -> float:
    """Iterations per second of the busy loop used by the plant."""
    n = 2_000_000
    start = time.monotonic()
    for _ in range(n):
        pass
    return n / (time.monotonic() - start)


def _planted(original, spins: int):
    """``record_completion`` doing *spins* more loop iterations per call.

    The benchmark may not edit ``src/``, so the busy loop lives in this
    wrapper, and the wrapper's code is re-labelled as the collector's
    source file.  It stands in for a slower body of
    ``record_completion``: the profiler files it under ``metrics`` by
    construction.  What the attribution check then tests is the rest of
    the instrument: that the layer table puts the added self time in
    ``metrics`` in full, and that the host-speed correction between
    sides moves no other layer.
    """
    def record_completion(self, request):
        for _ in range(spins):
            pass
        return original(self, request)

    record_completion.__code__ = record_completion.__code__.replace(
        co_filename=collector.__file__)
    return record_completion


def test_planted_slowdown_is_flagged_and_attributed_to_metrics(
        tmp_path, monkeypatch):
    """A plant adding 25% of the rep's wall time to ``record_completion``.

    The plant is sized against the whole rep, not against the metrics
    layer: ``metrics`` is about 1.5% of fig2-exact, so 25% more work in
    that layer alone would move ``sim_req_per_s`` by about 0.4%, far
    inside noise.  Added time ``f`` (a share of the rep) lowers the rate
    by ``f / (1 + f)``; the plant's ``f`` = 0.25 gives about 20%, and
    the 0.15 bound flags ``f`` above about 0.18.  A layer is thus caught
    once it slows by 0.18 / (its share): ~12x for ``metrics``, ~35%
    for ``sim``.

    Parent, an unchanged second parent, and the planted change run
    interleaved, so a drift in host speed hits all three alike.
    """
    collector_cls = collector.MetricsCollector
    original = collector_cls.record_completion
    workload = _workload("fig2-exact", tmp_path)
    probe = HostSpeed().measure
    calls = []

    def counting(self, request):
        calls.append(1)
        return original(self, request)

    monkeypatch.setattr(collector_cls, "record_completion", counting)
    # Medians, so one slow moment of the host does not size the plant.
    wall = statistics.median(workload.run_rep().wall_s for _ in range(3))
    per_rep = len(calls) // 3
    spin_rate = statistics.median(_spin_rate() for _ in range(3))
    spins = int(0.25 * wall / per_rep * spin_rate)
    planted_s = spins * per_rep / spin_rate
    sides = {"parent": original, "again": original,
             "change": _planted(original, spins)}
    rates = {side: [] for side in sides}
    layers = {side: [] for side in sides}
    for _ in range(5):
        for side, record in sides.items():
            monkeypatch.setattr(collector_cls, "record_completion", record)
            rep = workload.run_rep(probe).summary()
            rates[side].append(rep["completed"] / rep["ref_wall_s"])
    for _ in range(2):
        for side, record in sides.items():
            monkeypatch.setattr(collector_cls, "record_completion", record)
            layers[side].append(profile_layers(workload.run_rep)[2])

    bounded = load_spec()["end_to_end"]
    parent = {"sim_req_per_s": rates["parent"]}
    assert regressions(parent, {"sim_req_per_s": rates["again"]},
                       bounded) == []
    flagged = regressions(parent, {"sim_req_per_s": rates["change"]}, bounded)
    assert [name for name, _worse in flagged] == ["sim_req_per_s"]

    # Attribution: the best profiled rep per side, with the host's speed
    # change between sides estimated from the layers the plant left alone.
    best = {side: {layer: min(run[layer] for run in runs) for layer in LAYERS}
            for side, runs in layers.items()}
    others = [layer for layer in LAYERS if layer != "metrics"]
    speed = (sum(best["change"][layer] for layer in others)
             / sum(best["parent"][layer] for layer in others))
    excess = {layer: best["change"][layer] - speed * best["parent"][layer]
              for layer in LAYERS}
    assert 0.5 * planted_s < excess["metrics"] < 2.0 * planted_s, excess
    assert max(abs(excess[layer]) for layer in others) \
        < 0.5 * excess["metrics"], excess
