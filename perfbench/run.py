"""Run one workload of the repo benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2-exact --seed 42 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json`` and
``--trace 1`` the per-layer ones; ``--workload all`` runs every workload
both ways.  Each result ends with one JSON line: ``correct``,
``attempted`` and ``failed`` points, and ``metrics``.

Everything runs in fresh child processes ("sessions", see
``session.py``), one at a time, each with at most two pool workers:

- ``--trace 0``: one timed session that runs reps untraced for
  ``--seconds``, between set-up-only sessions (``SETUP_SAMPLES`` of
  them, about half before and half after).  ``setup_s`` is the median
  of their set-up times; the rates are medians over the measured reps.
  Times are in host seconds at the reference speed of ``hostspeed.py``:
  rates by its walk, set-up times by its ``start_time``.
- ``--trace 1``: one session that runs an untraced, a span-traced and a
  profiled rep.

The workload's inputs come from the seed folded into the
``GOLDEN_SEEDS`` seeds that ``goldens.json`` covers, so every run is
checked against a committed golden; a point that differs, raised or is
missing counts as failed.  The exit status is 1 when any run is not
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import REFERENCE_START_S, start_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seeds with a committed golden; ``--seed`` is taken modulo this.
GOLDEN_SEEDS = 64
#: Set-up-only sessions per untraced run; ``setup_s`` is their median.
#: About half run before the timed session and the rest after it, so
#: they sample more than one epoch of the host's speed.
SETUP_SAMPLES = 9
#: Largest accepted gap between the traced run's layer self times and
#: its wall time, as a share of the wall time.
CONSERVATION_TOLERANCE = 0.05
#: Every session must end by then, so a run ends within 180 s.
RUN_DEADLINE_S = 170.0


class SessionError(RuntimeError):
    """A session crashed, timed out or printed no result."""


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # nothing left in the group


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def load_goldens() -> Dict:
    with open(HERE / "goldens.json") as goldens:
        return json.load(goldens)


def spawn(workdir: Path, workload: str, seed: int, mode: str,
          deadline: float, budget: float = 0.0) -> Dict:
    """Run one session to completion and return its JSON result."""
    env = dict(os.environ)
    for knob in ("REPRO_SANITIZE", "REPRO_TIEBREAK"):
        env.pop(knob, None)  # they change what a point simulates
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--budget", repr(budget),
         "--workdir", str(workdir), "--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        _kill_group(proc.pid)  # the session and its workers
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SessionError(f"{mode} session of {workload} timed out")
        raise
    _kill_group(proc.pid)  # workers a failed session may have left behind
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionError(f"{mode} session of {workload} exited "
                           f"{proc.returncode}:\n{err[-2000:]}")
    return json.loads(lines[-1])


def check_reps(reps: List[Dict], expected: int, golden: Optional[Dict],
               ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` for *reps* against *golden*.

    Without a committed golden every point counts as failed.
    """
    attempted = expected * len(reps)
    if golden is None:
        return attempted, attempted, ["no golden is committed for the seed"]
    reference = golden["points"]
    failed = 0
    problems: List[str] = []
    for n, rep in enumerate(reps):
        if rep["error"]:
            failed += expected
            problems.append(f"rep {n} raised: "
                            f"{rep['error'].strip().splitlines()[-1]}")
            continue
        digests = rep["point_digests"]
        if len(digests) != expected:
            failed += expected
            problems.append(f"rep {n} delivered {len(digests)} of "
                            f"{expected} points")
            continue
        differ = [label for label, got, want
                  in zip(rep["labels"], digests, reference) if got != want]
        failed += len(differ)
        if differ:
            problems.append(f"rep {n}: points differ from the golden: "
                            + ", ".join(differ))
    return attempted, failed, problems


def run_untraced(workdir: Path, workload: str, seed: int, seconds: float,
                 deadline: float) -> Tuple[Dict, List[Dict]]:
    def setups(count: int) -> List[float]:
        """Set-up times, each scaled by the reference start time taken
        right before and right after it."""
        def start() -> float:
            return start_time(max(1.0, deadline - time.monotonic()))

        starts, samples = [start()], []
        for _ in range(count):
            setup = spawn(workdir, workload, seed, "setup",
                          deadline)["setup_s"]
            starts.append(start())
            samples.append(setup * REFERENCE_START_S
                           / ((starts[-2] + starts[-1]) / 2))
        return samples

    before = setups(SETUP_SAMPLES // 2)
    timed = spawn(workdir, workload, seed, "timed", deadline, seconds)
    after = setups(SETUP_SAMPLES - len(before))
    reps = timed["reps"]
    measured = [rep for rep in reps
                if rep["ref_wall_s"] is not None and not rep["error"]]
    if not measured:
        raise SessionError(f"every measured rep of {workload} raised")
    metrics = {
        "sim_req_per_s": statistics.median(
            rep["completed"] / rep["ref_wall_s"] for rep in measured),
        "points_per_s": statistics.median(
            rep["points"] / rep["ref_wall_s"] for rep in measured),
        "setup_s": statistics.median(before + after),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    return metrics, reps


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             spec: Dict, goldens: Dict) -> Dict:
    """One benchmark run; returns the result object (see module doc)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    seed %= GOLDEN_SEEDS
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spawn(workdir, workload, seed, "prepare", deadline)
        if trace:
            traced = spawn(workdir, workload, seed, "traced", deadline)
            metrics, reps = traced["metrics"], traced["reps"]
        else:
            metrics, reps = run_untraced(workdir, workload, seed, seconds,
                                         deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    entry = goldens[workload]
    golden = entry["seeds"].get(str(seed))
    attempted, failed, problems = check_reps(reps, entry["expected_points"],
                                             golden)
    verdicts = [f"golden of input seed {seed}: {golden['digest']}"
                if golden else f"golden of input seed {seed}: missing"]
    if trace:
        # check_reps already held all three reps to the golden, so
        # tracing changed nothing that was simulated.
        verdicts.extend(f"span {name}: {count} calls, {total:.4f} s, "
                        f"self {own:.4f} s"
                        for name, (count, total, own)
                        in traced["spans"].items())
        simulated = reps[1]["points"] - reps[1]["cache_hits"]
        if traced["points_traced"] != simulated:
            problems.append(f"spans saw {traced['points_traced']} of "
                            f"{simulated} simulated points")
        err = metrics["trace.conservation_err"]
        verdicts.append(f"layer self times sum to the traced wall time "
                        f"within {err:.2%} (tolerance "
                        f"{CONSERVATION_TOLERANCE:.0%})")
        if err > CONSERVATION_TOLERANCE:
            problems.append("layer self times do not sum to the traced "
                            "wall time")
    else:
        metrics["points_ok_frac"] = (attempted - failed) / attempted
    names = spec["per_layer" if trace else "end_to_end"]
    return {
        "workload": workload,
        "reps": len(reps),
        "verdicts": verdicts,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in names},
        },
    }


def print_report(run: Dict) -> None:
    result = run["result"]
    print(f"== {run['workload']}: {run['reps']} reps, "
          f"{result['attempted'] - result['failed']}/{result['attempted']} "
          f"points correct")
    for line in run["verdicts"] + run["problems"]:
        print(f"   {line}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<40} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    goldens = load_goldens()
    if args.workload == "all":
        plan = [(name, trace) for name in names for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    correct = True
    for workload, trace in plan:
        try:
            run = run_once(workload, args.seed, args.seconds, trace, spec,
                           goldens)
        except (SessionError, subprocess.SubprocessError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print_report(run)
        print(json.dumps(run["result"]), flush=True)
        correct = correct and run["result"]["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
