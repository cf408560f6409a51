"""Regenerate ``goldens.json``: the expected points of every workload.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_goldens.py --jobs 2

It writes seeds ``0 .. GOLDEN_SEEDS - 1`` of every workload (``run.py``
folds any ``--seed`` into that range).  Each golden is taken from the workload's ``reference()`` rep, which runs
its points serially and without a cache.  Regenerate only when
a change is meant to alter simulated results, and say why in the
change; the Figure 2 golden at seed 42 must stay the repo's pinned
``6cf80a3c0fedef87`` unless that pin moves too.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import tempfile
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
FIG2_PIN = "6cf80a3c0fedef87"


def golden_for(task: Tuple[str, int]) -> Tuple[str, int, Dict]:
    from workloads import WORKLOADS
    name, seed = task
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        rep = WORKLOADS[name](seed, Path(workdir)).reference()
    if rep.error:
        raise RuntimeError(f"{name} seed {seed}: {rep.error}")
    return name, seed, rep.summary()


def main(argv=None) -> int:
    from run import GOLDEN_SEEDS
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    goldens: Dict = {}
    tasks = [(name, seed) for name in WORKLOADS
             for seed in range(GOLDEN_SEEDS)]
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for name, seed, rep in pool.imap(golden_for, tasks):
            entry = goldens.setdefault(name, {
                "expected_points": WORKLOADS[name].expected_points,
                "labels": rep["labels"], "seeds": {}})
            if rep["labels"] != entry["labels"] or \
                    rep["points"] != entry["expected_points"]:
                raise RuntimeError(f"{name} seed {seed}: points changed")
            entry["seeds"][str(seed)] = {"digest": rep["digest"],
                                         "points": rep["point_digests"]}
            print(f"{name} seed {seed}: {rep['digest']}", flush=True)
    fig2 = goldens["fig2-exact"]["seeds"]["42"]
    if fig2["digest"] != FIG2_PIN:
        raise RuntimeError(f"fig2-exact seed 42 is {fig2['digest']}, "
                           f"not the pinned {FIG2_PIN}")
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
