"""Run digests (:mod:`repro.bench.recorder`).

Speed is measured by the repo benchmark in ``perfbench/``; this package
only holds the digests that golden tests and that benchmark compare.
"""
