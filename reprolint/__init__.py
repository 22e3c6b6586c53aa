"""reprolint — determinism & sim-discipline analysis of ``src/repro``.

The reproduction's headline guarantees — byte-identical seeded runs,
no wall-clock or ambient-RNG reads on simulated paths, a complete
observability catalogue, audit-registered state — are *invariants of
the source tree*, not just of any one run.  This package checks them;
no runtime module imports it.

* :mod:`reprolint.lint` — the linter framework: rule registry, inline
  suppressions (``# reprolint: disable=DET001``), a committed baseline.
  :mod:`reprolint.rules`, :mod:`reprolint.callgraph` and
  :mod:`reprolint.protocol` hold the rule packs, :mod:`reprolint.cli`
  the driver behind ``tools/reprolint.py``.
* :mod:`reprolint.race` — the dynamic companion: a scheduler that
  permutes same-time tie-break orders, driven over the golden runs of
  :mod:`reprolint.scenarios` by ``tools/race_sweep.py``.

docs/STATIC_ANALYSIS.md has the rule catalogue.
"""
