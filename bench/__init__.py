"""The repository's layered benchmark (see ``bench/README.md``).

``python3 -m bench`` measures every layer a campaign passes through —
engine, sweep/cache, farm, service — from outside, by timing calls into
the public functions of :mod:`repro`.  ``BENCHMARK.json`` at the
repository root names the metrics, workloads and regression bounds;
:mod:`bench.spec` is their single source inside the package.
"""
