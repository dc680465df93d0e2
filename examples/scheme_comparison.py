#!/usr/bin/env python
"""Compare SA / DR / PR across a load sweep (a miniature Figure 8/10).

Sweeps applied load for each valid scheme on a chosen pattern and VC
budget, printing Burton-Normal-Form curves (throughput vs latency) and
the saturation summary.  This is the experiment at the heart of the
paper: with few virtual channels the avoidance-based schemes starve on
partitioned resources and PR's full sharing wins; with many channels the
endpoint queue organisation takes over.

Run:  python examples/scheme_comparison.py [PAT721] [4]
"""

import sys

from repro import SimConfig, run_sweep
from repro.experiments.common import valid_schemes
from repro.protocol.transactions import PATTERNS


def main() -> None:
    pattern = sys.argv[1] if len(sys.argv) > 1 else "PAT721"
    num_vcs = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    if pattern not in PATTERNS:
        raise SystemExit(f"unknown pattern {pattern}; choose from {sorted(PATTERNS)}")

    loads = [0.003, 0.006, 0.009, 0.012, 0.015]
    print(f"Pattern {pattern}, {num_vcs} VCs/link, 8x8 torus")
    print(f"Valid schemes here: {valid_schemes(pattern, num_vcs)}\n")

    for scheme in valid_schemes(pattern, num_vcs):
        cfg = SimConfig(scheme=scheme, pattern=pattern, num_vcs=num_vcs, seed=1)
        sweep = run_sweep(cfg, loads, warmup=2000, measure=5000)
        print(f"--- {scheme} ---")
        print(f"{'load':>8s} {'thr (fpc)':>10s} {'latency':>9s} {'deadlocks':>10s}")
        for p in sweep.points:
            print(
                f"{p.load:8.4f} {p.throughput_fpc:10.4f} "
                f"{p.mean_latency:8.1f}c {p.deadlocks:10d}"
            )
        print(f"saturation throughput: {sweep.saturation_throughput():.4f}\n")


if __name__ == "__main__":
    main()
