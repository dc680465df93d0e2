#!/usr/bin/env python
"""Quickstart: simulate one network and read its performance.

Builds the paper's default platform (8x8 wormhole torus, 4 VCs, Table 2
parameters) under the proposed progressive-recovery scheme (PR, Extended
Disha Sequential), applies a moderate synthetic load of PAT721
transactions, and prints throughput, latency and deadlock statistics.

Run:  python examples/quickstart.py [load]
"""

import sys

from repro import SimConfig
from repro.sim.engine import build_engine


def main() -> None:
    load = float(sys.argv[1]) if len(sys.argv) > 1 else 0.008

    config = SimConfig(
        scheme="PR",          # SA | DR | PR | NONE
        pattern="PAT721",     # Table 3 transaction pattern
        num_vcs=4,            # virtual channels per link
        load=load,            # requests/node/cycle
        seed=1,
    )
    engine = build_engine(config)
    print(f"Engine:   {engine.backend}")
    print(f"Topology: {engine.topology}")
    print(f"Scheme:   {engine.scheme.describe()}")

    window = engine.run_measured(warmup=2000, measure=8000)

    nodes = engine.topology.num_nodes
    print(f"\nApplied load        : {load:.4f} requests/node/cycle")
    print(f"Delivered throughput: {window.throughput_fpc(nodes):.4f} flits/node/cycle")
    print(f"Mean message latency: {window.mean_latency():.1f} cycles")
    print(f"Max message latency : {window.latency_max} cycles")
    print(f"Messages delivered  : {window.messages_delivered}")
    print(f"Transactions done   : {window.transactions_completed}")
    print(f"Deadlocks recovered : {window.deadlocks}")
    print(f"Normalized deadlocks: {window.normalized_deadlocks():.2e}")

    if config.scheme == "PR":
        ctl = engine.scheme.controller
        print(f"Token captures      : {ctl.rescues} "
              f"(NI: {ctl.ni_captures}, router: {ctl.router_captures})")


if __name__ == "__main__":
    main()
