#!/usr/bin/env python
"""Measure the endpoint message-coupling effect behind Figures 10/11.

With abundant virtual channels the network stops being the bottleneck
and the *organisation of the NI message queues* decides performance:
heterogeneous message types sharing a queue block behind each other
(head-of-line coupling). This example runs PR at 16 VCs on PAT271 with
shared vs per-type ("QA") queues, and reports:

* delivered throughput and latency,
* the coupling index: the fraction of queued messages waiting behind a
  head of a *different* type (0 = decoupled),
* the per-type latency breakdown showing which types pay for coupling.

Run:  python examples/endpoint_coupling.py [load]
"""

import sys

from repro import Engine, SimConfig
from repro.sim import format_breakdown, run_with_monitor


def measure(queue_mode: str, load: float):
    cfg = SimConfig(
        scheme="PR", pattern="PAT271", num_vcs=16,
        queue_mode=queue_mode, load=load, seed=1,
    )
    engine = Engine(cfg)
    engine.run(1500)  # warm-up
    engine.stats.begin_window(engine.now)
    monitor = run_with_monitor(engine, 5000, interval=50)
    window = engine.stats.end_window(engine.now)
    return engine, window, monitor


def main() -> None:
    load = float(sys.argv[1]) if len(sys.argv) > 1 else 0.016
    print(f"PR, PAT271, 16 VCs, applied load {load} (near saturation)\n")

    for mode, label in (("shared", "shared queues (PR default)"),
                        ("per-type", "per-type queues (QA, Figure 11)")):
        engine, window, monitor = measure(mode, load)
        nodes = engine.topology.num_nodes
        print(f"--- {label} ---")
        print(f"throughput     : {window.throughput_fpc(nodes):.4f} flits/node/cycle")
        print(f"mean latency   : {window.mean_latency():.1f} cycles")
        print(f"coupling index : {monitor.coupling_index():.2f}")
        print(format_breakdown(engine.stats))
        print()

    print("Shared queues mix m1..m4 in one FIFO: short requests queue "
          "behind 20-flit replies and unrelated types (coupling index "
          "well above zero), which is exactly why DR/PR trail SA in "
          "Figure 10 and recover with QA separation in Figure 11.")


if __name__ == "__main__":
    main()
