"""Figure 6: load-rate distributions of the benchmark applications.

Replays each application trace through the 4x4-torus trace environment
(Section 4.2.1: 4 VCs, 16-message queues, Duato escape routing) and
histograms the injected network load per sampling interval as a fraction
of network capacity.  Paper observations reproduced here:

* FFT, LU, Water: network load stays under 5% of capacity for the vast
  majority of execution time (92-99% in the paper);
* Radix: the only application that drives load toward saturation
  (bursts up to ~30-40% of capacity; ~19% average).
"""

from __future__ import annotations

import numpy as np

from repro.config import SimConfig
from repro.experiments.common import get_scale
from repro.protocol.chains import MSI_COHERENCE
from repro.protocol.coherence import DirectoryMSI
from repro.sim.engine import build_engine
from repro.traffic.splash import APP_MODELS, generate_app_trace
from repro.traffic.trace import TraceTraffic, trace_couplings

#: Load bands (fractions of capacity) used for the histogram.
BANDS = (0.05, 0.10, 0.15, 0.20, 0.30, 1.01)

MSI_TYPES = ("RQ", "FRQ", "FRP", "RP")


def simulate_app(
    app: str,
    duration: int,
    seed: int = 2,
    num_cpus: int = 16,
    sample_interval: int = 500,
    dims: tuple[int, ...] = (4, 4),
    bristling: int = 1,
    cwg_interval: int = 0,
):
    """Trace-driven run of one app; returns (engine, load samples)."""
    records = generate_app_trace(app, num_cpus, duration, seed=seed)
    coherence = DirectoryMSI(num_cpus)
    traffic = TraceTraffic(records, coherence)
    config = SimConfig(
        dims=dims,
        bristling=bristling,
        scheme="NONE",
        num_vcs=4,
        load=0.0,
        queue_mode="per-type",
        cwg_interval=cwg_interval,
    )
    engine = build_engine(
        config,
        traffic=traffic,
        protocol=MSI_COHERENCE,
        types_used=MSI_TYPES,
        couplings=trace_couplings(),
    )
    engine.stats.enable_load_sampling(sample_interval)
    engine.stats.begin_window(0)
    engine.run(duration + 1000)
    engine.stats.end_window(engine.now)
    return engine, np.asarray(engine.stats.load_samples)


def run(scale: str = "smoke", seed: int = 2) -> dict:
    """{app: {"mean": float, "bands": [fraction per band], ...}}."""
    sc = get_scale(scale)
    out = {}
    for app in APP_MODELS:
        engine, samples = simulate_app(app, sc.trace_duration, seed=seed)
        cap = engine.topology.uniform_capacity()
        rel = samples / cap
        hist = []
        lo = 0.0
        for hi in BANDS:
            hist.append(float(((rel >= lo) & (rel < hi)).mean()))
            lo = hi
        out[app] = {
            "mean": float(rel.mean()),
            "max": float(rel.max()),
            "frac_below_5pct": float((rel < 0.05).mean()),
            "bands": hist,
        }
    return out


def main(scale: str = "smoke") -> None:
    rows = run(scale)
    labels = ["<5%", "5-10%", "10-15%", "15-20%", "20-30%", ">30%"]
    print("\n== Figure 6: load rate distributions (fraction of time) ==")
    print(f"{'App':8s} {'mean':>6s} {'max':>6s}  " + "  ".join(f"{lab:>7s}" for lab in labels))
    for app, row in rows.items():
        bands = "  ".join(f"{v*100:6.1f}%" for v in row["bands"])
        print(f"{app:8s} {row['mean']*100:5.1f}% {row['max']*100:5.1f}%  {bands}")


if __name__ == "__main__":
    main()
