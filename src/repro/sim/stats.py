"""Run statistics: latency, throughput, deadlock frequency.

Counters are kept for the whole run and for an explicit *measurement
window* (opened after warm-up), from which the paper's metrics are
computed: average message latency in cycles (queue waiting + network
time, i.e. generation to delivery into the destination input queue),
delivered throughput in flits/node/cycle, and the *normalized number of
deadlocks* — deadlocks divided by messages delivered (Section 4.1).
:func:`type_breakdown` / :func:`format_breakdown` report the per-type
rows (delivered counts, latency, queue wait, network time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocol.message import Message, Transaction


def _new_type_row() -> dict[str, float]:
    return {
        "delivered": 0,
        "flits": 0,
        "latency_sum": 0.0,
        "queue_wait_sum": 0.0,
        "network_sum": 0.0,
        "rescued": 0,
    }


@dataclass(slots=True)
class WindowCounters:
    """Counters accumulated while the measurement window is open."""

    start_cycle: int = 0
    end_cycle: int = 0
    messages_delivered: int = 0
    flits_delivered: int = 0
    latency_sum: float = 0.0
    latency_max: int = 0
    messages_consumed: int = 0
    transactions_completed: int = 0
    txn_latency_sum: float = 0.0
    deadlocks: int = 0
    deadlocks_unresolved: int = 0
    messages_admitted: int = 0

    @property
    def cycles(self) -> int:
        return max(1, self.end_cycle - self.start_cycle)

    def mean_latency(self) -> float:
        if self.messages_delivered == 0:
            return 0.0
        return self.latency_sum / self.messages_delivered

    def throughput_fpc(self, num_nodes: int) -> float:
        """Delivered traffic, flits per node per cycle."""
        return self.flits_delivered / (num_nodes * self.cycles)

    def normalized_deadlocks(self) -> float:
        if self.messages_delivered == 0:
            return 0.0
        return (self.deadlocks + self.deadlocks_unresolved) / self.messages_delivered


class SimStats:
    """Event hub fed by NIs, memory controllers and schemes.

    The delivery/consumption hooks run for every message in the system,
    so the measuring-window branch is hoisted into ``_live`` — the tuple
    of counter sets each event must update (the run totals, plus the
    window while one is open) — and the per-type rows are pre-created
    from the protocol's type list instead of being grown per delivery.
    """

    __slots__ = (
        "engine",
        "total",
        "window",
        "measuring",
        "_live",
        "load_samples",
        "_load_interval",
        "_last_sample_cycle",
        "_last_injected_flits",
        "_type_rows",
        "messages_created",
        "first_deadlock_cycle",
    )

    def __init__(self, engine) -> None:
        self.engine = engine
        self.total = WindowCounters()
        self.window: WindowCounters | None = None
        self.measuring = False
        #: Counter sets every event updates (total, plus open window).
        self._live: tuple[WindowCounters, ...] = (self.total,)
        # Per-interval injected-flit counts for load-rate distributions
        # (Figure 6); enabled on demand.
        self.load_samples: list[float] = []
        self._load_interval = 0
        self._last_sample_cycle = 0
        self._last_injected_flits = 0
        # Per-message-type breakdown (whole run): delivered count, total
        # latency, source-queue wait, and in-network time.  Feeds
        # type_breakdown (the per-type diagnostics behind Figures
        # 10/11).  Rows for every protocol type are pre-created;
        # `by_type` exposes only the types actually delivered.
        self._type_rows: dict[str, dict[str, float]] = {
            t.name: _new_type_row() for t in engine.protocol.all_types
        }
        # Message-conservation ledger (repro.sim.invariants): every
        # message entering the system — transaction roots, subordinates,
        # DR backoff replies — bumps this exactly once.  Run-total, never
        # windowed: conservation must balance over the whole run.
        self.messages_created = 0
        #: cycle of the first detected deadlock (-1 = none yet); the
        #: fault experiments report detection latency from it.
        self.first_deadlock_cycle = -1

    @property
    def by_type(self) -> dict[str, dict[str, float]]:
        """Per-type rows for the types delivered at least once."""
        return {
            name: row for name, row in self._type_rows.items() if row["delivered"]
        }

    # ------------------------------------------------------------------
    # Window control
    # ------------------------------------------------------------------
    def begin_window(self, now: int) -> None:
        self.window = WindowCounters(start_cycle=now, end_cycle=now)
        self.measuring = True
        self._live = (self.total, self.window)

    def end_window(self, now: int) -> WindowCounters:
        assert self.window is not None
        self.window.end_cycle = now
        self.measuring = False
        self._live = (self.total,)
        return self.window

    def enable_load_sampling(self, interval: int) -> None:
        """Record injected flits/node/cycle per ``interval`` cycles."""
        self._load_interval = interval
        self._last_sample_cycle = 0
        self._last_injected_flits = self.engine.fabric.flits_injected

    def on_cycle(self, now: int) -> None:
        if self._load_interval and now - self._last_sample_cycle >= self._load_interval:
            injected = self.engine.fabric.flits_injected
            delta = injected - self._last_injected_flits
            nodes = self.engine.topology.num_nodes
            cycles = now - self._last_sample_cycle
            self.load_samples.append(delta / (nodes * cycles))
            self._last_sample_cycle = now
            self._last_injected_flits = injected

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def on_admitted(self, msg: Message, now: int) -> None:
        for w in self._live:
            w.messages_admitted += 1

    def on_created(self, msg: Message) -> None:
        self.messages_created += 1

    def on_delivered(self, msg: Message, now: int) -> None:
        latency = now - msg.created_cycle
        row = self._type_rows.get(msg.mtype.name)
        if row is None:  # type outside the protocol (custom traffic)
            row = self._type_rows[msg.mtype.name] = _new_type_row()
        row["delivered"] += 1
        row["flits"] += msg.size
        row["latency_sum"] += latency
        entered = msg.injected_cycle if msg.injected_cycle >= 0 else msg.created_cycle
        row["queue_wait_sum"] += entered - msg.created_cycle
        row["network_sum"] += now - entered
        if msg.rescued:
            row["rescued"] += 1
        size = msg.size
        for w in self._live:
            w.messages_delivered += 1
            w.flits_delivered += size
            w.latency_sum += latency
            if latency > w.latency_max:
                w.latency_max = latency

    def on_consumed(self, msg: Message, now: int) -> None:
        for w in self._live:
            w.messages_consumed += 1

    def on_transaction_complete(self, txn: Transaction, now: int) -> None:
        self.engine.interfaces[txn.requester].on_transaction_complete()
        latency = now - txn.created_cycle
        for w in self._live:
            w.transactions_completed += 1
            w.txn_latency_sum += latency

    def on_deadlock(self, now: int, resolved: bool) -> None:
        if self.first_deadlock_cycle < 0:
            self.first_deadlock_cycle = now
        if resolved:
            for w in self._live:
                w.deadlocks += 1
        else:
            for w in self._live:
                w.deadlocks_unresolved += 1


def type_breakdown(stats) -> dict[str, dict[str, float]]:
    """Per-message-type means derived from ``SimStats.by_type``."""
    out: dict[str, dict[str, float]] = {}
    for name, row in stats.by_type.items():
        n = max(1, row["delivered"])
        out[name] = {
            "delivered": row["delivered"],
            "flits": row["flits"],
            "mean_latency": row["latency_sum"] / n,
            "mean_queue_wait": row["queue_wait_sum"] / n,
            "mean_network_time": row["network_sum"] / n,
            "rescued": row["rescued"],
        }
    return out


def format_breakdown(stats) -> str:
    """Human-readable per-type table (used by examples and the CLI)."""
    rows = type_breakdown(stats)
    lines = [
        f"{'type':8s} {'count':>8s} {'latency':>9s} {'queue':>8s} "
        f"{'network':>8s} {'rescued':>8s}"
    ]
    for name in sorted(rows):
        r = rows[name]
        lines.append(
            f"{name:8s} {r['delivered']:8.0f} {r['mean_latency']:8.1f}c "
            f"{r['mean_queue_wait']:7.1f}c {r['mean_network_time']:7.1f}c "
            f"{r['rescued']:8.0f}"
        )
    return "\n".join(lines)
