"""Deterministic, seeded fault models for adversarial robustness runs.

Every fault is described by a :class:`FaultSpec` — a frozen dataclass
carried on :class:`~repro.config.SimConfig` so a faulted run is cached,
swept and reproduced exactly like a healthy one.  A spec is *scheduled*
either by cycle (``start`` + ``duration``) or by probability (a seeded
per-cycle Bernoulli activation while idle, each episode lasting
``duration`` cycles), and is *deterministic* under a fixed seed: two
runs of the same config produce identical fault timelines, identical
recovery counters and identical deadlock dumps.

Fault kinds
-----------
``link-stall``
    The targeted link forwards no flits while active (transient glitch
    or, with ``duration=0``, a permanently dead link).
``router-freeze``
    The targeted router neither allocates routes nor forwards flits on
    any of its outgoing links.  The PR deadlock-buffer lane is a
    dedicated physical resource and is deliberately *not* frozen —
    progressive recovery must remain able to rescue past the fault.
``consumer-stall``
    The targeted node's memory controller services nothing while active
    (a stalled memory controller / NI consumer): deliveries continue
    until the input queues fill, which is exactly the condition from
    which message-dependent deadlock grows.
``eject-stall``
    The targeted node's ejection port drains no flits (delayed
    ejection): packets block inside the network holding their channels.
``token-loss``
    PR only: the circulating token is dropped (a one-shot event; if the
    token is held by a rescue, the loss is deferred until release).
    Recovery is the controller's token-regeneration watchdog.
``token-dup``
    PR only: a duplicate token appears (one-shot).  The simulator does
    not model two live tokens; the fault exists so the invariant
    layer's token-uniqueness check provably catches the corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError
from repro.util.options import parse_spec

FAULT_KINDS = (
    "link-stall",
    "router-freeze",
    "consumer-stall",
    "eject-stall",
    "token-loss",
    "token-dup",
)

#: kinds whose activation is an instantaneous event, not a held state.
EVENT_KINDS = ("token-loss", "token-dup")


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: what, where, and when."""

    #: one of :data:`FAULT_KINDS`.
    kind: str
    #: link id, router id or node id depending on ``kind``; token faults
    #: have no target and keep the default.
    target: int = -1
    #: first cycle the fault may activate.
    start: int = 0
    #: cycles each activation lasts; 0 = permanent (stateful kinds) or
    #: irrelevant (event kinds).
    duration: int = 0
    #: per-cycle activation probability while idle (0 = activate exactly
    #: once, at ``start``).  Draws come from a substream of the run seed,
    #: so the schedule is deterministic per config.
    probability: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind {self.kind!r} not in {FAULT_KINDS}"
            )
        if self.kind not in EVENT_KINDS and self.target < 0:
            raise ConfigurationError(f"fault {self.kind!r} needs a target id")
        if self.start < 0 or self.duration < 0:
            raise ConfigurationError("fault start/duration must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("fault probability must be in [0, 1]")
        if self.probability > 0.0 and self.duration <= 0:
            raise ConfigurationError(
                "a probabilistic fault needs a positive duration"
            )

    def describe(self) -> str:
        where = f"@{self.target}" if self.target >= 0 else ""
        when = (
            f"p={self.probability:g}" if self.probability > 0.0
            else f"start={self.start}"
        )
        life = f"dur={self.duration}" if self.duration else "permanent"
        if self.kind in EVENT_KINDS:
            life = "event"
        return f"{self.kind}{where}[{when},{life}]"


def parse_fault(text: str) -> FaultSpec:
    """Parse a CLI fault description into a :class:`FaultSpec`.

    Format: ``kind[:key=value,...]`` with keys ``target``, ``start``,
    ``duration`` and ``p`` (probability), e.g.
    ``consumer-stall:target=5,start=600,duration=1500`` or
    ``link-stall:target=3,p=0.001,duration=40``.
    """
    return parse_spec(FaultSpec, text, "fault",
                      {"p": "probability", "prob": "probability"})
