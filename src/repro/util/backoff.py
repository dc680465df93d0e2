"""Retry backoff with deterministic seeded jitter.

One policy object serves the one retry loop in the repo — the farm
manager's shard retries, which is also how
:func:`repro.sim.parallel.run_points` retries a point — so "how hard do
we hammer a flapping worker" is decided in exactly one place.

Two properties matter and are pinned by ``tests/test_backoff.py``:

* **Exponential with a cap**: attempt ``n`` waits
  ``min(cap, base * factor ** (n - 1))`` seconds before jitter, so a
  persistently failing resource is probed at a geometrically decreasing
  rate instead of being hammered at full speed.
* **Deterministic jitter**: the jitter multiplier is drawn from
  ``random.Random`` seeded with ``(seed, key, attempt)``, so two runs of
  the same campaign produce the *same* retry timeline (reproducible
  scheduling, reproducible telemetry), while distinct keys — different
  shards, different hosts — still spread their retries apart in time
  instead of thundering in lockstep.

The policy computes delays; it never sleeps.  Callers own their clock
and sleep function so tests inject fakes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff schedule with deterministic, seeded jitter."""

    #: delay of the first retry in seconds (before jitter).
    base: float = 0.1
    #: multiplier applied per additional attempt.
    factor: float = 2.0
    #: upper bound on the un-jittered delay.
    cap: float = 5.0
    #: jitter fraction: the delay is scaled by ``1 + jitter * u`` with
    #: ``u`` uniform in [0, 1).  0 disables jitter entirely.
    jitter: float = 0.5
    #: seed folded into every jitter draw; campaigns reuse their run
    #: seed here so the retry timeline is part of the reproduction.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base < 0 or self.cap < 0:
            raise ConfigurationError("backoff base/cap must be >= 0")
        if self.factor < 1.0:
            raise ConfigurationError("backoff factor must be >= 1")
        if self.jitter < 0:
            raise ConfigurationError("backoff jitter must be >= 0")

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        ``key`` names the retried unit (a shard id, a host name, a sweep
        round) and decorrelates jitter across units without giving up
        determinism: the same ``(seed, key, attempt)`` always yields the
        same delay.
        """
        if attempt < 1:
            raise ConfigurationError("backoff attempt is 1-based")
        raw = min(self.cap, self.base * self.factor ** (attempt - 1))
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        return raw * (1.0 + self.jitter * rng.random())
