"""Exception types raised by the simulator."""

from __future__ import annotations


class ConfigurationError(ValueError):
    """An invalid or inconsistent simulation configuration.

    Raised eagerly at construction time, e.g. when strict avoidance is
    requested with fewer virtual channels than ``2 * chain_length`` or when
    deflective recovery is paired with a two-type protocol (both
    configurations the paper itself marks as infeasible/invalid).
    """


class SimulationError(RuntimeError):
    """An internal invariant of the simulator was violated at run time.

    These indicate bugs, never user error: e.g. a flit arriving into a full
    buffer, a message delivered twice, or two simultaneous token holders.
    """


class UnsupportedFeatureError(ConfigurationError):
    """A config pinned to the vector engine has a torus or mesh too
    large for the kernel's route table
    (:func:`repro.sim.vector.engine.route_table_overflow`).  Raised at
    construction; the default ``backend`` never raises it — it runs such
    a point on the reference engine.
    """


class DiagnosedError(SimulationError):
    """A runtime failure carrying a structured deadlock dump.

    ``dump`` is a plain JSON-able dict (see
    :func:`repro.sim.invariants.capture_dump`) so the exception survives
    pickling across the sweep worker pool with its diagnosis intact.
    """

    def __init__(self, message: str, dump: dict | None = None) -> None:
        super().__init__(message)
        self.dump = dump

    def __reduce__(self):
        return (type(self), (self.args[0], self.dump))


class LivenessError(DiagnosedError):
    """The forward-progress watchdog fired: a non-empty system made no
    progress for the configured number of cycles — an unrecovered
    deadlock or livelock.  Raised instead of letting the run hang."""


class InvariantViolation(DiagnosedError):
    """A periodic invariant check failed: messages were lost or
    duplicated, the flit-occupancy ledger diverged from the buffers,
    queue slot accounting went negative, or token uniqueness broke."""


class PointTimeoutError(RuntimeError):
    """A sweep point exceeded its wall-clock budget and its worker was
    killed.  The engine-level watchdog (``watchdog_timeout``) is the
    diagnosing mechanism; this is the backstop that keeps a hung point
    from stalling a whole campaign."""

    def __init__(self, timeout: float, config=None) -> None:
        self.timeout = timeout
        self.config = config
        super().__init__(
            f"sweep point exceeded its {timeout:g}s wall-clock timeout;"
            " worker killed"
        )

    def __reduce__(self):
        return (type(self), (self.timeout, self.config))


class SweepExecutionError(RuntimeError):
    """One or more sweep points kept failing after their retry budget.

    Raised by :func:`repro.sim.parallel.run_points` so a crashed worker is
    reported with its configuration instead of silently dropping the
    point.  ``failures`` maps the failed point's index in the submitted
    batch to ``(config, exception)``; exceptions carrying a liveness
    dump are summarized inline (the full dump stays on the exception).

    Farm campaigns (:mod:`repro.farm`) additionally attach
    ``attribution``: a per-host summary (``host -> {"state", "shards_ok",
    "shards_failed", "last_error"}``) so a distributed failure names the
    machines that caused it, not just the points that were lost.
    """

    def __init__(self, failures: dict, attribution: dict | None = None) -> None:
        self.failures = failures
        self.attribution = dict(attribution or {})
        lines = [f"{len(failures)} sweep point(s) failed after retries:"]
        for idx in sorted(failures):
            config, exc = failures[idx]
            lines.append(
                f"  point {idx}: scheme={config.scheme} pattern={config.pattern}"
                f" vcs={config.num_vcs} load={config.load}: {exc!r}"
            )
            dump = getattr(exc, "dump", None)
            if dump:
                lines.append(
                    f"    dump: cycle={dump.get('cycle')}"
                    f" reason={dump.get('reason')!r}"
                    f" knots={len(dump.get('cwg_knots') or ())}"
                    f" stalled_nis={len(dump.get('interfaces', {}))}"
                    " (full dump on .failures[idx][1].dump)"
                )
        if self.attribution:
            lines.append("per-host attribution:")
            for host in sorted(self.attribution):
                info = self.attribution[host]
                line = (
                    f"  {host}: state={info.get('state')}"
                    f" ok={info.get('shards_ok', 0)}"
                    f" failed={info.get('shards_failed', 0)}"
                )
                if info.get("last_error"):
                    line += f" last_error={info['last_error']!r}"
                lines.append(line)
        super().__init__("\n".join(lines))

    def __reduce__(self):
        return (type(self), (self.failures, self.attribution))
