"""The fault injector: schedules fault specs and drives the fault hooks.

The injector is built by the engine when ``config.faults`` is non-empty
and steps once per cycle *before* traffic generation, so a fault applied
at cycle ``t`` shapes everything the system does at ``t``.  Faults act
through deliberately narrow hooks — the stall sets on
:class:`~repro.network.fabric.Fabric`, the ``stalled`` flag on
:class:`~repro.endpoint.controller.MemoryController`, and the
loss/duplication state on :class:`~repro.core.token.Token` — so the
healthy hot path pays only a truthiness test per phase.
"""

from __future__ import annotations

from repro.faults.models import EVENT_KINDS, FaultSpec
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng


class _Fault:
    """Runtime state machine for one spec: idle -> active -> (idle | done)."""

    def __init__(self, spec: FaultSpec, rng) -> None:
        self.spec = spec
        self.rng = rng  # None unless probabilistic
        self.active = False
        self.active_until = -1  # revoke cycle (exclusive); -1 = permanent
        self.activations = 0
        self.done = False  # one-shot events only

    # -- scheduling ----------------------------------------------------
    def step(self, engine, now: int) -> None:
        spec = self.spec
        if self.active:
            if 0 <= self.active_until <= now:
                self.revoke(engine)
                self.active = False
                if engine.tracer is not None:
                    engine.tracer.fault_revoked(spec.describe(), now)
            else:
                return
        if self.done or now < spec.start:
            return
        if spec.probability > 0.0:
            if self.rng.random() >= spec.probability:
                return
        elif self.activations > 0:
            return  # cycle-scheduled faults fire exactly once
        if not self.apply(engine, now):
            return  # not applicable yet (e.g. token currently held)
        if engine.tracer is not None:
            engine.tracer.fault_applied(spec.describe(), now)
        self.activations += 1
        if spec.kind in EVENT_KINDS:
            self.done = True
        else:
            self.active = True
            self.active_until = now + spec.duration if spec.duration else -1

    # -- per-kind behaviour (overridden) -------------------------------
    def validate(self, engine) -> None:
        """Raise :class:`ConfigurationError` for an out-of-range target."""

    def apply(self, engine, now: int) -> bool:
        raise NotImplementedError

    def revoke(self, engine) -> None:
        raise NotImplementedError


class _LinkStall(_Fault):
    def validate(self, engine) -> None:
        if self.spec.target >= len(engine.topology.links):
            raise ConfigurationError(
                f"link-stall target {self.spec.target} out of range"
            )

    def apply(self, engine, now: int) -> bool:
        engine.fabric.stalled_links.add(self.spec.target)
        return True

    def revoke(self, engine) -> None:
        engine.fabric.stalled_links.discard(self.spec.target)


class _RouterFreeze(_Fault):
    def validate(self, engine) -> None:
        if self.spec.target >= engine.topology.num_routers:
            raise ConfigurationError(
                f"router-freeze target {self.spec.target} out of range"
            )
        self._out_links = [
            link.lid for link in engine.topology.links
            if link.src == self.spec.target
        ]

    def apply(self, engine, now: int) -> bool:
        fabric = engine.fabric
        fabric.stalled_routers.add(self.spec.target)
        fabric.stalled_links.update(self._out_links)
        return True

    def revoke(self, engine) -> None:
        fabric = engine.fabric
        fabric.stalled_routers.discard(self.spec.target)
        fabric.stalled_links.difference_update(self._out_links)


class _ConsumerStall(_Fault):
    def validate(self, engine) -> None:
        if self.spec.target >= engine.topology.num_nodes:
            raise ConfigurationError(
                f"consumer-stall target {self.spec.target} out of range"
            )

    def apply(self, engine, now: int) -> bool:
        engine.interfaces[self.spec.target].controller.stalled = True
        return True

    def revoke(self, engine) -> None:
        engine.interfaces[self.spec.target].controller.stalled = False


class _EjectStall(_Fault):
    def validate(self, engine) -> None:
        if self.spec.target >= engine.topology.num_nodes:
            raise ConfigurationError(
                f"eject-stall target {self.spec.target} out of range"
            )

    def apply(self, engine, now: int) -> bool:
        engine.fabric.stalled_ejects.add(self.spec.target)
        return True

    def revoke(self, engine) -> None:
        engine.fabric.stalled_ejects.discard(self.spec.target)


def _token_of(engine):
    controller = getattr(engine.scheme, "controller", None)
    return getattr(controller, "token", None)


class _TokenLoss(_Fault):
    def validate(self, engine) -> None:
        if _token_of(engine) is None:
            raise ConfigurationError(
                f"{self.spec.kind} requires the PR scheme (no token ring)"
            )

    def apply(self, engine, now: int) -> bool:
        # A held token cannot silently vanish mid-rescue in this model;
        # the loss fires once the rescue releases it.
        return _token_of(engine).lose()

    def revoke(self, engine) -> None:  # pragma: no cover - event kind
        pass


class _TokenDup(_TokenLoss):
    def apply(self, engine, now: int) -> bool:
        _token_of(engine).duplicate()
        return True


_FAULT_CLASSES = {
    "link-stall": _LinkStall,
    "router-freeze": _RouterFreeze,
    "consumer-stall": _ConsumerStall,
    "eject-stall": _EjectStall,
    "token-loss": _TokenLoss,
    "token-dup": _TokenDup,
}


class FaultInjector:
    """Owns the run's faults and applies them cycle by cycle."""

    def __init__(self, engine, specs, seed: int) -> None:
        self.engine = engine
        self.faults: list[_Fault] = []
        for i, spec in enumerate(specs):
            rng = make_rng(seed, f"fault:{i}") if spec.probability > 0.0 else None
            fault = _FAULT_CLASSES[spec.kind](spec, rng)
            fault.validate(engine)
            self.faults.append(fault)

    def step(self, now: int) -> bool:
        """Step every fault; True if any was applied or revoked."""
        engine = self.engine
        before = [(f.active, f.activations) for f in self.faults]
        for fault in self.faults:
            fault.step(engine, now)
        return before != [(f.active, f.activations) for f in self.faults]

    # -- introspection (dumps, experiments, tests) ---------------------
    def active_descriptions(self) -> list[str]:
        return [f.spec.describe() for f in self.faults if f.active]

    def activation_counts(self) -> dict[str, int]:
        """Deterministic per-spec activation tally (dump/report material)."""
        return {f.spec.describe(): f.activations for f in self.faults}
