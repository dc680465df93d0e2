"""The common detector interface: one protocol, three mechanisms.

The paper's schemes are agnostic to *how* deadlock is found; this
module makes that explicit.  A :class:`Detector` owns a list of
per-(NI, queue-coupling) **sites** — objects interface-compatible with
:class:`~repro.core.detection.DetectorPair` — that :meth:`Detector.poll`
steps in build order every cycle, handing each fired one to the
scheme's recovery act.  The detector additionally gets one
:meth:`Detector.pre_step` call at the top of the poll, which is where
distributed mechanisms (the Chandy-Misra-Haas edge chase) move their
probes.

Mechanisms
----------
``endpoint``
    The paper's three-condition detector
    (:class:`~repro.core.detection.DetectorPair`).
``cmh``
    Chandy-Misra-Haas edge chasing with real probe messages
    (:mod:`repro.core.cmh`).
``timeout``
    The cheap progress-timeout heuristic
    (:class:`~repro.core.detection.TimeoutSite`).

The omniscient CWG checker (:mod:`repro.core.cwg`) is *not* a
:class:`Detector`: it stays the out-of-band ground truth that the
detection lab scores the in-band mechanisms against.
"""

from __future__ import annotations

from repro.core.detection import DetectorPair, TimeoutSite, build_detectors
from repro.util.errors import ConfigurationError

#: overhead counter names every detector reports (zeros when N/A).
OVERHEAD_FIELDS = (
    "probes_sent", "probes_forwarded", "probes_returned",
    "probes_dropped", "probe_hops",
)


class Detector:
    """A detection mechanism: a list of sites plus a per-cycle pre-step.

    ``sites`` is fixed at construction, in build order (NI by NI, each
    NI's couplings sorted); ``by_node`` groups them per NI in the same
    order.  :meth:`poll` is the one detection loop of both engines: the
    reference sweeps every site, the vector backend only the NIs its
    lazy bank has due.  ``kind`` names the mechanism
    (``SimConfig.detector``).
    """

    def __init__(self, kind: str, scheme, engine, sites) -> None:
        self.kind = kind
        self.scheme = scheme
        self.engine = engine
        self.sites = list(sites)
        self.by_node: dict[int, list] = {}
        for site in self.sites:
            self.by_node.setdefault(site.ni.node, []).append(site)
        #: telemetry hook (repro.telemetry.Tracer) or None.
        self.tracer = None

    def pre_step(self, now: int) -> None:
        """Per-cycle mechanism work before the sites are polled."""

    def poll(self, now: int, act, nodes=None) -> None:
        """One cycle: the pre-step, then ``act(site, now)`` for every
        fired site in build order (the order recoveries interleave in).
        ``nodes``, ascending, limits the sweep to those NIs' sites, in
        build order too, as sites are built NI by NI: the vector
        backend passes the nodes its lazy bank has due."""
        self.pre_step(now)
        by_node = self.by_node
        for sites in [self.sites] if nodes is None else [by_node[n] for n in nodes]:
            for site in sites:
                if site.update(now) and site.fired(now):
                    act(site, now)

    def overhead(self) -> dict[str, int]:
        """Probe-traffic bill of the run so far (all zero if probeless)."""
        return {name: getattr(self, name, 0) for name in OVERHEAD_FIELDS}

    def describe(self) -> dict:
        return {"detector": self.kind, "sites": len(self.sites)}


def build_detector(scheme, engine, require_request_child: bool) -> Detector:
    """Instantiate the detector named by ``scheme.config.detector``."""
    config = scheme.config
    kind = config.detector
    if kind == "cmh":
        from repro.core.cmh import CmhDetector

        return CmhDetector(scheme, engine, require_request_child)
    if kind == "endpoint":
        site_class, threshold = DetectorPair, config.detection_threshold
    elif kind == "timeout":
        site_class, threshold = TimeoutSite, config.timeout_threshold
    else:
        raise ConfigurationError(f"unknown detector {kind!r}")
    return Detector(kind, scheme, engine, build_detectors(
        scheme, engine, scheme.couplings, require_request_child,
        site_class=site_class, threshold=threshold,
    ))


__all__ = [
    "Detector",
    "DetectorPair",
    "build_detector",
    "OVERHEAD_FIELDS",
]
