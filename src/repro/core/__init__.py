"""Core: deadlock detection and the SA/DR/PR handling schemes."""

from repro.core.cwg import build_wait_for_graph, detect_deadlock, find_knots
from repro.core.detection import DetectorPair, build_detectors
from repro.core.schemes import (
    SCHEMES,
    DeflectiveRecovery,
    DetectionOnly,
    ProgressiveRecovery,
    Scheme,
    StrictAvoidance,
    build_scheme,
    walk_specs,
)
from repro.core.token import Stop, Token, default_ring

__all__ = [
    "Scheme",
    "StrictAvoidance",
    "DeflectiveRecovery",
    "ProgressiveRecovery",
    "DetectionOnly",
    "SCHEMES",
    "build_scheme",
    "walk_specs",
    "DetectorPair",
    "build_detectors",
    "Token",
    "Stop",
    "default_ring",
    "build_wait_for_graph",
    "find_knots",
    "detect_deadlock",
]
