"""Campaign planning: a sweep grid partitioned into dispatchable shards.

A *campaign* is an ordered list of :class:`~repro.config.SimConfig`
points plus one (warmup, measure) window — exactly the argument list of
:func:`repro.sim.parallel.run_points`, persisted to JSON so a farm run
can be planned on one machine, executed from another, and resumed after
a crash.  A *shard* is a contiguous slice of campaign point indices: the
unit of dispatch, retry and speculative re-execution.

The per-point cache key (:func:`repro.sim.parallel.point_key`) is the
coordination substrate: resolving a campaign against a
:class:`~repro.sim.parallel.ResultCache`
(:func:`repro.sim.parallel.resolve_points`) returns only the points the
cache does not already hold, which makes resume the same operation as a
fresh run — finished points are never recomputed, whoever computed
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.config import SimConfig
from repro.faults.models import FaultSpec
from repro.sim.parallel import _CONFIG_FIELDS, code_version, config_to_dict, point_key
from repro.util.atomic import write_json_atomic
from repro.util.errors import ConfigurationError

#: on-disk name of a planned campaign inside its farm directory.
PLAN_FILENAME = "campaign.json"
#: on-disk name of the post-run summary written next to the plan.
STATE_FILENAME = "state.json"


def config_from_dict(payload: dict) -> SimConfig:
    """Rebuild a :class:`SimConfig` from what
    :func:`~repro.sim.parallel.config_to_dict` returned.  A key this
    version has no field for raises :class:`ConfigurationError`."""
    unknown = payload.keys() - _CONFIG_FIELDS
    if unknown:
        raise ConfigurationError(
            f"config has unknown field(s) {', '.join(sorted(unknown))};"
            " it was written by another version: re-plan with this version"
        )
    data = dict(payload)
    data["dims"] = tuple(data["dims"])
    data["faults"] = tuple(
        FaultSpec(**spec) for spec in data.get("faults", ())
    )
    return SimConfig(**data)


@dataclass(frozen=True)
class Shard:
    """A contiguous slice of campaign point indices: the dispatch unit."""

    index: int
    points: tuple[int, ...]

    def describe(self) -> str:
        if not self.points:
            return f"shard {self.index} (empty)"
        return (
            f"shard {self.index}"
            f" [{self.points[0]}..{self.points[-1]}, {len(self.points)} pts]"
        )


def plan_shards(point_indices: list[int] | tuple[int, ...],
                shard_size: int) -> tuple[Shard, ...]:
    """Chunk ``point_indices`` into contiguous shards of ``shard_size``."""
    if shard_size < 1:
        raise ConfigurationError("shard_size must be positive")
    indices = list(point_indices)
    return tuple(
        Shard(index=n, points=tuple(indices[start:start + shard_size]))
        for n, start in enumerate(range(0, len(indices), shard_size))
    )


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a farm needs to (re)compute one campaign."""

    configs: tuple[SimConfig, ...]
    warmup: int
    measure: int
    shard_size: int = 4
    name: str = "campaign"

    def __post_init__(self) -> None:
        if not self.configs:
            raise ConfigurationError("a campaign needs at least one point")
        if self.warmup < 0 or self.measure < 1:
            raise ConfigurationError("bad campaign window")
        if self.shard_size < 1:
            raise ConfigurationError("shard_size must be positive")
        if not isinstance(self.configs, tuple):
            object.__setattr__(self, "configs", tuple(self.configs))

    def point_keys(self) -> list[str]:
        """Cache key of every campaign point, in campaign order."""
        return [
            point_key(config, self.warmup, self.measure)
            for config in self.configs
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "warmup": self.warmup,
            "measure": self.measure,
            "shard_size": self.shard_size,
            # Informational only: the cache key embeds its own code
            # digest, so a stale plan simply re-plans everything.
            "code": code_version(),
            "configs": [config_to_dict(c) for c in self.configs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        return cls(
            configs=tuple(
                config_from_dict(c) for c in payload["configs"]
            ),
            warmup=int(payload["warmup"]),
            measure=int(payload["measure"]),
            shard_size=int(payload.get("shard_size", 4)),
            name=str(payload.get("name", "campaign")),
        )

    def save(self, directory: str | Path) -> Path:
        """Write the plan into ``directory`` (created if needed)."""
        path = Path(directory) / PLAN_FILENAME
        write_json_atomic(path, self.to_dict(), indent=1)
        return path

    @classmethod
    def load(cls, directory: str | Path) -> "CampaignSpec":
        path = Path(directory) / PLAN_FILENAME
        try:
            payload = json.loads(path.read_text("utf-8"))
        except OSError as exc:
            raise ConfigurationError(
                f"no campaign plan at {path} ({exc})"
            ) from exc
        except ValueError as exc:
            raise ConfigurationError(
                f"campaign plan {path} is not valid JSON ({exc})"
            ) from exc
        return cls.from_dict(payload)
