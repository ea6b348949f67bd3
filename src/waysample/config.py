"""Pipeline configuration: a JSON config file plus per-flag overrides
(flags win). Defaults follow the published pipeline constants: C=1, a
900,000-domain tail threshold, 90% tail cut, a 1000-record rehydration
cache, and a 20-URL per-year reintegration floor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields


# a key takes a value of its default's kind; no key takes a boolean
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
          type(None): ((str, type(None)), "a string or null")}


@dataclass
class PipelineConfig:
    target: int = 1_000_000
    c: int = 1
    tail_threshold: int = 900_000
    tail_keep_fraction: float = 0.10
    cache_capacity: int = 1000
    per_year_min: int = 20
    seed: int = 0
    endpoint: str | None = None
    politeness_limit: int = 4
    retry_cap: int = 5
    backoff_base: float = 1.0
    request_delay: float = 0.0
    storage_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, rule = _KINDS[type(f.default)]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"config key {f.name} must be {rule}, got {value!r}")
        for name, ok, rule in (("c", self.c >= 1, ">= 1"),
                               ("tail_keep_fraction", 0 < self.tail_keep_fraction <= 1, "in (0, 1]"),
                               ("cache_capacity", self.cache_capacity >= 1, ">= 1"),
                               ("per_year_min", self.per_year_min >= 1, ">= 1"),
                               ("backoff_base", self.backoff_base >= 0, ">= 0"),
                               ("request_delay", self.request_delay >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"config key {name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def load(cls, path: str | None = None, overrides: dict | None = None) -> "PipelineConfig":
        values: dict = {}
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            known = {f.name for f in fields(cls)}
            unknown = set(data) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            values.update(data)
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = value
        return cls(**values)

    def to_dict(self) -> dict:
        return asdict(self)
