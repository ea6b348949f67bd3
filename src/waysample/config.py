"""Pipeline configuration: a JSON config file plus per-flag overrides
(flags win). Defaults follow the published pipeline constants: C=1, a
900,000-domain tail threshold, 90% tail cut, a 1000-record rehydration
cache, and a 20-URL per-year reintegration floor.
"""

from __future__ import annotations

import json
from collections import namedtuple

# each key and its default; a key takes a value of its default's kind, and no
# key takes a boolean
_DEFAULTS = {
    "target": 1_000_000,
    "c": 1,
    "tail_threshold": 900_000,
    "tail_keep_fraction": 0.10,
    "cache_capacity": 1000,
    "per_year_min": 20,
    "seed": 0,
    "endpoint": None,
    "politeness_limit": 4,
    "retry_cap": 5,
    "backoff_base": 1.0,
    "request_delay": 0.0,
    "storage_dir": None,
}
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
          type(None): ((str, type(None)), "a string or null")}


class PipelineConfig(namedtuple("PipelineConfig", _DEFAULTS, defaults=_DEFAULTS.values())):
    """The config keys, as an immutable tuple that the constructor validates."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for (name, default), value in zip(_DEFAULTS.items(), self):
            kinds, rule = _KINDS[type(default)]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"config key {name} must be {rule}, got {value!r}")
        for name, ok, rule in (("target", self.target >= 1, ">= 1"),
                               ("c", self.c >= 1, ">= 1"),
                               ("tail_keep_fraction", 0 < self.tail_keep_fraction <= 1, "in (0, 1]"),
                               ("cache_capacity", self.cache_capacity >= 1, ">= 1"),
                               ("per_year_min", self.per_year_min >= 1, ">= 1"),
                               ("backoff_base", self.backoff_base >= 0, ">= 0"),
                               ("request_delay", self.request_delay >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"config key {name} must be {rule}, got {getattr(self, name)!r}")
        return self

    @classmethod
    def load(cls, path: str | None = None, overrides: dict | None = None) -> "PipelineConfig":
        values: dict = {}
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError(f"a config file holds a JSON object of config keys, "
                                 f"got {data!r:.80}")
            unknown = set(data) - set(cls._fields)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            values.update(data)
        for key, value in (overrides or {}).items():
            if value is not None:
                values[key] = value
        return cls(**values)

    def to_dict(self) -> dict:
        return self._asdict()
