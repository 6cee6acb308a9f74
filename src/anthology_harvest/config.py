"""Settings file loading and layered overrides.

The settings file is TOML, read by ``tomllib``; it may hold only the
sections and keys of ``_KEY_TYPES``, each key checked for its type.  CLI
flags override file values, and the ``AAH_DB`` environment variable
overrides the store location.
"""
from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from .store import StoreConfig

DEFAULT_CONFIG_PATH = Path("anthology.toml")
ENV_DB = "AAH_DB"

# The known keys of each section, with their TOML types.
_KEY_TYPES = {
    "store": {"database_name": str, "location": str},
    "crawl": {"venues": list, "year_start": int, "year_end": int, "workers": int,
              "max_attempts": int, "base_backoff_ms": int, "timeout_ms": int,
              "min_interval_ms": int, "source": str},
}
_TYPE_NAMES = {str: "a string", int: "an integer", list: "an array of strings"}


class ConfigError(ValueError):
    pass


def _section(data: dict, name: str) -> dict:
    """The ``[name]`` table of ``data``, each key checked to be known and of
    its type."""
    table = data.get(name, {})
    if not isinstance(table, dict):
        raise ConfigError(f"{name} must be a table")
    for key, value in table.items():
        if key not in _KEY_TYPES[name]:
            raise ConfigError(f"unknown setting {name}.{key}")
        kind = _KEY_TYPES[name][key]
        # bool is an int subclass, but `workers = true` is not a count.
        valid = (isinstance(value, kind) and not isinstance(value, bool)
                 and (kind is not list or all(isinstance(item, str) for item in value)))
        if not valid:
            raise ConfigError(f"{name}.{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return dict(table)


@dataclass(frozen=True)
class CrawlDefaults:
    venues: tuple[str, ...] = ()
    year_start: int = 1950
    year_end: int = 2100
    workers: int = 8
    max_attempts: int = 3
    base_backoff_ms: int = 500
    timeout_ms: int = 15000
    min_interval_ms: int = 250
    source: str = "live"

    def policy(self) -> FetchPolicy:
        from .fetcher import FetchPolicy

        return FetchPolicy(
            max_attempts=self.max_attempts,
            base_backoff_ms=self.base_backoff_ms,
            timeout_ms=self.timeout_ms,
            min_interval_ms=self.min_interval_ms,
        )


@dataclass(frozen=True)
class ToolConfig:
    store: StoreConfig = field(default_factory=StoreConfig)
    crawl: CrawlDefaults = field(default_factory=CrawlDefaults)


def load_config(path: Path | None = None, env: dict[str, str] | None = None
                ) -> ToolConfig:
    """Read the settings file (missing file means defaults) and apply the
    environment override for the store location."""
    env = os.environ if env is None else env
    target = path or DEFAULT_CONFIG_PATH
    data: dict = {}
    if Path(target).is_file():
        try:
            data = tomllib.loads(Path(target).read_text(encoding="utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{target}: {exc}") from None
    elif path is not None:
        raise ConfigError(f"config file {path} not found")
    for name, table in data.items():
        if name not in _KEY_TYPES:
            raise ConfigError(f"unknown section [{name}]" if isinstance(table, dict)
                              else f"unknown setting {name}")

    store = _section(data, "store")
    if env.get(ENV_DB):
        store["location"] = env[ENV_DB]
    crawl = _section(data, "crawl")
    crawl["venues"] = tuple(crawl.get("venues", ()))
    try:
        store_cfg = StoreConfig(**store)
    except ValueError as exc:
        raise ConfigError(f"store.{exc}") from None
    return ToolConfig(store=store_cfg, crawl=CrawlDefaults(**crawl))
