"""Swala's startup configuration file (paper §4.1).

"Swala uses a configuration file, loaded at startup, to provide the
system administrator with a flexible way to control which requests are
cacheable" — and §4.2 adds per-CGI TTLs ("allowing the system
administrator to set a Time To Live field for different CGIs").

INI format::

    [cache]
    mode = cooperative          ; none | standalone | cooperative
    capacity = 2000
    policy = lru
    min_exec_time = 0.5
    default_ttl = inf
    purge_interval = 5
    threads = 32
    locking = table             ; directory | table | entry
    coalesce_duplicates = no
    max_entry_size = inf
    directory_protocol = broadcast  ; broadcast | digest | bloom
    digest_interval = 5         ; digest refresh period, seconds
    indicator_fp_rate = 0.01    ; Bloom probe-sweep false-positive bound
    indicator_batch = 32        ; deltas per Bloom flush
    indicator_max_delay = 1     ; max delta queueing delay, seconds

    [cacheable]
    ; URL prefixes that MAY be cached (everything else is not).
    ; Omit the section to allow all application-cacheable CGI.
    allow = /cgi-bin/browse /cgi-bin/maps

    [ttl]
    ; per-prefix TTL overrides, seconds (first match wins)
    /cgi-bin/news = 30
    /cgi-bin/maps = inf
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..workload import Request
from .config import CacheMode, LockingGranularity, SwalaConfig

__all__ = ["load_config", "parse_config", "TtlRules", "make_prefix_rule"]


class TtlRules:
    """Ordered per-URL-prefix TTL overrides; first match wins."""

    def __init__(self, rules: Sequence[Tuple[str, float]] = (),
                 default: float = math.inf):
        for prefix, ttl in rules:
            if ttl <= 0:
                raise ValueError(f"TTL for {prefix!r} must be positive")
        self.rules: List[Tuple[str, float]] = list(rules)
        self.default = default

    def ttl_for(self, url: str) -> float:
        for prefix, ttl in self.rules:
            if url.startswith(prefix):
                return ttl
        return self.default

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"<TtlRules {len(self.rules)} rules default={self.default}>"


def make_prefix_rule(prefixes: Sequence[str]):
    """A cacheability rule allowing only the given URL prefixes."""
    prefixes = tuple(prefixes)

    def rule(request: Request) -> bool:
        return (
            request.is_cgi
            and request.cacheable
            and any(request.url.startswith(p) for p in prefixes)
        )

    return rule


def _parse_float(value: str) -> float:
    value = value.strip().lower()
    if value in ("inf", "infinite", "none"):
        return math.inf
    return float(value)


def parse_config(text: str) -> SwalaConfig:
    """Parse INI text into a :class:`SwalaConfig`."""
    parser = configparser.ConfigParser(delimiters=("=",))
    parser.optionxform = str  # preserve URL-prefix case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"not a Swala config file: {exc}") from None

    kw: dict = {}
    if parser.has_section("cache"):
        section = parser["cache"]
        if "mode" in section:
            kw["mode"] = CacheMode(section["mode"].strip().lower())
        if "capacity" in section:
            kw["cache_capacity"] = int(section["capacity"])
        if "policy" in section:
            kw["policy"] = section["policy"].strip().lower()
        if "min_exec_time" in section:
            kw["min_exec_time"] = _parse_float(section["min_exec_time"])
        if "default_ttl" in section:
            kw["default_ttl"] = _parse_float(section["default_ttl"])
        if "purge_interval" in section:
            kw["purge_interval"] = _parse_float(section["purge_interval"])
        if "threads" in section:
            kw["n_threads"] = int(section["threads"])
        if "locking" in section:
            kw["locking"] = LockingGranularity(section["locking"].strip().lower())
        if "coalesce_duplicates" in section:
            kw["coalesce_duplicates"] = section.getboolean("coalesce_duplicates")
        if "max_entry_size" in section:
            kw["max_entry_size"] = _parse_float(section["max_entry_size"])
        if "directory_protocol" in section:
            kw["directory_protocol"] = section["directory_protocol"].strip().lower()
        if "digest_interval" in section:
            kw["digest_interval"] = _parse_float(section["digest_interval"])
        if "indicator_fp_rate" in section:
            kw["indicator_fp_rate"] = _parse_float(section["indicator_fp_rate"])
        if "indicator_batch" in section:
            kw["indicator_batch"] = int(section["indicator_batch"])
        if "indicator_max_delay" in section:
            kw["indicator_max_delay"] = _parse_float(section["indicator_max_delay"])

    if parser.has_section("cacheable") and parser.has_option("cacheable", "allow"):
        prefixes = parser.get("cacheable", "allow").split()
        kw["cacheable_rule"] = make_prefix_rule(prefixes)

    config = SwalaConfig(**kw)
    if parser.has_section("ttl"):
        rules = [
            (prefix, _parse_float(value))
            for prefix, value in parser.items("ttl")
        ]
        config.ttl_rules = TtlRules(rules, default=config.default_ttl)
    return config


def load_config(path: Union[str, Path]) -> SwalaConfig:
    """Load a Swala configuration file from disk."""
    return parse_config(Path(path).read_text())
