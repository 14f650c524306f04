"""gzip-transparent text I/O for observability exports.

Every exporter (``--*-out`` flags) and loader (``repro trace`` /
``repro audit`` / ``repro diff`` / ...) routes its file access through
this module: a path ending in ``.gz`` is written gzip-compressed, and
*reads* sniff the gzip magic bytes instead of trusting the name, so a
renamed export still loads.  Writers pass ``mtime=0`` to ``gzip`` —
without it the member header embeds the wall clock and two same-seed
exports stop being byte-identical, which would break every ``cmp``
determinism gate in CI.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Union

__all__ = [
    "export_jsonl",
    "is_gzip_path",
    "jsonl_text",
    "logical_suffix",
    "meta_line",
    "read_text",
    "write_text",
]

_GZIP_MAGIC = b"\x1f\x8b"


def is_gzip_path(path: Union[str, Path]) -> bool:
    """True when ``path`` names a gzip member (ends in ``.gz``)."""
    return str(path).endswith(".gz")


def logical_suffix(path: Union[str, Path]) -> str:
    """The format-bearing suffix with any ``.gz`` stripped.

    ``spans.jsonl.gz -> .jsonl``, ``metrics.json -> .json``.
    """
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return Path(name).suffix


def jsonl_text(records: Iterable[Mapping[str, Any]]) -> str:
    """Deterministic JSONL: one compact, key-sorted object per line."""
    lines = [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def meta_line(meta: Mapping[str, Any]) -> str:
    """The provenance manifest as one JSONL record (``"type": "meta"``).

    Every ``--*-out`` exporter embeds this as its first line (JSONL
    kinds) or under a top-level ``"meta"`` key (JSON kinds) so an export
    carries the run parameters that produced it — seed, directory
    protocol, worker count, config hash, repro version.  The
    manifest must stay wall-clock- and machine-free: same-seed exports
    are compared byte for byte in CI.  ``repro diff`` ignores ``meta.*``
    counters by default and compares them under ``--only meta``.
    """
    record: dict = {"type": "meta"}
    record.update(meta)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def read_text(path: Union[str, Path]) -> str:
    """File contents as text, decompressing when the bytes are gzip."""
    data = Path(path).read_bytes()
    if data[:2] == _GZIP_MAGIC:
        data = gzip.decompress(data)
    return data.decode("utf-8")


def write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text``, gzip-compressed when the path ends in ``.gz``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if is_gzip_path(path):
        path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    else:
        path.write_text(text)
    return path


def export_jsonl(path: Union[str, Path], text: str,
                 meta: Optional[Mapping[str, Any]] = None) -> Path:
    """Write a JSONL export, led by its provenance manifest when given."""
    if meta:
        text = meta_line(meta) + "\n" + text
    return write_text(path, text)
