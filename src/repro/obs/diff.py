"""Run-comparison: per-counter deltas between two observability exports.

``repro diff`` loads two outputs of the same kind — a profiler JSON, a
metrics-registry JSON, a consistency-audit JSONL, a time-series JSONL,
or a span-trace JSONL — flattens each into ``{counter: number}`` and
reports every counter whose relative change exceeds a threshold.  Its
primary job is the CI regression gate: a committed baseline profile is
diffed against a freshly generated one, so any change that silently
shifts simulated behaviour (an extra event, a different queue depth, a
lost determinism guarantee) fails the build with a named counter instead
of a pile of mismatched bytes.

Flattening is format-aware for the JSONL kinds (which need aggregation
to be comparable) and generic for JSON (every numeric leaf becomes a
dotted-path counter), so new exporters are diffable without touching
this module.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .ioutil import logical_suffix, read_text

__all__ = [
    "load_counters",
    "flatten_json",
    "diff_counters",
    "CounterDelta",
    "render_diff",
]


def flatten_json(data: Any, prefix: str = "") -> Dict[str, float]:
    """Every numeric leaf of a JSON document as ``dotted.path -> value``.

    Lists index as ``path[i]``; booleans and strings are skipped (they
    either never drift or are better eyeballed than thresholded).
    """
    out: Dict[str, float] = {}
    if isinstance(data, dict):
        for key in data:
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_json(data[key], sub))
    elif isinstance(data, list):
        for i, item in enumerate(data):
            out.update(flatten_json(item, f"{prefix}[{i}]"))
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        out[prefix] = float(data)
    return out


def _flatten_meta(meta: Dict[str, Any]) -> Dict[str, float]:
    """Provenance manifest fields as ``meta.*`` counters.

    Numbers map directly; strings become presence counters
    (``meta.key[value] = 1``) so a changed protocol or backend shows
    up as an added+removed pair instead of being silently skipped.
    ``diff_counters`` ignores ``meta.*`` unless ``--only meta`` asks.
    """
    out: Dict[str, float] = {}
    for key, value in meta.items():
        if key == "type" or value is None:
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"meta.{key}"] = float(value)
        else:
            out[f"meta.{key}[{value}]"] = 1.0
    return out


def _flatten_profile(data: Dict[str, Any]) -> Dict[str, float]:
    """Profile JSON keyed by resource name, not list index, so reordered
    or added resources shift nothing else."""
    out: Dict[str, float] = {}
    for entry in data.get("resources", []):
        prefix = f"resource.{entry.get('run', 0)}.{entry.get('name', '?')}"
        for key, value in entry.items():
            if key in ("run", "name"):
                continue
            out.update(flatten_json(value, f"{prefix}.{key}"))
    for lock in data.get("locks", []):
        prefix = f"lock.{lock.get('run', 0)}.{lock.get('node', '?')}.{lock.get('name', '?')}"
        for key, value in lock.items():
            if key in ("run", "node", "name"):
                continue
            out.update(flatten_json(value, f"{prefix}.{key}"))
    out["dropped"] = float(data.get("dropped", 0))
    return out


def _flatten_jsonl(path: Path) -> Dict[str, float]:
    """Aggregate a JSONL export into comparable counters.

    * audit records (have ``class``) → per-class counts + wasted totals;
    * time-series samples (have ``series``) → final value per series;
    * streaming windows (``type == "window"``) → per-cell request and
      saturated-window totals;
    * span/event traces (have ``type``) → span count + per-category
      duration sums.
    """
    counts: Dict[str, float] = {}
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "meta":  # provenance manifest
            counts.update(_flatten_meta(record))
        elif "class" in record:  # audit
            counts[f"class.{record['class']}"] = (
                counts.get(f"class.{record['class']}", 0.0) + 1.0
            )
            counts["audits"] = counts.get("audits", 0.0) + 1.0
            counts["wasted_seconds"] = (
                counts.get("wasted_seconds", 0.0)
                + float(record.get("wasted", 0.0))
            )
        elif "series" in record:  # time series: keep the last sample
            for name, value in record["series"].items():
                counts[f"series.{name}"] = float(value)
            counts["samples"] = counts.get("samples", 0.0) + 1.0
        elif record.get("type") == "window":  # streaming telemetry
            cell = record.get("cell")
            prefix = "window" if cell is None else f"window.cell{cell}"
            for field in ("arrivals", "completions", "errors", "hits",
                          "misses"):
                counts[f"{prefix}.{field}"] = (
                    counts.get(f"{prefix}.{field}", 0.0)
                    + float(record.get(field, 0))
                )
            counts[f"{prefix}.windows"] = (
                counts.get(f"{prefix}.windows", 0.0) + 1.0
            )
            if record.get("saturated"):
                counts[f"{prefix}.saturated_windows"] = (
                    counts.get(f"{prefix}.saturated_windows", 0.0) + 1.0
                )
        elif record.get("type") == "span":
            counts["spans"] = counts.get("spans", 0.0) + 1.0
            end, start = record.get("end"), record.get("start")
            category = record.get("category", "other")
            if end is not None and start is not None:
                counts[f"span_seconds.{category}"] = (
                    counts.get(f"span_seconds.{category}", 0.0)
                    + (float(end) - float(start))
                )
        else:
            counts["other_records"] = counts.get("other_records", 0.0) + 1.0
    return counts


def load_counters(path: Union[str, Path]) -> Dict[str, float]:
    """Flatten any supported observability export into counters."""
    path = Path(path)
    if logical_suffix(path) == ".jsonl":
        return _flatten_jsonl(path)
    data = json.loads(read_text(path))
    out: Dict[str, float] = {}
    if isinstance(data, dict):
        meta = data.pop("meta", None)
        if isinstance(meta, dict):
            out.update(_flatten_meta(meta))
    if isinstance(data, dict) and "resources" in data and "version" in data:
        out.update(_flatten_profile(data))
    else:
        out.update(flatten_json(data))
    return out


class CounterDelta:
    """One drifted counter: baseline vs current with relative change."""

    __slots__ = ("name", "base", "current", "delta", "relative", "status")

    def __init__(self, name: str, base: Optional[float],
                 current: Optional[float]):
        self.name = name
        self.base = base
        self.current = current
        if base is None:
            self.status = "added"
            self.delta = current or 0.0
            self.relative = float("inf")
        elif current is None:
            self.status = "removed"
            self.delta = -base
            self.relative = float("inf")
        else:
            self.status = "changed"
            self.delta = current - base
            if base == 0.0:
                self.relative = float("inf") if self.delta else 0.0
            else:
                self.relative = abs(self.delta) / abs(base)

    def __repr__(self) -> str:
        return f"<CounterDelta {self.name} {self.base} -> {self.current}>"


def diff_counters(
    base: Dict[str, float],
    current: Dict[str, float],
    threshold: float = 0.0,
    abs_threshold: float = 1e-9,
    ignore: Sequence[str] = (),
    only: Sequence[str] = (),
) -> List[CounterDelta]:
    """Counters that drifted beyond the thresholds, sorted by |relative|.

    A counter drifts when ``|delta| > abs_threshold`` **and** its
    relative change exceeds ``threshold`` (missing/added counters always
    drift).  ``ignore``/``only`` filter by substring match on the name.
    Provenance manifests (``meta.*``) are ignored unless ``only`` names
    them: a ``--jobs`` run legitimately carries a different ``jobs``
    than the serial run it must otherwise match counter for counter.
    """
    if not only:
        ignore = tuple(ignore) + ("meta.",)
    names = sorted(set(base) | set(current))
    out: List[CounterDelta] = []
    for name in names:
        if only and not any(want in name for want in only):
            continue
        if any(skip in name for skip in ignore):
            continue
        delta = CounterDelta(name, base.get(name), current.get(name))
        if delta.status == "changed":
            if abs(delta.delta) <= abs_threshold:
                continue
            if delta.relative <= threshold:
                continue
        out.append(delta)
    out.sort(key=lambda d: (-d.relative, d.name))
    return out


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_diff(
    deltas: Sequence[CounterDelta],
    base_label: str = "baseline",
    current_label: str = "current",
    max_rows: int = 50,
) -> str:
    """Human-readable drift report (empty diff → one-line all-clear)."""
    if not deltas:
        return f"no drift: {current_label} matches {base_label}"
    lines = [
        f"{len(deltas)} counter(s) drifted ({base_label} -> {current_label}):"
    ]
    name_w = max(len(d.name) for d in deltas[:max_rows])
    for delta in deltas[:max_rows]:
        rel = (
            "new" if delta.status == "added"
            else "gone" if delta.status == "removed"
            else f"{100.0 * delta.relative:.2f}%"
        )
        lines.append(
            f"  {delta.name.ljust(name_w)}  {_fmt(delta.base)} -> "
            f"{_fmt(delta.current)}  ({rel})"
        )
    if len(deltas) > max_rows:
        lines.append(f"  ... and {len(deltas) - max_rows} more")
    return "\n".join(lines)
