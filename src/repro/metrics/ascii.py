"""Tiny ASCII charts for example scripts and benchmark summaries.

The pretty output uses Unicode block glyphs, but charts must never
crash a report just because stdout is ASCII-only (``PYTHONIOENCODING=
ascii``, dumb CI logs, ``LANG=C`` pipes).  Every renderer probes the
active stdout encoding per call and falls back to pure-ASCII glyphs
when the blocks are unencodable.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["bar_chart", "block_char", "flame_chart", "sparkline"]

#: Eighth-block glyphs used by :func:`sparkline`, lowest to highest.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
#: ASCII stand-ins (same length, same low-to-high ordering).
ASCII_SPARK_BLOCKS = "_.-:=+*#"


def _encodable(text: str) -> bool:
    """Can the current stdout encoding represent ``text``?"""
    encoding = getattr(sys.stdout, "encoding", None)
    if not encoding:
        return True
    try:
        text.encode(encoding)
    except (UnicodeEncodeError, LookupError):
        return False
    return True


def _spark_glyphs() -> str:
    return SPARK_BLOCKS if _encodable(SPARK_BLOCKS) else ASCII_SPARK_BLOCKS


def block_char() -> str:
    """Bar-fill glyph honouring the stdout encoding (``█`` or ``#``)."""
    return "█" if _encodable("█") else "#"


def _ellipsis() -> str:
    return "…" if _encodable("…") else "..."


def sparkline(
    values: Sequence[float],
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """One-line block-glyph chart: ``[0, 1, 3, 7]`` -> ``▁▂▄█``.

    ``lo``/``hi`` pin the scale (useful when several sparklines must
    share one); by default the data's own extent is used.  A flat series
    renders as all-minimum glyphs.
    """
    if not values:
        return ""
    blocks = _spark_glyphs()
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    extent = hi - lo
    if extent <= 0:
        return blocks[0] * len(values)
    top = len(blocks) - 1
    out = []
    for v in values:
        frac = (v - lo) / extent
        out.append(blocks[max(0, min(top, int(frac * top + 0.5)))])
    return "".join(out)


def bar_chart(
    title: str,
    items: Sequence[Tuple[str, float]],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bars scaled to the maximum value::

        == title ==
        label-a | ######################  1.23
        label-b | ###########             0.61
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    lines = [f"== {title} =="]
    if not items:
        return lines[0]
    label_w = max(len(label) for label, _ in items)
    peak = max(value for _, value in items)
    for label, value in items:
        n = int(round(width * value / peak)) if peak > 0 else 0
        lines.append(
            f"{label.ljust(label_w)} | {'#' * n:<{width}} {value:.4g}{unit}"
        )
    return "\n".join(lines)


def flame_chart(
    folded: Dict[str, float],
    width: int = 60,
    min_share: float = 0.01,
) -> str:
    """In-terminal flame graph from folded stacks (see ``obs.flame``).

    Each frame renders as an indented row whose bar length is its
    *subtree* share of the grand total (self + descendants), so parents
    are always at least as wide as their children::

        == Flame (total 1.234s) ==
        miss                 ████████████████████████  62.1%  0.766s
          request            ████████████████████████  62.1%  0.766s
            execute          ████████████████          41.5%  0.512s

    Frames below ``min_share`` of the total are pruned (with an ellipsis
    row noting how many).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    # Build the frame tree: node = [self_time, {child_name: node}].
    root: List = [0.0, {}]
    for stack, seconds in folded.items():
        node = root
        for frame in stack.split(";"):
            node = node[1].setdefault(frame, [0.0, {}])
        node[0] += seconds

    def subtree_total(node: List) -> float:
        return node[0] + sum(subtree_total(c) for c in node[1].values())

    grand = subtree_total(root)
    if grand <= 0:
        return "(no samples)"
    lines = [f"== Flame (total {grand:.4g}s) =="]
    pruned = 0

    def depth_of(node: List, depth: int) -> int:
        kids = node[1].values()
        return max([depth] + [depth_of(c, depth + 1) for c in kids])

    label_w = 0
    rows: List[Tuple[str, float]] = []

    def walk(node: List, depth: int) -> None:
        nonlocal pruned
        ordered = sorted(
            node[1].items(), key=lambda kv: (-subtree_total(kv[1]), kv[0])
        )
        for name, child in ordered:
            total = subtree_total(child)
            if total / grand < min_share:
                pruned += 1
                continue
            rows.append(("  " * depth + name, total))
            walk(child, depth + 1)

    walk(root, 0)
    block = block_char()
    label_w = max((len(label) for label, _ in rows), default=1)
    for label, total in rows:
        share = total / grand
        bar = block * max(1, int(round(share * width)))
        lines.append(
            f"{label.ljust(label_w)}  {bar.ljust(width)}  "
            f"{100.0 * share:5.1f}%  {total:.4g}s"
        )
    if pruned:
        lines.append(
            f"{_ellipsis()} {pruned} frame(s) under "
            f"{100.0 * min_share:g}% pruned"
        )
    return "\n".join(lines)
