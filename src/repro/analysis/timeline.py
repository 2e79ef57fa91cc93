"""ASCII phase timelines.

A compact visual rendering of a classified phase-ID stream: one
character per interval (dots for the transition phase, letters/digits
for phases, cycling through a glyph alphabet), wrapped with interval
offsets, plus a legend with per-phase occupancy. Useful in terminals,
logs and doctests; the quickstart example prints one.

Example output::

    0000 AAAAAAAAAA..BBBBBBBB..AAAAAAAAAA
    0033 CCCC..BBBBBBBB
    legend: A=phase 1 (20, 45%)  B=phase 2 (16, 36%)  ...
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import TRANSITION_PHASE_ID
from repro.errors import TraceError

#: Glyphs assigned to phases in order of first appearance.
_GLYPHS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
#: Transition-phase glyph.
_TRANSITION_GLYPH = "."
#: Glyph used once the alphabet is exhausted.
_OVERFLOW_GLYPH = "?"


def phase_glyphs(phase_ids: Sequence[int]) -> Dict[int, str]:
    """Assign a glyph to each phase, in order of first appearance.

    The transition phase always maps to ``"."``; phases beyond the
    glyph alphabet share ``"?"``.
    """
    ids = np.asarray(phase_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise TraceError("phase_ids must be a non-empty 1-D sequence")
    mapping: Dict[int, str] = {TRANSITION_PHASE_ID: _TRANSITION_GLYPH}
    next_glyph = 0
    for phase in ids.tolist():
        if phase in mapping:
            continue
        if next_glyph < len(_GLYPHS):
            mapping[phase] = _GLYPHS[next_glyph]
            next_glyph += 1
        else:
            mapping[phase] = _OVERFLOW_GLYPH
    return mapping


def render_timeline(
    phase_ids: Sequence[int],
    width: int = 64,
    legend: bool = True,
    max_legend_entries: int = 12,
) -> str:
    """Render a classified stream as a wrapped ASCII timeline."""
    if width < 8:
        raise TraceError(f"width must be >= 8, got {width}")
    ids = np.asarray(phase_ids, dtype=np.int64)
    mapping = phase_glyphs(ids)
    glyph_stream = "".join(mapping[int(phase)] for phase in ids)

    offset_digits = max(len(str(ids.size)), 4)
    lines: List[str] = []
    for start in range(0, len(glyph_stream), width):
        chunk = glyph_stream[start:start + width]
        lines.append(f"{start:0{offset_digits}d} {chunk}")

    if legend:
        counts: Dict[int, int] = {}
        for phase in ids.tolist():
            counts[phase] = counts.get(phase, 0) + 1
        entries = []
        shown = 0
        for phase, count in sorted(
            counts.items(), key=lambda kv: kv[1], reverse=True
        ):
            if shown >= max_legend_entries:
                entries.append("...")
                break
            label = (
                "transition" if phase == TRANSITION_PHASE_ID
                else f"phase {phase}"
            )
            entries.append(
                f"{mapping[phase]}={label} "
                f"({count}, {count / ids.size:.0%})"
            )
            shown += 1
        lines.append("legend: " + "  ".join(entries))
    return "\n".join(lines)
