"""Text plots of the paper's figures.

The paper presents bar charts (Figures 2, 7, 9) and a line/scatter mix
(Figure 8).  These helpers render the same data as Unicode bar charts so
``python -m repro`` output and the bench logs can be *read* like the
figures, not just as tables.
"""
from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

FULL = "█"
PARTIAL = (" ", "▏", "▎", "▍", "▌", "▋", "▊", "▉")


def bar(value: float, maximum: float, width: int = 40) -> str:
    """One horizontal bar scaled to *maximum*."""
    if maximum <= 0:
        return ""
    fraction = max(0.0, min(value / maximum, 1.0))
    cells = fraction * width
    whole = int(cells)
    remainder = int((cells - whole) * 8)
    out = FULL * whole
    if whole < width and remainder:
        out += PARTIAL[remainder]
    return out


def bar_chart(
    rows: Sequence[Tuple[str, float]],
    width: int = 40,
    fmt: str = "{:.2f}",
    maximum: Optional[float] = None,
    title: str = "",
) -> str:
    """Labelled horizontal bar chart.

    >>> print(bar_chart([("a", 1.0), ("b", 2.0)], width=4))  # doctest: +SKIP
    a  ██    1.00
    b  ████  2.00
    """
    if not rows:
        return title
    label_w = max(len(label) for label, _ in rows)
    peak = maximum if maximum is not None else max(v for _, v in rows) or 1.0
    lines = [title] if title else []
    for label, value in rows:
        lines.append(
            f"{label:<{label_w}}  {bar(value, peak, width):<{width}}  "
            f"{fmt.format(value)}"
        )
    return "\n".join(lines)


def stacked_chart(
    rows: Sequence[Tuple[str, Mapping[str, float]]],
    categories: Sequence[str],
    glyphs: str = "█▓▒░·",
    width: int = 50,
    title: str = "",
) -> str:
    """Figure-9-style 100%-stacked bars (outcome shares per scheme)."""
    lines = [title] if title else []
    label_w = max((len(label) for label, _ in rows), default=1)
    for label, shares in rows:
        cells: List[str] = []
        for k, cat in enumerate(categories):
            share = shares.get(cat, 0.0)
            cells.append(glyphs[k % len(glyphs)] * int(round(share * width)))
        barstr = "".join(cells)[:width].ljust(width)
        detail = " ".join(f"{cat}={shares.get(cat, 0.0):.0%}" for cat in categories
                          if shares.get(cat, 0.0) >= 0.005)
        lines.append(f"{label:<{label_w}}  {barstr}  {detail}")
    legend = "  ".join(f"{glyphs[k % len(glyphs)]}={cat}"
                       for k, cat in enumerate(categories))
    lines.append(f"{'':<{label_w}}  [{legend}]")
    return "\n".join(lines)
