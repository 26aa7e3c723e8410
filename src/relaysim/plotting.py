"""Minimal self-contained SVG line plots for sweep results.

One polyline per series, error bars of one standard error, and a legend
keyed by scheme name. No plotting library: the output must render
anywhere and diff cleanly, and the few dozen lines below are all that
is needed.
"""

from __future__ import annotations

import html
import math
from pathlib import Path

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 150, 24, 56

AXIS_LABELS = {
    "relay_count": "number of relays",
    "pnr_db": "PNR [dB]",
    "qnr_db": "QNR [dB]",
    "pnr_equals_qnr_db": "PNR = QNR [dB]",
}
Y_LABEL = "ergodic capacity [bits/channel use]"

SERIES_STYLE = {
    "af": ("#d62728", None),
    "mf": ("#1f77b4", None),
    "mf-rzf": ("#2ca02c", None),
    "upper-bound": ("#555555", "7 4"),
}


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list:
    """Round tick positions on a 1-2-5 ladder covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 10))
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:g}"


def emit_plot(rows: list, path: str | Path, title: str = "") -> None:
    """Write one SVG chart for a sweep result table.

    Series (one polyline each) are discovered from the rows in first-seen
    order; x is the sweep axis, y the mean capacity with error bars of
    one standard error.
    """
    if not rows:
        raise ValueError("cannot plot an empty result table")
    axis = rows[0].axis
    series: dict = {}
    for row in rows:
        series.setdefault(row.scheme, []).append(row)

    xs = sorted({float(r.axis_value) for r in rows})
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(r.capacity_mean_bits + r.capacity_stderr_bits for r in rows)
    y_ticks = _nice_ticks(0.0, y_hi * 1.05)
    y_top = max(y_ticks[-1], y_hi * 1.05)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v: float) -> float:
        if x_hi == x_lo:
            return MARGIN_L + plot_w / 2.0
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return MARGIN_T + plot_h - v / y_top * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="16" font-size="14" '
            f'text-anchor="middle">{html.escape(title, quote=False)}</text>'
        )

    # frame and ticks
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_T}" stroke="black"/>')
    for v in xs:
        x = sx(v)
        parts.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 20}" font-size="12" text-anchor="middle">{_fmt(v)}</text>'
        )
    for v in y_ticks:
        y = sy(v)
        parts.append(f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 9}" y="{y + 4:.2f}" font-size="12" text-anchor="end">{_fmt(v)}</text>'
        )
        if v > 0:
            parts.append(
                f'<line x1="{x0}" y1="{y:.2f}" x2="{x0 + plot_w}" y2="{y:.2f}" '
                f'stroke="#dddddd" stroke-width="0.5"/>'
            )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.2f}" y="{HEIGHT - 14}" font-size="13" '
        f'text-anchor="middle">{AXIS_LABELS.get(axis, axis)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.2f})">{Y_LABEL}</text>'
    )

    # series
    legend_y = MARGIN_T + 12
    for name, points in series.items():
        color, dash = SERIES_STYLE[name]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        pts = sorted(points, key=lambda r: float(r.axis_value))
        coords = " ".join(
            f"{sx(float(r.axis_value)):.2f},{sy(r.capacity_mean_bits):.2f}" for r in pts
        )
        for r in pts:
            if r.capacity_stderr_bits <= 0:
                continue
            x = sx(float(r.axis_value))
            lo = sy(r.capacity_mean_bits - r.capacity_stderr_bits)
            hi = sy(r.capacity_mean_bits + r.capacity_stderr_bits)
            parts.append(
                f'<line class="errbar" x1="{x:.2f}" y1="{lo:.2f}" x2="{x:.2f}" '
                f'y2="{hi:.2f}" stroke="{color}" stroke-width="1"/>'
            )
            parts.append(
                f'<line class="errbar" x1="{x - 3:.2f}" y1="{lo:.2f}" x2="{x + 3:.2f}" '
                f'y2="{lo:.2f}" stroke="{color}" stroke-width="1"/>'
            )
            parts.append(
                f'<line class="errbar" x1="{x - 3:.2f}" y1="{hi:.2f}" x2="{x + 3:.2f}" '
                f'y2="{hi:.2f}" stroke="{color}" stroke-width="1"/>'
            )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash_attr}/>'
        )
        for r in pts:
            parts.append(
                f'<circle cx="{sx(float(r.axis_value)):.2f}" '
                f'cy="{sy(r.capacity_mean_bits):.2f}" r="2.5" fill="{color}"/>'
            )
        lx = MARGIN_L + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 26}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.8"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{legend_y + 4}" font-size="12">{name}</text>'
        )
        legend_y += 20

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
