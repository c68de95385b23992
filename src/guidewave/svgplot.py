"""Deterministic SVG line figures for series CSVs: no plotting runtime.

Log-log and semilog axes with decade ticks, one polyline per series, an
optional least-squares fit line for the first series a dashed
predicted-slope guide.  All floats are formatted with fixed precision so
identical inputs yield identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 36, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class _Axes:
    def __init__(self, xlim, ylim, xlog, ylog):
        self.xlog, self.ylog = xlog, ylog
        self.x0, self.x1 = (math.log10(xlim[0]), math.log10(xlim[1])) if xlog else xlim
        self.y0, self.y1 = (math.log10(ylim[0]), math.log10(ylim[1])) if ylog else ylim
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0

    def px(self, x):
        t = (math.log10(x) if self.xlog else x)
        return MARGIN_L + (t - self.x0) / (self.x1 - self.x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        t = (math.log10(y) if self.ylog else y)
        return HEIGHT - MARGIN_B - (t - self.y0) / (self.y1 - self.y0) * (HEIGHT - MARGIN_T - MARGIN_B)


def _decade_ticks(lo, hi):
    return [10.0 ** e for e in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)
            if lo * 0.999 <= 10.0 ** e <= hi * 1.001]


def render_plot(x: np.ndarray, series: dict[str, np.ndarray], mode: str = "loglog",
                title: str = "", fit_series: str | None = None,
                guide_slope: float | None = None, comments: list[str] | None = None) -> str:
    """Render one figure.  mode: loglog | semilogy | linear."""
    if mode not in ("loglog", "semilogy", "linear"):
        raise ValueError(f"unknown plot mode {mode!r}")
    xlog = mode == "loglog"
    ylog = mode in ("loglog", "semilogy")

    cleaned = {}
    for name, y in series.items():
        y = np.asarray(y, dtype=float)
        mask = np.isfinite(y) & np.isfinite(x)
        if ylog:
            mask &= y > 0
        if xlog:
            mask &= x > 0
        if mask.sum() >= 2:
            cleaned[name] = (np.asarray(x, dtype=float)[mask], y[mask])
    if not cleaned:
        raise ValueError("nothing to plot: no series with two or more finite samples")

    xmin = min(v[0].min() for v in cleaned.values())
    xmax = max(v[0].max() for v in cleaned.values())
    ymin = min(v[1].min() for v in cleaned.values())
    ymax = max(v[1].max() for v in cleaned.values())
    ax = _Axes((xmin, xmax), (ymin, ymax), xlog, ylog)

    parts = ['<?xml version="1.0" encoding="UTF-8"?>']
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
                 f'viewBox="0 0 {WIDTH} {HEIGHT}">')
    for c in comments or []:
        parts.append(f"<!-- {c} -->")
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
                 f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>')
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" '
                     f'font-family="monospace" font-size="13">{title}</text>')

    xticks = _decade_ticks(xmin, xmax) if xlog else np.linspace(xmin, xmax, 5)
    yticks = _decade_ticks(ymin, ymax) if ylog else np.linspace(ymin, ymax, 5)
    for tx in xticks:
        p = ax.px(tx)
        parts.append(f'<line x1="{_fmt(p)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(p)}" '
                     f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
        label = f"1e{round(math.log10(tx))}" if xlog else f"{tx:.3g}"
        parts.append(f'<text x="{_fmt(p)}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
                     f'font-family="monospace" font-size="11">{label}</text>')
    for ty in yticks:
        p = ax.py(ty)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(p)}" x2="{MARGIN_L}" '
                     f'y2="{_fmt(p)}" stroke="black"/>')
        label = f"1e{round(math.log10(ty))}" if ylog else f"{ty:.3g}"
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(p + 4)}" text-anchor="end" '
                     f'font-family="monospace" font-size="11">{label}</text>')

    legend_y = MARGIN_T + 14
    for idx, (name, (xs, ys)) in enumerate(cleaned.items()):
        color = COLORS[idx % len(COLORS)]
        pts = " ".join(f"{_fmt(ax.px(a))},{_fmt(ax.py(b))}" for a, b in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{MARGIN_L + 8}" y="{legend_y}" font-family="monospace" '
                     f'font-size="11" fill="{color}">{name}</text>')
        legend_y += 14

    if fit_series and fit_series in cleaned:
        xs, ys = cleaned[fit_series]
        if xlog and ylog:
            slope, icept = np.polyfit(np.log10(xs), np.log10(ys), 1)
            yfit = lambda xv: 10.0 ** (icept + slope * math.log10(xv))
            label = f"fit slope {slope:.3f}"
        elif ylog:
            slope, icept = np.polyfit(xs, np.log10(ys), 1)
            yfit = lambda xv: 10.0 ** (icept + slope * xv)
            label = f"fit rate {slope * math.log(10):.4f}"
        else:
            slope, icept = np.polyfit(xs, ys, 1)
            yfit = lambda xv: icept + slope * xv
            label = f"fit slope {slope:.3f}"
        pts = " ".join(f"{_fmt(ax.px(a))},{_fmt(ax.py(yfit(a)))}" for a in (xs[0], xs[-1]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="black" '
                     f'stroke-width="1" stroke-dasharray="6,3"/>')
        parts.append(f'<text x="{MARGIN_L + 8}" y="{legend_y}" font-family="monospace" '
                     f'font-size="11">{label}</text>')
        legend_y += 14

    if guide_slope is not None:
        name = next(iter(cleaned))
        xs, ys = cleaned[name]
        if xlog and ylog:
            anchor = ys[0]
            yg = lambda xv: anchor * (xv / xs[0]) ** guide_slope
        elif ylog:
            anchor = ys[0]
            yg = lambda xv: anchor * math.exp(guide_slope * (xv - xs[0]))
        else:
            anchor = ys[0]
            yg = lambda xv: anchor + guide_slope * (xv - xs[0])
        # a log axis cannot place y <= 0; a linear one draws the guide as it is
        clamp = (lambda y: max(y, 1e-300)) if ylog else (lambda y: y)
        pts = " ".join(f"{_fmt(ax.px(a))},{_fmt(ax.py(clamp(yg(a))))}"
                       for a in (xs[0], xs[-1]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="gray" '
                     f'stroke-width="1" stroke-dasharray="2,3"/>')
        parts.append(f'<text x="{MARGIN_L + 8}" y="{legend_y}" font-family="monospace" '
                     f'font-size="11" fill="gray">guide slope {guide_slope:g}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
