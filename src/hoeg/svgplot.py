"""Minimal SVG line plots; no plotting dependency.

Handles the two shapes the experiment CLI needs: overlaid line series with
optional log axes, and 2-D trajectory traces.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence, Tuple

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _transform(values, log_scale):
    out = []
    for v in values:
        if log_scale:
            out.append(math.log10(v) if v > 0 else None)
        else:
            out.append(float(v))
    return out


def _ticks(lo, hi, log_scale, count=5):
    if log_scale:
        lo_i, hi_i = math.floor(lo), math.ceil(hi)
        step = max(1, (hi_i - lo_i) // count)
        return [(t, f"1e{t}") for t in range(lo_i, hi_i + 1, step)]
    span = hi - lo or 1.0
    if span == math.inf:
        raise ValueError(f"cannot place ticks on [{lo:g}, {hi:g}]: its width overflows the float range")
    if span / count < sys.float_info.min:  # a subnormal width: one tick, at lo
        return [(lo, f"{lo:.4g}")]
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append((t, f"{t:.4g}"))
        if t + step == t:  # a step under half the spacing of the floats at t
            break
        t += step
    return ticks


def line_plot_svg(path, series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
                  title: str = "", xlabel: str = "", ylabel: str = "",
                  logx: bool = False, logy: bool = False) -> None:
    """Write an SVG with one polyline per (label, xs, ys) series."""
    txy = []
    for label, xs, ys in series:
        pts = [(x, y) for x, y in zip(_transform(xs, logx), _transform(ys, logy))
               if x is not None and y is not None]
        txy.append((label, pts))
    all_pts = [pt for _, pts in txy for pt in pts]
    if not all_pts:
        raise ValueError("nothing to plot")
    xs_all = [p[0] for p in all_pts]
    ys_all = [p[1] for p in all_pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return _ML + (_W - _ML - _MR) * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return _H - _MB - (_H - _MT - _MB) * (y - y_lo) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_H / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>')
    for t, label in _ticks(x_lo, x_hi, logx):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{label}</text>')
    for t, label in _ticks(y_lo, y_hi, logy):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{label}</text>')
    for i, (label, pts) in enumerate(txy):
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts))


def trajectory_plot_svg(path, series, title: str = "") -> None:
    """2-D iterate traces: series of (label, points-array)."""
    line_plot_svg(
        path,
        [(label, [p[0] for p in pts], [p[1] for p in pts]) for label, pts in series],
        title=title,
        xlabel="x",
        ylabel="y",
    )
