"""Minimal SVG line plots; no plotting dependency.

Handles the two shapes the experiment CLI needs: overlaid line series with
optional log axes, and 2-D trajectory traces.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence, Tuple

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _escape(text: str) -> str:
    """text as XML character data; ``xml.sax.saxutils.escape`` would import ``urllib.request`` with hoeg."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _transform(values, log_scale):
    """The plotted coordinates as floats; a value with no place on a log axis becomes NaN."""
    out = np.array(values, dtype=float)
    if log_scale:
        keep = out > 0
        out[~keep] = math.nan
        out[keep] = list(map(math.log10, out[keep].tolist()))  # np.log10 differs from it by 1 ulp at some k+1
    return out


def _runs(x, y):
    """The maximal runs of vertices whose coordinates are both finite, as (x, y) slices."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], np.isfinite(x) & np.isfinite(y), [False]))))
    return [(x[a:b], y[a:b]) for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())]


def _points(X, Y):
    """A polyline's points to 0.01 px, less each repeat of the previous vertex (exact, then as written)
    and each interior vertex between its neighbours on an axis-aligned run; rounding is monotone."""
    keep = np.ones(len(X), dtype=bool)
    keep[1:] = (X[1:] != X[:-1]) | (Y[1:] != Y[:-1])
    X, Y = X[keep], Y[keep]
    keep = np.ones(len(X), dtype=bool)
    for a, b in ((X, Y), (Y, X)):
        lo, hi = np.minimum(a[:-2], a[2:]), np.maximum(a[:-2], a[2:])
        keep[1:-1] &= ~((b[:-2] == b[1:-1]) & (b[1:-1] == b[2:]) & (lo <= a[1:-1]) & (a[1:-1] <= hi))
    written = [f"{a:.2f},{b:.2f}" for a, b in zip(X[keep].tolist(), Y[keep].tolist())]
    return " ".join(v for v, prev in zip(written, [None] + written) if v != prev)


def _check_width(lo, hi, length=1.0):
    """Raise if length (hi - lo), an axis's width in pixels, passes the float range."""
    if length * (hi - lo) == math.inf:
        raise ValueError(f"cannot place ticks on [{lo:g}, {hi:g}]: its width overflows the float range")


def _ticks(lo, hi, log_scale, count=5):
    if log_scale:
        lo_i, hi_i = math.floor(lo), math.ceil(hi)
        step = max(1, (hi_i - lo_i) // count)
        return [(t, f"1e{t}") for t in range(lo_i, hi_i + 1, step)]
    _check_width(lo, hi)
    span = hi - lo or 1.0
    if span / count < sys.float_info.min:  # a subnormal width: one tick, at lo
        return [(lo, f"{lo:.4g}")]
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        if t + step == t:  # a step under half the spacing of the floats at t
            break
        t += step
    for digits in range(4, 18):  # the fewest that tell ticks apart; at 17, ticks on one double merge
        labelled = {f"{t:.{digits}g}": t for t in ticks}
        if len(labelled) == len(ticks):
            break
    return [(t, label) for label, t in labelled.items()]


def line_plot_svg(path, series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
                  title: str = "", xlabel: str = "", ylabel: str = "",
                  logx: bool = False, logy: bool = False) -> None:
    """Write an SVG of (label, xs, ys) series; every text is XML-escaped.

    Only vertices finite on both axes (a log axis places positive values) are drawn and bound
    the axes; each run of them is one polyline in its series' colour, or a dot where the run is
    one vertex at 0.01 px, under one label per series.
    """
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
    lines = [(label, _runs(_transform(xs, logx), _transform(ys, logy))) for label, xs, ys in series]
    runs = [run for _, series_runs in lines for run in series_runs]
    if not runs:
        raise ValueError("nothing to plot")
    xs_all, ys_all = (np.concatenate([run[k] for run in runs]).tolist() for k in (0, 1))
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    # every drawn x and y is in [lo, hi], so neither place below overflows
    _check_width(x_lo, x_hi, _W - _ML - _MR)
    _check_width(y_lo, y_hi, _H - _MT - _MB)

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
    if not (x_hi - x_lo and y_hi - y_lo):  # what px and py raise on a float; numpy would not
        raise ZeroDivisionError("float division by zero")
    for i, (label, series_runs) in enumerate(lines):
        if not series_runs:
            continue
        color = _COLORS[i % len(_COLORS)]
        for x, y in series_runs:
            points = _points(px(x), py(y))
            if " " in points:
                parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            else:  # a polyline of one vertex draws nothing: mark it with a dot
                cx, cy = points.split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
                     f'fill="{color}">{_escape(label)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts))


def trajectory_plot_svg(path, series, title: str = "") -> None:
    """2-D iterate traces: series of (label, points-array)."""
    line_plot_svg(path, [(label, *np.asarray(pts, dtype=float).reshape(len(pts), 2).T)
                         for label, pts in series], title=title, xlabel="x", ylabel="y")
