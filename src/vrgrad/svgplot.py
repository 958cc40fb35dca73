"""Minimal deterministic SVG line charts (no plotting dependency).

Output bytes depend only on the input series and options: fixed palette,
fixed float formatting, no timestamps.  The y axis is log10; nonpositive
values are dropped from log series.
"""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 80, 160, 48, 56


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _nice_linear_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        if v + step == v:   # the step rounds away at v: no further tick
            break
        v += step
    return ticks


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str | None:
    """Render labeled (label, xs, ys) series to an SVG string.

    Returns None when no series has a positive y value to plot.
    """
    clean = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y) and y > 0.0]
        if pts:
            clean.append((label, pts))
    if not clean:
        return None

    x_lo = min(p[0] for _, pts in clean for p in pts)
    x_hi = max(p[0] for _, pts in clean for p in pts)
    y_lo = min(p[1] for _, pts in clean for p in pts)
    y_hi = max(p[1] for _, pts in clean for p in pts)
    if x_hi == x_lo:
        # a width that x_lo + width does not round away
        x_hi = x_lo + max(1.0, math.ulp(x_lo))
    e_lo = math.floor(math.log10(y_lo))
    e_hi = math.ceil(math.log10(y_hi))
    if e_hi == e_lo:
        e_hi += 1

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    # y by its log10, so that no decade is formed as 10.0 ** e, which
    # underflows to 0 or overflows at the ends of the float range
    def sy(log_y):
        return _MT + (e_hi - log_y) / (e_hi - e_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_esc(title)}</text>',
    ]

    # frame
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')

    # x ticks
    for v in _nice_linear_ticks(x_lo, x_hi):
        if not (x_lo <= v <= x_hi):
            continue
        px = sx(v)
        out.append(f'<line x1="{_fmt(px)}" y1="{_MT + plot_h}" x2="{_fmt(px)}" '
                   f'y2="{_MT + plot_h + 5}" stroke="#333"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_MT + plot_h + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_tick_label(v)}</text>')
    out.append(f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{_esc(xlabel)}</text>')

    # y decade ticks (thin gridlines)
    decade_step = max(1, (e_hi - e_lo) // 8)
    for e in range(e_lo, e_hi + 1, decade_step):
        py = sy(e)
        out.append(f'<line x1="{_ML}" y1="{_fmt(py)}" x2="{_ML + plot_w}" y2="{_fmt(py)}" '
                   f'stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">1e{e:+03d}</text>')
    out.append(f'<text x="20" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {_MT + plot_h / 2:.1f})">{_esc(ylabel)}</text>')

    # series
    for k, (label, pts) in enumerate(clean):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(math.log10(y)))}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = _MT + 16 + 18 * k
        lx = _ML + plot_w + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{_esc(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
