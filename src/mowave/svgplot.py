"""Minimal static SVG renderer for log-scale energy decay plots.

No plotting dependency: the harness needs exactly one figure (log10 E over t,
with the certificate line overlaid when one exists), so the markup is
assembled directly.
"""

from __future__ import annotations

import math

import numpy as np

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _nice_ticks(lo: float, hi: float, count: int = 6):
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_decay_svg(times, energies, bound=None) -> str:
    """Return SVG markup for log10 E(t), optionally with a certificate curve."""
    t = np.asarray(times, dtype=float)
    E = np.asarray(energies, dtype=float)
    positive = E > 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">Energy decay</text>',
    ]
    if not positive.any():
        parts.append(
            f'<text x="{_W / 2}" y="{_H / 2}" text-anchor="middle">energy identically zero</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts)

    floor = float(E[positive].min()) * 0.1
    logE = np.log10(np.maximum(E, floor))
    curves = [("energy", logE, "#1f77b4", None)]
    if bound is not None:
        b = np.asarray(bound, dtype=float)
        curves.append(("certificate C E(0) exp(-lambda t)", np.log10(np.maximum(b, floor)), "#d62728", "6,4"))

    t_lo, t_hi = float(t.min()), float(t.max())
    y_vals = np.concatenate([c[1] for c in curves])
    y_lo = math.floor(float(y_vals.min()))
    y_hi = math.ceil(float(y_vals.max()))
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(tv):
        return _ML + (tv - t_lo) / (t_hi - t_lo) * (_W - _ML - _MR)

    def sy(yv):
        return _H - _MB - (yv - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    # axes and gridlines
    for yv in range(y_lo, y_hi + 1):
        py = sy(yv)
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" stroke="#ddd"/>'
        )
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{yv}</text>')
    for tv in _nice_ticks(t_lo, t_hi):
        px = sx(tv)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{tv:g}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#333"/>'
    )
    parts.append(
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">t</text>'
    )
    parts.append(
        f'<text x="18" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H / 2})">log10 E(t)</text>'
    )

    # curves and legend
    for i, (label, yv, color, dash) in enumerate(curves):
        pts = " ".join(f"{sx(tv):.2f},{sy(v):.2f}" for tv, v in zip(t, yv))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        ly = _MT + 16 + 18 * i
        parts.append(
            f'<line x1="{_W - _MR - 180}" y1="{ly}" x2="{_W - _MR - 150}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        parts.append(f'<text x="{_W - _MR - 144}" y="{ly + 4}">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def write_decay_svg(path, times, energies, bound=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_decay_svg(times, energies, bound=bound) + "\n")
