"""Minimal static SVG writer for log-scale energy decay plots.

No plotting dependency: the harness needs exactly one figure (log10 E over t,
with the certificate line overlaid when one exists), so the markup is
written directly to the file, the curves a chunk of points at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import WRITE_CHUNK
from .errors import ConfigError

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _nice_ticks(lo: float, hi: float, count: int = 6):
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _chunks(n: int):
    return (slice(lo, lo + WRITE_CHUNK) for lo in range(0, n, WRITE_CHUNK))


def _markup(t: np.ndarray, E: np.ndarray, bound):
    """The SVG markup of log10 E(t) in pieces, each polyline WRITE_CHUNK points a piece."""
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">\n'
    )
    yield f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
    yield f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">Energy decay</text>\n'
    if E.max(initial=0.0) <= 0.0:  # no positive energy
        yield f'<text x="{_W / 2}" y="{_H / 2}" text-anchor="middle">energy identically zero</text>\n'
        yield "</svg>\n"
        return

    # a tenth of the least positive energy is the floor of every curve
    floor = float(min(np.min(E[s], where=E[s] > 0.0, initial=np.inf) for s in _chunks(E.size))) * 0.1
    curves = [("energy", E, "#1f77b4", None)]
    if bound is not None:
        curves.append(("certificate C E(0) exp(-lambda t)", np.asarray(bound, dtype=float), "#d62728", "6,4"))

    def log(values):
        return np.log10(np.maximum(values, floor))

    t_lo, t_hi = float(t.min()), float(t.max())
    # log10 and the floor are monotone, so the range of each log curve is the log of its range
    y_lo = math.floor(min(float(log(c[1].min())) for c in curves))
    y_hi = math.ceil(max(float(log(c[1].max())) for c in curves))
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(tv):
        return _ML + (tv - t_lo) / (t_hi - t_lo) * (_W - _ML - _MR)

    def sy(yv):
        return _H - _MB - (yv - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    # axes and gridlines
    for yv in range(y_lo, y_hi + 1):
        py = sy(yv)
        yield f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" stroke="#ddd"/>\n'
        yield f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{yv}</text>\n'
    for tv in _nice_ticks(t_lo, t_hi):
        px = sx(tv)
        yield f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 5}" stroke="#333"/>\n'
        yield f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{tv:g}</text>\n'
    yield (
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#333"/>\n'
    )
    yield f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">t</text>\n'
    yield (
        f'<text x="18" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H / 2})">log10 E(t)</text>\n'
    )

    # curves and legend
    for i, (label, values, color, dash) in enumerate(curves):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        yield '<polyline points="'
        for s in _chunks(min(t.size, values.size)):
            xs, ys = sx(t[s]).tolist(), sy(log(values[s])).tolist()
            yield (" " if s.start else "") + " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        yield f'" fill="none" stroke="{color}" stroke-width="1.6"{dash_attr}/>\n'
        ly = _MT + 16 + 18 * i
        yield (
            f'<line x1="{_W - _MR - 180}" y1="{ly}" x2="{_W - _MR - 150}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>\n'
        )
        yield f'<text x="{_W - _MR - 144}" y="{ly + 4}">{label}</text>\n'
    yield "</svg>\n"


def write_decay_svg(path, times, energies, bound=None) -> None:
    """Write the SVG of log10 E(t), with the certificate curve when bound is given.

    The axis ranges come from reductions over the arrays and each polyline
    is formatted and written WRITE_CHUNK points at a time, so memory does
    not grow with the series. Raises ConfigError, before the file is
    opened, when the series has a positive energy and every time of it is
    equal: the curve then spans no t axis.
    """
    t = np.asarray(times, dtype=float)
    E = np.asarray(energies, dtype=float)
    if E.max(initial=0.0) > 0.0 and t.min() == t.max():
        raise ConfigError(f"decay.svg: every time of the series is t = {float(t[0])!r}, so the plot has no t axis")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_markup(t, E, bound))
