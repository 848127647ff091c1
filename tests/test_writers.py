"""energy.csv and decay.svg are written WRITE_CHUNK rows at a time.

The oracles below are the writers as they were before streaming: each built
the whole file as one string and wrote it. The streamed writers must give
the same bytes at every row count around a chunk edge, and their memory
must not grow with the series.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mowave.energy import WRITE_CHUNK, EnergySeries, write_energy_csv
from mowave.errors import ConfigError
from mowave.svgplot import _H, _MB, _ML, _MR, _MT, _W, _nice_ticks, write_decay_svg

CHUNK = WRITE_CHUNK
ROW_COUNTS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


def joined_energy_csv(series, bound=None) -> str:
    rows = ["t,E,kinetic,gradient,restoring,nonlinear,flux,bound"]
    columns = [getattr(series, name) for name in EnergySeries._fields]
    for i, cells in enumerate(zip(*columns)):
        text = [repr(float(c)) for c in cells]
        text.append(repr(float(bound[i])) if bound is not None else "")
        rows.append(",".join(text))
    return "\n".join(rows) + "\n"


def joined_decay_svg(times, energies, bound=None) -> str:
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
        parts.append(f'<text x="{_W / 2}" y="{_H / 2}" text-anchor="middle">energy identically zero</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    floor = max(float(E[positive].min()) * 0.1, 5e-324)
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

    for yv in range(y_lo, y_hi + 1):
        py = sy(yv)
        parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{yv}</text>')
    for tv in _nice_ticks(t_lo, t_hi):
        px = sx(tv)
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{tv:g}</text>')
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#333"/>'
    )
    parts.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">t</text>')
    parts.append(
        f'<text x="18" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H / 2})">log10 E(t)</text>'
    )
    for i, (label, yv, color, dash) in enumerate(curves):
        pts = " ".join(f"{sx(tv):.2f},{sy(v):.2f}" for tv, v in zip(t, yv))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"{dash_attr}/>')
        ly = _MT + 16 + 18 * i
        parts.append(
            f'<line x1="{_W - _MR - 180}" y1="{ly}" x2="{_W - _MR - 150}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        parts.append(f'<text x="{_W - _MR - 144}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def decaying_series(rows: int, seed: int = 0) -> EnergySeries:
    """A synthetic series: a noisy decaying energy over [0, 3000], full-length floats."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 3000.0, rows)
    parts = rng.uniform(0.1, 1.0, (4, rows)) * np.exp(-0.02 * t)
    return EnergySeries(t, parts.sum(axis=0), *parts, rng.uniform(0.0, 1e-3, rows))


def certificate(series: EnergySeries) -> np.ndarray:
    return 2.0 * series.E[0] * np.exp(-0.0133 * series.t)


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("bound_as", [None, np.asarray, list], ids=["no-bound", "bound", "bound-list"])
def test_energy_csv_equals_the_joined_writer(tmp_path, rows, bound_as):
    series = decaying_series(rows, seed=rows)
    bound = bound_as(certificate(series)) if bound_as else None
    write_energy_csv(series, tmp_path / "energy.csv", bound=bound)
    assert (tmp_path / "energy.csv").read_bytes() == joined_energy_csv(series, bound).encode()


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("with_bound", [False, True], ids=["no-bound", "bound"])
def test_decay_svg_equals_the_joined_writer(tmp_path, rows, with_bound):
    series = decaying_series(rows, seed=rows)
    bound = certificate(series) if with_bound else None
    if rows == 1:  # one time spans no t axis: the joined writer divides by zero, the streamed one refuses
        with pytest.raises(ZeroDivisionError):
            joined_decay_svg(series.t, series.E, bound)
        with pytest.raises(ConfigError, match="no t axis"):
            write_decay_svg(tmp_path / "decay.svg", series.t, series.E, bound=bound)
        assert not (tmp_path / "decay.svg").exists()
        return
    write_decay_svg(tmp_path / "decay.svg", series.t, series.E, bound=bound)
    assert (tmp_path / "decay.svg").read_bytes() == joined_decay_svg(series.t, series.E, bound).encode()


@pytest.mark.parametrize("rows", [*ROW_COUNTS, "subnormal"])
def test_decay_svg_floor_and_zeros_equal_the_joined_writer(tmp_path, rows):
    # zeros sit on the floor, a tenth of the least positive energy, found across chunks; a tenth
    # of 1e-323 rounds to 0.0, so there the floor is the least subnormal, and nothing warns
    if rows == "subnormal":
        t, E = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1e-323, 0.0])
        bound = 2.0 * np.exp(-t)
    else:
        series = decaying_series(rows, seed=rows)
        t, E, bound = series.t, series.E.copy(), certificate(series)
        E[::3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_decay_svg(tmp_path / "decay.svg", t, E, bound=bound)
        expected = joined_decay_svg(t, E, bound)
    assert (tmp_path / "decay.svg").read_bytes() == expected.encode()


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("with_bound", [False, True], ids=["no-bound", "bound"])
def test_decay_svg_all_zero_energy_equals_the_joined_writer(tmp_path, rows, with_bound):
    t = np.linspace(0.0, 1.0, rows)
    bound = np.ones(rows) if with_bound else None
    write_decay_svg(tmp_path / "decay.svg", t, np.zeros(rows), bound=bound)
    assert (tmp_path / "decay.svg").read_bytes() == joined_decay_svg(t, np.zeros(rows), bound).encode()


@pytest.mark.parametrize("times", [[2.5] * 3, [0.0] * 2 * CHUNK], ids=["3-rows", "2-chunks"])
def test_decay_svg_of_equal_times_writes_no_file(tmp_path, times):
    # a series whose times are all equal spans no t axis; the error comes before the file is opened
    path = tmp_path / "decay.svg"
    E = np.linspace(1.0, 0.5, len(times))
    with pytest.raises(ConfigError, match="no t axis"):
        write_decay_svg(path, times, E, bound=2.0 * E)
    assert not path.exists()


def test_decay_svg_of_a_flat_log_range_spans_one_decade(tmp_path):
    # log10 E = 0 at every time and no bound: the y axis runs from 0 to 1, not over an empty range
    t, E = np.linspace(0.0, 1.0, 5), np.ones(5)
    write_decay_svg(tmp_path / "decay.svg", t, E)
    text = (tmp_path / "decay.svg").read_text()
    assert text == joined_decay_svg(t, E)
    assert 'text-anchor="end">0</text>' in text and 'text-anchor="end">1</text>' in text
    assert 'text-anchor="end">2</text>' not in text and 'text-anchor="end">-1</text>' not in text


def traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 180,001 rows is the series of the README config with a = 0.02, beta constant
# and T = 3000 at the default flags; the joined writers peaked at about 100 MB
# (energy.csv) and 25 MB (decay.svg) on it
LONG = 180_001


@pytest.fixture(scope="module")
def long_series():
    return decaying_series(LONG)


def test_energy_csv_memory_does_not_grow_with_rows(tmp_path, long_series):
    bound = certificate(long_series)
    peak = traced_peak(lambda: write_energy_csv(long_series, tmp_path / "energy.csv", bound=bound))
    assert peak < 4_000_000, peak
    short = decaying_series(2 * CHUNK)
    short_peak = traced_peak(lambda: write_energy_csv(short, tmp_path / "short.csv", bound=certificate(short)))
    assert peak < 1.5 * short_peak, (peak, short_peak)


def test_decay_svg_memory_does_not_grow_with_rows(tmp_path, long_series):
    bound = certificate(long_series)
    peak = traced_peak(lambda: write_decay_svg(tmp_path / "decay.svg", long_series.t, long_series.E, bound=bound))
    assert peak < 4_000_000, peak
    short = decaying_series(2 * CHUNK)
    short_peak = traced_peak(lambda: write_decay_svg(tmp_path / "short.svg", short.t, short.E, certificate(short)))
    assert peak < 1.5 * short_peak, (peak, short_peak)
