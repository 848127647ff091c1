"""Domain-fixing change of variables and the transformed PDE coefficients.

With y = x/alpha(t) and v(y,t) = u(x,t), the moving interval (0, alpha(t))
becomes the fixed reference interval (0,1) and the wave equation becomes

    v_tt + c_yt v_yt + c_yy v_yy + c_y v_y
         + a (v_t - (y alpha'/alpha) v_y) + b v + beta |v|^rho v = f

with

    c_yt = -2 y alpha' / alpha
    c_yy = (y alpha'/alpha)^2 - 1/alpha^2
    c_y  = -(y alpha''/alpha - 2 y (alpha'/alpha)^2)

(chain rule re-derived symbolically; the manufactured-solution convergence
test cross-checks the whole set). The damping correction appears because
u_t = v_t - (y alpha'/alpha) v_y at fixed x.

Hyperbolicity: the characteristic speeds of the transformed operator are
s = (y alpha' +/- 1)/alpha, real and distinct whenever y alpha' < 1, which
assumption (A1) guarantees uniformly with margin 1 - sup alpha'.
"""

from __future__ import annotations

import numpy as np

from .errors import MowaveError
from .model import AlphaFamily


def _alpha_ratios(t: float, alpha: AlphaFamily) -> tuple[float, float, float, float]:
    """alpha'/alpha, 1/alpha^2, alpha''/alpha and (alpha'/alpha)^2 at t."""
    al, ap, app = alpha.eval(t)
    return ap / al, 1.0 / (al * al), app / al, (ap / al) ** 2


def coefficient_grids(y: np.ndarray, t, alpha: AlphaFamily):
    """Coefficients of the transformed equation at nodes y (an array or a scalar).

    Returns (c_yt, c_yy, c_y, drift) with drift = y alpha'/alpha, the term the
    damping correction and the velocity reconstruction both need. t is one
    time, or a sequence of times: then each coefficient is a (times, nodes)
    array whose row j holds the coefficient at t[j], bit for bit the same as
    a call at t[j] alone (the alpha ratios are Python scalars either way).
    """
    if np.ndim(t) == 0:
        g, inv_al2, g2, g_sq = _alpha_ratios(t, alpha)
    else:
        g, inv_al2, g2, g_sq = np.array([_alpha_ratios(s, alpha) for s in t]).T[..., None]
    drift = y * g
    c_yt = -2.0 * drift
    c_yy = drift * drift - inv_al2
    c_y = -(y * g2 - 2.0 * y * g_sq)
    return c_yt, c_yy, c_y, drift


def hyperbolicity_check(alpha: AlphaFamily, T: float) -> float:
    """Uniform hyperbolicity margin min(1 - y alpha') = 1 - sup alpha' on [0, T].

    (A1) validation makes a nonpositive margin unreachable; the raise is a
    defensive guard for callers that skip validation.
    """
    margin = 1.0 - alpha.sup_prime()
    if margin <= 0.0:
        raise MowaveError(
            f"hyperbolicity margin {margin:g} <= 0; the moving boundary is not time-like"
        )
    return margin
