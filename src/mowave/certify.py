"""Decay certificates: an admissible rate window, a constant, and the check.

The certified statement is E(t) <= C E(0) exp(-lambda t). A rate lambda is
admissible when two families of scalar inequalities hold simultaneously.

From below, the nonlinear weight must not grow faster than the multiplier
absorbs: lambda (rho+1) beta(t) >= beta'(t) on [0, T], i.e.

    lambda_lo = sup_t beta'(t) / ((rho+1) beta(t))

It is 0 for constant beta and mu/(rho+1) for exponential beta. For
polynomial beta the supremum is the largest of beta'/beta at t = 0, at
t = T (when finite) and at the real roots of beta'' beta - beta'^2 in
(0, T), divided by rho+1.

From above, the quadratic forms produced by the multiplier (u_t + lambda u)
with weight phi = exp(lambda t) must stay negative semidefinite and the
perturbed functional must stay equivalent to the energy. For b > 0:

    (i)   3 lambda / 2 <= a                    (u_t^2 coefficient)
    (ii)  2 b (a - 3 lambda/2) >= lambda (lambda - a)^2
                                               (2x2 block with the cross term)
    (iii) lambda <= 0.9 sqrt(b)                (coercivity headroom)

For b = 0 the u^2 control comes from the Poincare inequality on the largest
domain, |Omega*| = alpha(T):

    (i)   3 lambda / 2 <= a
    (ii)  a lambda |Omega*|^2 < 1              (strict budget)
    (iii) lambda (3/2 + a^2 |Omega*|^2 / 2) <= a / 2
                                               (Young absorption of the cross term)
    (iv)  lambda |Omega*| <= 0.9               (coercivity headroom)

lambda_hi is the top of the connected admissible component containing 0,
in closed form. For b > 0, (ii) reads g(lambda) >= 0 with the cubic

    g(lambda) = -lambda^3 + 2a lambda^2 - (a^2 + 3b) lambda + 2ab,

whose discriminant -4b (a^4 - 9 a^2 b + 27 b^2) is negative, so g has one
real root r; g(0) = 2ab > 0 and g(2a/3) = -2a^3/27 < 0 put it below 2a/3,
so (i) never binds and lambda_hi = min(0.9 sqrt(b), r). For b = 0, (iii)
gives lambda <= a/(3 + a^2 |Omega*|^2), which is below both 2a/3 and
1/(a |Omega*|^2), so neither (i) nor the strict budget (ii) binds and
lambda_hi = min(a/(3 + a^2 |Omega*|^2), 0.9/|Omega*|). An edge that misses
its own inequality by a rounding error is moved down by a few ulps. The
window is [lambda_lo, lambda_hi] and is empty when lambda_lo > lambda_hi.

The constant is C = (1 + r) / (1 - r). For b > 0, r = lambda/sqrt(b), from
|lambda u u_t| <= (lambda/sqrt(b)) (u_t^2/2 + b u^2/2). For b = 0 the same
argument through the Poincare inequality gives r = lambda |Omega*|;
condition (iv) keeps C finite. Both constants are this artifact's own
construction.

One function, _branch, defines both branches: at a rate lambda it gives the
branch's name, its conditions with their slacks, and r. window_edges walks
its closed-form lambda_hi down against those conditions, and
build_certificate reports them with C at lambda_hi, the fastest rate.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, UnsupportedConfigError
from .model import AlphaFamily, BetaFamily, DampingParams


class CertCondition(NamedTuple):
    """One scalar inequality at the chosen lambda; value is the slack."""

    name: str
    value: float
    satisfied: bool


class DecayCertificate(NamedTuple):
    branch: str  # "standard" (b > 0) or "remark1" (b = 0)
    lambda_lo: float
    lambda_hi: float
    lam: float
    C: float
    conditions: tuple[CertCondition, ...]

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "lambda_lo": self.lambda_lo,
            "lambda_hi": self.lambda_hi,
            "lambda": self.lam,
            "C": self.C,
            "conditions": [
                {"name": c.name, "value": c.value, "satisfied": c.satisfied}
                for c in self.conditions
            ],
        }

    def bound_values(self, times: np.ndarray, e0: float) -> np.ndarray:
        """Certificate curve C E(0) exp(-lambda t) on the given sample times."""
        return self.C * e0 * np.exp(-self.lam * np.asarray(times, dtype=float))


class BoundReport(NamedTuple):
    holds: bool
    worst_margin: float
    first_violation: Optional[float]
    tol: float


# ---------------------------------------------------------------------------
# window


def _omega_star(alpha: AlphaFamily, T: float) -> float:
    """|Omega*| = alpha(T), the largest domain length on the horizon."""
    omega = alpha.max_length(T)
    if math.isinf(T) and math.isinf(omega):
        raise UnsupportedConfigError(
            "remark1 certificate needs alpha bounded; affine growth has no "
            "uniform domain bound on an unbounded horizon"
        )
    return omega


def _cross_term_root(a: float, b: float) -> float:
    """The double nearest the one real root r of the cubic g of condition
    (ii), b > 0 (see above), in closed form.

    With lambda = m y and m = max(a, sqrt(b)), -g/m^3 is the monic cubic
    y^3 - 2A y^2 + (A^2 + 3B) y - 2AB in A = a/m and B = b/m^2, both at most
    1, so no intermediate overflows. Cardano's real root u + v + 2A/3
    cancels when r is small next to a or to sqrt(b); Vieta's product gives
    it as 2AB / |w|^2 instead, where |w|^2, the squared modulus of the
    complex pair, is a sum of squares. That is within a few ulps; exact sign
    tests of g at the midpoints between doubles (g > 0 below r, < 0 above)
    then move it to the nearest double.
    Raises UnsupportedConfigError when a coefficient overflows a double.
    """
    if not all(map(math.isfinite, (2.0 * a, a * a + 3.0 * b, 2.0 * a * b))):
        raise UnsupportedConfigError(
            f"certificate: damping a = {a:g}, b = {b:g} overflow the cubic of condition (ii), "
            "so lambda_hi cannot be computed"
        )
    if a * a >= b:  # m = a, and A B m = b/a
        A, B, ABm = 1.0, b / (a * a), b / a
    else:  # m = sqrt(b), and A B m = a
        A, B, ABm = a / math.sqrt(b), 1.0, a
    P = 3.0 * B - A * A / 3.0  # the depressed cubic z^3 + P z + Q, y = z + 2A/3
    Q = 2.0 * A**3 / 27.0
    D = B * (27.0 * B * B - 9.0 * A * A * B + A**4) / 27.0  # Q^2/4 + P^3/27 > 0
    u = -((0.5 * Q + math.sqrt(D)) ** (1.0 / 3.0))
    v = -P / (3.0 * u)
    # the pair is w = 2A/3 - (u + v)/2 +- i sqrt(3) (u - v)/2
    pair_sq = (2.0 * A / 3.0 - 0.5 * (u + v)) ** 2 + 0.75 * (u - v) ** 2
    lam = 2.0 * ABm / pair_sq  # r = m y, and y |w|^2 = 2AB

    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()

    def below_root(lo: float, hi: float) -> bool:
        """g > 0 at the midpoint n/d of lo and hi, exactly (times ad^2 bd d^3 > 0)."""
        (pn, pd), (qn, qd) = lo.as_integer_ratio(), hi.as_integer_ratio()
        n, d = pn * qd + qn * pd, 2 * pd * qd
        lhs = 2 * an * ad * d * (bd * n * n + bn * d * d)
        return lhs > n * (ad * ad * bd * n * n + (an * an * bd + 3 * bn * ad * ad) * d * d)

    while below_root(lam, math.nextafter(lam, math.inf)):
        lam = math.nextafter(lam, math.inf)
    while not below_root(math.nextafter(lam, -math.inf), lam):
        lam = math.nextafter(lam, -math.inf)
    return lam


def _branch(
    params: DampingParams, alpha: AlphaFamily, T: float, lam: float
) -> tuple[str, tuple[CertCondition, ...], float]:
    """The branch at rate lam: its name, its conditions (i)-(iii) or (i)-(iv)
    with their slacks, and the ratio r of its constant C = (1 + r)/(1 - r)."""
    a, b = params.a, params.b
    if b > 0.0:
        branch, r = "standard", lam / math.sqrt(b)
        slacks = {
            "ut2_coefficient": a - 1.5 * lam,
            "cross_term_psd": 2.0 * b * (a - 1.5 * lam) - lam * (lam - a) ** 2,
            "coercivity": 0.9 * math.sqrt(b) - lam,
        }
    else:
        omega = _omega_star(alpha, T)
        branch, r = "remark1", lam * omega
        slacks = {
            "ut2_coefficient": a - 1.5 * lam,
            "poincare_budget": 1.0 - a * lam * omega * omega,
            "young_absorption": 0.5 * a - lam * (1.5 + 0.5 * a * a * omega * omega),
            "coercivity": 0.9 - lam * omega,
        }
    # the budget (ii) of b = 0 is the one strict inequality
    conditions = tuple(
        CertCondition(n, v, v > 0.0 if n == "poincare_budget" else v >= 0.0) for n, v in slacks.items()
    )
    return branch, conditions, r


def window_edges(
    params: DampingParams, beta: BetaFamily, alpha: AlphaFamily, T: float
) -> tuple[float, float]:
    """Raw (lambda_lo, lambda_hi) edges; they cross when the window is empty.

    Raises UnsupportedConfigError where PolynomialBeta.sup_ratio overflows.
    """
    a, b, rho = params.a, params.b, params.rho
    if a <= 0.0:
        raise ConfigError(f"damping a must be positive, got {a}")
    if b < 0.0:
        raise ConfigError(f"damping b must be nonnegative, got {b}")
    if rho <= 0.0:
        raise ConfigError(f"rho must be positive, got {rho}")
    lo = beta.sup_ratio(T) / (rho + 1.0)

    if b > 0.0:
        hi = min(0.9 * math.sqrt(b), _cross_term_root(a, b))
    else:
        omega = _omega_star(alpha, T)
        hi = min(a / (3.0 + a * a * omega * omega), 0.9 / omega)
    # an exact edge can miss its own inequality by a rounding error
    step = math.ulp(hi)
    while not all(c.satisfied for c in _branch(params, alpha, T, hi)[1]):
        hi -= step
        step *= 2.0
    return (lo, hi)


# ---------------------------------------------------------------------------
# certificate


def build_certificate(
    params: DampingParams,
    beta: BetaFamily,
    alpha: AlphaFamily,
    T: float,
    edges: Optional[tuple[float, float]] = None,
) -> Optional[DecayCertificate]:
    """The decay certificate at lambda_hi, the fastest certifiable rate, or
    None when the window is empty.

    edges are the window_edges of the same arguments when the caller already
    has them.
    """
    lo, hi = window_edges(params, beta, alpha, T) if edges is None else edges
    if lo > hi:
        return None
    growth_slack = hi - lo
    branch, conditions, r = _branch(params, alpha, T, hi)
    return DecayCertificate(
        branch=branch,
        lambda_lo=lo,
        lambda_hi=hi,
        lam=hi,
        C=(1.0 + r) / (1.0 - r),
        conditions=(CertCondition("beta_growth", growth_slack, growth_slack >= 0.0),) + conditions,
    )


# ---------------------------------------------------------------------------
# measurement

FIT_FLOOR = 1e-12  # fit_decay drops samples below this fraction of E(0)


def fit_decay(series) -> Optional[float]:
    """lambda_fit, minus the slope of the least-squares line through log E.

    Uses only samples with E > FIT_FLOOR * E(0); None, nothing to fit, when
    E(0) = 0 or fewer than 10 samples lie above the floor.
    """
    t = np.asarray(series.t, dtype=float)
    E = np.asarray(series.E, dtype=float)
    e0 = float(E[0])
    keep = E > FIT_FLOOR * e0
    if e0 <= 0.0 or int(keep.sum()) < 10:
        return None
    tt = t[keep]
    logE = np.log(E[keep])
    # the degree-1 slope from two-pass centred sums
    dt, dy = tt - tt.mean(), logE - logE.mean()
    return float(-np.sum(dt * dy) / np.sum(dt * dt))


def check_decay_bound(
    series,
    cert: DecayCertificate,
    dt: float = 0.0,
    rate_residual: float = 0.0,
) -> BoundReport:
    """Check E(t_k) <= C E(0) exp(-lambda t_k) (1 + tol) on every sample.

    tol = 1e-6 plus the discretization allowance 10 dt^2 scaled by the
    measured energy-rate residual. worst_margin is the largest ratio of
    sample to bound (0 for the zero solution); a sample E = 0 holds, and one
    above a bound that is 0, underflowed or from E(0) = 0, has ratio inf.
    """
    t = np.asarray(series.t, dtype=float)
    E = np.asarray(series.E, dtype=float)
    e0 = float(E[0])
    tol = 1e-6 + 10.0 * dt * dt * rate_residual
    bound = cert.bound_values(t, e0)
    ratio = np.divide(E, bound, out=np.where(E > 0.0, np.inf, 0.0), where=bound > 0.0)
    worst = float(ratio.max())
    violations = ratio > 1.0 + tol
    if bool(violations.any()):
        first = float(t[int(np.argmax(violations))])
        return BoundReport(holds=False, worst_margin=worst, first_violation=first, tol=tol)
    return BoundReport(holds=True, worst_margin=worst, first_violation=None, tol=tol)
