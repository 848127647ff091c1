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

The constant: for b > 0, C = (1 + lambda/sqrt(b)) / (1 - lambda/sqrt(b))
from |lambda u u_t| <= (lambda/sqrt(b)) (u_t^2/2 + b u^2/2). For b = 0 the
same argument through the Poincare inequality gives
C = (1 + lambda |Omega*|) / (1 - lambda |Omega*|); condition (iv) keeps it
finite. Both constants are this artifact's own construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DegenerateDataError, UnsupportedConfigError
from .model import AlphaFamily, BetaFamily, DampingParams


@dataclass(frozen=True)
class CertCondition:
    """One scalar inequality at the chosen lambda; value is the slack."""

    name: str
    value: float
    satisfied: bool


@dataclass(frozen=True)
class DecayCertificate:
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


@dataclass(frozen=True)
class EmpiricalDecay:
    lambda_fit: float
    C_fit: float
    r_squared: float
    window: tuple[float, float]


@dataclass(frozen=True)
class BoundReport:
    holds: bool
    worst_margin: float
    first_violation: Optional[float]
    tol: float


# ---------------------------------------------------------------------------
# window


def lambda_floor(beta: BetaFamily, rho: float, T: float) -> float:
    """lambda_lo = sup over [0, T] of beta'/((rho+1) beta).

    Raises UnsupportedConfigError when, for polynomial beta, the numerator
    whose roots are sought overflows a double (PolynomialBeta.sup_ratio).
    """
    if rho <= 0.0:
        raise ConfigError(f"rho must be positive, got {rho}")
    return beta.sup_ratio(T) / (rho + 1.0)


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
    """The one real root of the cubic g of condition (ii), b > 0 (see above).

    The minimum guards against a complex pair rounded onto the real axis.
    Raises UnsupportedConfigError when a coefficient overflows a double.
    """
    coeffs = [-1.0, 2.0 * a, -(a * a + 3.0 * b), 2.0 * a * b]
    if not all(map(math.isfinite, coeffs)):
        raise UnsupportedConfigError(
            f"certificate: damping a = {a:g}, b = {b:g} overflow the cubic of condition (ii), "
            "so lambda_hi cannot be computed"
        )
    roots = np.roots(coeffs)
    return float(roots[roots.imag == 0.0].real.min())


def _standard_conditions(params: DampingParams, lam: float) -> tuple[CertCondition, ...]:
    a, b = params.a, params.b
    s1 = a - 1.5 * lam
    s2 = 2.0 * b * (a - 1.5 * lam) - lam * (lam - a) ** 2
    s3 = 0.9 * math.sqrt(b) - lam
    return (
        CertCondition("ut2_coefficient", s1, s1 >= 0.0),
        CertCondition("cross_term_psd", s2, s2 >= 0.0),
        CertCondition("coercivity", s3, s3 >= 0.0),
    )


def _remark1_conditions(params: DampingParams, omega: float, lam: float) -> tuple[CertCondition, ...]:
    a = params.a
    s1 = a - 1.5 * lam
    s2 = 1.0 - a * lam * omega * omega
    s3 = 0.5 * a - lam * (1.5 + 0.5 * a * a * omega * omega)
    s4 = 0.9 - lam * omega
    return (
        CertCondition("ut2_coefficient", s1, s1 >= 0.0),
        CertCondition("poincare_budget", s2, s2 > 0.0),
        CertCondition("young_absorption", s3, s3 >= 0.0),
        CertCondition("coercivity", s4, s4 >= 0.0),
    )


def window_edges(
    params: DampingParams, beta: BetaFamily, alpha: AlphaFamily, T: float
) -> tuple[float, float]:
    """Raw (lambda_lo, lambda_hi) edges; they cross when the window is empty."""
    a, b = params.a, params.b
    if a <= 0.0:
        raise ConfigError(f"damping a must be positive, got {a}")
    if b < 0.0:
        raise ConfigError(f"damping b must be nonnegative, got {b}")
    lo = lambda_floor(beta, params.rho, T)

    if b > 0.0:
        hi = min(0.9 * math.sqrt(b), _cross_term_root(a, b))

        def ok(lam: float) -> bool:
            return all(c.satisfied for c in _standard_conditions(params, lam))

    else:
        omega = _omega_star(alpha, T)
        hi = min(a / (3.0 + a * a * omega * omega), 0.9 / omega)

        def ok(lam: float) -> bool:
            return all(c.satisfied for c in _remark1_conditions(params, omega, lam))

    # an exact edge can miss its own inequality by a rounding error
    step = math.ulp(hi)
    while not ok(hi):
        hi -= step
        step *= 2.0
    return (lo, hi)


def lambda_window(
    params: DampingParams, beta: BetaFamily, alpha: AlphaFamily, T: float
) -> Optional[tuple[float, float]]:
    """Admissible rate window [lambda_lo, lambda_hi], or None when empty."""
    lo, hi = window_edges(params, beta, alpha, T)
    if lo > hi:
        return None
    return (lo, hi)


# ---------------------------------------------------------------------------
# constant and certificate


def constant_C(params: DampingParams, lam: float) -> float:
    """Equivalence constant (1 + lambda/sqrt(b))/(1 - lambda/sqrt(b)) for b > 0."""
    if params.b <= 0.0:
        raise ConfigError("constant_C requires b > 0; the b = 0 branch builds its own constant")
    ratio = lam / math.sqrt(params.b)
    if ratio >= 1.0:
        raise ConfigError(f"lambda = {lam:g} is not below sqrt(b) = {math.sqrt(params.b):g}")
    return (1.0 + ratio) / (1.0 - ratio)


def build_certificate(
    params: DampingParams,
    beta: BetaFamily,
    alpha: AlphaFamily,
    T: float,
    lam: Optional[float] = None,
    edges: Optional[tuple[float, float]] = None,
) -> Optional[DecayCertificate]:
    """Assemble the decay certificate, or None when the window is empty.

    lam defaults to lambda_hi, the fastest certifiable rate; any requested
    lam outside the window is a config error. edges are the window_edges of
    the same arguments when the caller already has them.
    """
    lo, hi = window_edges(params, beta, alpha, T) if edges is None else edges
    if lo > hi:
        return None
    chosen = hi if lam is None else float(lam)
    if chosen < lo or chosen > hi:
        raise ConfigError(f"lambda = {chosen:g} outside the certified window [{lo:g}, {hi:g}]")

    growth_slack = chosen - lo
    growth = CertCondition("beta_growth", growth_slack, growth_slack >= 0.0)
    if params.b > 0.0:
        branch = "standard"
        conditions = (growth,) + _standard_conditions(params, chosen)
        C = constant_C(params, chosen)
    else:
        branch = "remark1"
        omega = _omega_star(alpha, T)
        conditions = (growth,) + _remark1_conditions(params, omega, chosen)
        ratio = chosen * omega
        C = (1.0 + ratio) / (1.0 - ratio)
    return DecayCertificate(
        branch=branch,
        lambda_lo=lo,
        lambda_hi=hi,
        lam=chosen,
        C=C,
        conditions=conditions,
    )


# ---------------------------------------------------------------------------
# measurement


def fit_decay(series, floor_factor: float = 1e-12) -> EmpiricalDecay:
    """Least-squares log-linear fit of the energy series.

    Uses only samples with E > floor_factor * E(0); needs at least 10 such
    samples. lambda_fit = -slope, C_fit = exp(intercept)/E(0).
    """
    t = np.asarray(series.t, dtype=float)
    E = np.asarray(series.E, dtype=float)
    e0 = float(E[0])
    if e0 <= 0.0:
        raise DegenerateDataError("fit_decay: E(0) = 0, nothing to fit")
    keep = E > floor_factor * e0
    if int(keep.sum()) < 10:
        raise DegenerateDataError(
            f"fit_decay: only {int(keep.sum())} samples above the floor, need 10"
        )
    tt = t[keep]
    logE = np.log(E[keep])
    slope, intercept = np.polyfit(tt, logE, 1)
    fitted = slope * tt + intercept
    ss_res = float(np.sum((logE - fitted) ** 2))
    ss_tot = float(np.sum((logE - logE.mean()) ** 2))
    # a flat series leaves ss_tot at round-off scale, not exactly zero
    tiny = 64.0 * (np.finfo(float).eps * max(1.0, float(np.abs(logE).max()))) ** 2 * logE.size
    r2 = 1.0 if ss_tot <= tiny else 1.0 - ss_res / ss_tot
    return EmpiricalDecay(
        lambda_fit=float(-slope),
        C_fit=float(math.exp(intercept) / e0),
        r_squared=float(r2),
        window=(float(tt[0]), float(tt[-1])),
    )


def check_decay_bound(
    series,
    cert: DecayCertificate,
    dt: float = 0.0,
    rate_residual: float = 0.0,
) -> BoundReport:
    """Check E(t_k) <= C E(0) exp(-lambda t_k) (1 + tol) on every sample.

    tol = 1e-6 plus the discretization allowance 10 dt^2 scaled by the
    measured energy-rate residual. worst_margin is the largest ratio of
    sample to bound (0 for the zero solution).
    """
    t = np.asarray(series.t, dtype=float)
    E = np.asarray(series.E, dtype=float)
    e0 = float(E[0])
    tol = 1e-6 + 10.0 * dt * dt * rate_residual
    if e0 == 0.0:
        # zero solution: bound degenerates to E <= 0
        holds = bool(np.all(E <= 0.0))
        first = None if holds else float(t[np.argmax(E > 0.0)])
        return BoundReport(holds=holds, worst_margin=0.0, first_violation=first, tol=tol)
    bound = cert.bound_values(t, e0)
    ratio = E / bound
    worst = float(ratio.max())
    violations = ratio > 1.0 + tol
    if bool(violations.any()):
        first = float(t[int(np.argmax(violations))])
        return BoundReport(holds=False, worst_margin=worst, first_violation=first, tol=tol)
    return BoundReport(holds=True, worst_margin=worst, first_violation=None, tol=tol)
