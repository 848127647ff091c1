"""Problem definitions for damped nonlinear waves on expanding intervals.

The continuous model is

    u_tt - u_xx + a u_t + b u + beta(t) |u|^rho u = f

posed on the moving interval 0 < x < alpha(t) with homogeneous Dirichlet
boundary values, alpha(0) = 1, and prescribed initial data u(x,0) = u0,
u_t(x,0) = u1. This module holds the parameter families (damping constants,
growth weights beta, expansion laws alpha, initial data shapes), the
admissibility checks, and the strict JSON config parser used by the CLI.

Each family is one frozen dataclass, and that class is its only definition:

  - @config_section gives it its config section and, for the beta, alpha
    and init families, its variant name, under which it enters FAMILIES,
    the {section: {variant: class}} registry;
  - its dataclass fields are its config keys, and a field without a default
    is a required key. The shared __post_init__ checks every field by its
    annotation (float: a finite number, int: an integer, tuple: a list of
    finite numbers); the class adds its own range checks;
  - check() is its admissibility check, one AssumptionCheck;
  - eval(t) of a beta or alpha family is its one formula, written with
    numpy ufuncs: t is a float or an array of times, and each value it
    returns broadcasts against t (a value constant in t is a float);
    on_times turns them into arrays of the shape of the times;
  - a beta family also carries sup_ratio(T) = sup beta'/beta on [0, T], the
    numerator of the certificate's lambda_lo, and check_range(T), the check
    that beta(T) is positive and beta(T), beta'(T) finite doubles; an alpha
    family carries sup_prime() and max_length(T).

spec_from_dict and spec_to_dict walk FAMILIES and the fields, so a new
family is one new class and nothing else.

Families are closed-form by construction, so suprema such as sup alpha'
and sup beta'/beta are exact and every config serializes losslessly.
Arbitrary callables are deliberately not accepted; GridSamples is the only
escape hatch, and only for initial data.

Admissibility, checked by validate_assumptions:

  A1: alpha(0) = 1, alpha' >= 0, and sup alpha'(t) < 1 on [0, T]
      (the moving boundary stays strictly subcharacteristic);
  A2: beta(t) > 0 and beta'(t) >= 0 for all t >= 0;
  A3: rho > 0 (one space dimension imposes no upper bound).

plus structural checks on the damping constants, the initial data, and the
horizon.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigError, UnsupportedConfigError


def _finite(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an int beyond the range of doubles
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{where}: must be finite, got {out!r}")
    return out


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _numbers(values, where: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ConfigError(f"{where}: expected a list")
    return tuple(_finite(v, where) for v in values)


# field annotation -> its check; a field of any other type is an error at import
_FIELD_CHECKS = {"float": _finite, "int": _integer, "tuple[float, ...]": _numbers}

# section -> {variant: family class}, filled by @config_section in definition order
FAMILIES: dict[str, dict[str, type]] = {"beta": {}, "alpha": {}, "init": {}}


def config_section(section: str, variant: str | None = None):
    """Class decorator: a parameter dataclass of config section `section`.

    Records the section, the variant and the class's field table (config
    keys, required keys, and each field's check) once, and enters a class
    with a variant in FAMILIES.
    """

    def register(cls):
        table = fields(cls)
        cls.section, cls.variant = section, variant
        cls._checks = tuple((f.name, f"{section}.{f.name}", _FIELD_CHECKS[f.type]) for f in table)
        tag = set() if variant is None else {"variant"}
        cls._allowed = tag | {f.name for f in table}
        cls._required = tag | {f.name for f in table if f.default is MISSING}
        if variant is not None:
            FAMILIES[section][variant] = cls
        return cls

    return register


class _Params:
    """Base of the parameter dataclasses: checks every field by its annotation.

    @config_section sets the class attributes below.
    """

    section: str
    variant: str | None
    _checks: tuple  # (field, "section.field", check) for each field
    _allowed: set  # the config keys
    _required: set  # the config keys without a default

    def __post_init__(self):
        for name, where, check in self._checks:
            object.__setattr__(self, name, check(getattr(self, name), where))


@config_section("damping")
@dataclass(frozen=True)
class DampingParams(_Params):
    """Constant coefficients of the equation: a u_t + b u + beta|u|^rho u."""

    a: float
    b: float
    rho: float


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# beta families

_LOG_MAX = math.log(sys.float_info.max)


def on_times(values, times) -> np.ndarray:
    """The values of a family's eval(times), one read-only row each, of the shape of times."""
    out = np.empty((len(values), *np.shape(times)))
    for row, value in zip(out, values):
        row[...] = value
    out.setflags(write=False)
    return out


class BetaFamily(_Params):
    """The weight beta(t) of the nonlinear term; eval(t) = (beta(t), beta'(t))."""

    def check_range(self, T: float) -> AssumptionCheck:
        """beta(T) must be positive and beta(T), beta'(T) finite doubles; under (A2) beta(T) bounds beta on
        [0, T], and beta'(T) bounds beta' there when beta' does not decrease, as with nonnegative coefficients."""
        val, der = self.eval(T)
        detail = f"beta(T) = {val:.6g}, beta'(T) = {der:.6g} at T = {T:g}"
        if not (math.isfinite(val) and math.isfinite(der)):
            return AssumptionCheck("beta(T)", False, detail + " are not finite doubles")
        if val <= 0.0:
            return AssumptionCheck("beta(T)", False, detail + ": beta(T) is not positive")
        return AssumptionCheck("beta(T)", True, detail)


@config_section("beta", "constant")
@dataclass(frozen=True)
class ConstantBeta(BetaFamily):
    """beta(t) = c."""

    c: float = 1.0

    def eval(self, t):
        return self.c, 0.0

    def sup_ratio(self, T: float) -> float:
        return 0.0

    def check(self) -> AssumptionCheck:
        if self.c <= 0.0:
            return AssumptionCheck("A2", False, f"ConstantBeta: beta = {self.c} must be positive")
        return AssumptionCheck("A2", True, f"ConstantBeta: beta = {self.c:g} > 0, beta' = 0")


@config_section("beta", "exponential")
@dataclass(frozen=True)
class ExponentialBeta(BetaFamily):
    """beta(t) = beta0 * exp(mu t)."""

    beta0: float = 1.0
    mu: float = 0.0

    def eval(self, t):
        val = self.beta0 * np.exp(self.mu * t)
        return val, self.mu * val

    def sup_ratio(self, T: float) -> float:
        return self.mu

    def check(self) -> AssumptionCheck:
        name = "ExponentialBeta"
        if self.beta0 <= 0.0:
            return AssumptionCheck("A2", False, f"{name}: beta0 = {self.beta0} must be positive")
        if self.mu < 0.0:
            return AssumptionCheck("A2", False, f"{name}: mu = {self.mu} < 0 makes beta decreasing")
        return AssumptionCheck("A2", True, f"{name}: beta0 = {self.beta0:g} > 0, mu = {self.mu:g} >= 0")

    def check_range(self, T: float) -> AssumptionCheck:
        # in logs, so that the check cannot overflow; eval forms exp(mu T) first
        log_val = self.mu * T + (math.log(self.beta0) if self.beta0 > 0.0 else 0.0)
        log_der = log_val + (math.log(self.mu) if self.mu > 0.0 else -math.inf)
        if max(self.mu * T, log_val, log_der) >= _LOG_MAX:
            logs = f"mu T = {self.mu * T:.6g}, log beta(T) = {log_val:.6g}, log beta'(T) = {log_der:.6g}"
            return AssumptionCheck("beta(T)", False, f"{logs}; the largest double is e^{_LOG_MAX:.6g}")
        return super().check_range(T)


@config_section("beta", "polynomial")
@dataclass(frozen=True)
class PolynomialBeta(BetaFamily):
    """beta(t) = coeffs[0] + coeffs[1] t + ... (ascending powers)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        if not self.coeffs:
            raise ConfigError("beta.coeffs: must contain at least one coefficient")

    def eval(self, t):
        # Horner for the value and the derivative in one sweep.
        val = 0.0
        der = 0.0
        for c in reversed(self.coeffs):
            der = der * t + val
            val = val * t + c
        return val, der

    @property
    def degree(self) -> int:
        """The degree of beta: the highest power with a nonzero coefficient (0 for a constant)."""
        return max((k for k, c in enumerate(self.coeffs) if c != 0.0), default=0)

    def sup_ratio(self, T: float) -> float:
        """sup of beta'/beta on [0, T].

        Raises UnsupportedConfigError when the degree is past _DEGREE, which
        (A2) rejects too, or when the numerator whose roots are sought
        overflows a double.
        """
        if self.degree > _DEGREE:
            raise UnsupportedConfigError(
                f"certificate: polynomial beta of degree {self.degree}; "
                f"lambda_lo is computed only up to degree {_DEGREE}"
            )
        # (beta'/beta)' = (beta'' beta - beta'^2) / beta^2, so the supremum sits
        # at t = 0, at t = T, or at a root of the numerator. The roots are taken
        # in s = t/T (s = t on an unbounded horizon). Leading numerator
        # coefficients below sqrt(eps) of the largest are zeroed: they move a
        # root in [0, 1] by O(sqrt(eps)), hence beta'/beta, stationary there,
        # by O(eps), and their own roots far outside [0, 1] would swamp
        # np.roots. Clipping every root into [0, 1] only adds candidates, and
        # no candidate can exceed the supremum.
        scale = T if math.isfinite(T) else 1.0
        c = (np.asarray(self.coeffs) * scale ** np.arange(len(self.coeffs)))[::-1]
        d1 = np.polyder(c)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            num = np.polysub(np.polymul(np.polyder(d1), c), np.polymul(d1, d1))
        if not np.isfinite(num).all():
            raise UnsupportedConfigError(
                "certificate: beta'' beta - beta'^2 of the polynomial beta overflows a double "
                "on [0, T], so lambda_lo cannot be computed; scale the coefficients down"
            )
        num = num / (np.abs(num).max() or 1.0)
        num[: np.argmax(np.abs(num) > math.sqrt(np.finfo(float).eps))] = 0.0
        roots = scale * np.clip(np.roots(num).real, 0.0, T / scale)
        ends = [0.0, T] if math.isfinite(T) else [0.0]
        return max(der / val for val, der in map(self.eval, [*ends, *roots.tolist()]))

    def check(self) -> AssumptionCheck:
        name = "PolynomialBeta"
        if self.coeffs[0] <= 0.0:
            return AssumptionCheck(
                "A2", False, f"{name}: constant coefficient {self.coeffs[0]} must be positive"
            )
        if self.degree > _DEGREE:
            return AssumptionCheck(
                "A2", False, f"{name}: degree {self.degree}; beta is admitted only up to degree {_DEGREE}"
            )
        if all(c >= 0.0 for c in self.coeffs):
            return AssumptionCheck("A2", True, f"{name}: all coefficients >= 0, constant term > 0")
        d = np.trim_zeros(np.polyder(np.array(self.coeffs[::-1])), "f")  # beta', descending powers
        if np.abs(d).max() > _SPAN * abs(d[0]):
            return AssumptionCheck(
                "A2", False, f"{name}: the coefficients of beta' span more than {_SPAN:g}, too far apart to find its roots"
            )
        t = _negative_at(d)
        if t is not None:
            return AssumptionCheck("A2", False, f"{name}: beta' < 0 at t = {t!r}")  # repr: the t where it is
        return AssumptionCheck(
            "A2", True, f"{name}: beta' >= 0 at t = 0, across its real roots and for large t, constant term > 0"
        )


_SPAN = 1e300  # the largest |d_k / d_0| _negative_at takes: its roots and its probes then stay finite
_DEGREE = 16  # the highest degree of beta: _negative_at finds O(degree^2) sets of roots, sup_ratio 2 degree - 2 roots


def _negative_at(d: np.ndarray) -> float | None:
    """A t >= 0 where the polynomial p with descending coefficients d is
    negative, or None when p >= 0 on [0, inf); d[0] != 0 and |d_k / d_0| <= _SPAN.

    p goes negative exactly when p(0) < 0, when it changes sign at a real
    root in (0, inf), or when it leads negative. So p is read at half its
    first positive real root and midway between consecutive ones, as
    p(t) / max(1, t)^n, which does not overflow. np.roots (as in sup_ratio)
    finds a root only to within eps times the largest, so roots of very
    different sizes are taken from every run d[i:j] of coefficients too
    (whose span is at most _SPAN): where the others are negligible, p's
    roots are that run's. Extra points only add readings. A double root
    can come out as two nearby roots, midway between which p is rounding:
    a value within the rounding bound of Horner's scheme is not negative.
    Past 4 max_k |d_k / d_0|^(1/k), twice a bound on every root, the
    leading term outweighs the others three to one.
    """
    if d[-1] < 0.0:
        return 0.0
    n = d.size
    runs = (d[i:j] for i in range(n) for j in range(i + 2, n + 1))  # d itself among them
    roots = np.concatenate([np.roots(run) for run in runs if np.abs(run).max() <= _SPAN * abs(run[0])])
    ends = np.unique(roots.real[(roots.imag == 0.0) & (roots.real > 0.0)])
    rounding = 4 * n * sys.float_info.epsilon
    for t in (0.5 * np.concatenate(([0.0], ends[:-1])) + 0.5 * ends).tolist():
        c, x = (d, t) if t <= 1.0 else (d[::-1], 1.0 / t)
        if np.polyval(c, x) < -rounding * np.polyval(np.abs(c), x):
            return t
    if d[0] < 0.0:
        return float(4.0 * max(abs(dk / d[0]) ** (1.0 / k) for k, dk in enumerate(d[1:], 1))) or 1.0
    return None


# ---------------------------------------------------------------------------
# alpha families


class AlphaFamily(_Params):
    """The domain length alpha(t); eval(t) = (alpha, alpha', alpha'')."""

    def max_length(self, T: float) -> float:
        """alpha(T), the largest domain length on [0, T]; its limit on an unbounded horizon.

        A float: the certificate's JSON takes its conditions from it."""
        return float(self.eval(T)[0])

    def _check_sup(self, sup: float, shown: str) -> AssumptionCheck:
        name = type(self).__name__
        if sup >= 1.0:
            return AssumptionCheck("A1", False, f"{name}: requires sup α'(t)<1, got sup alpha' = {shown}")
        return AssumptionCheck("A1", True, f"{name}: alpha(0)=1, sup alpha' = {sup:g} < 1")


@config_section("alpha", "constant")
@dataclass(frozen=True)
class ConstantAlpha(AlphaFamily):
    """alpha(t) = 1, the cylindrical baseline."""

    def eval(self, t):
        return 1.0, 0.0, 0.0

    def sup_prime(self) -> float:
        return 0.0

    def check(self) -> AssumptionCheck:
        return AssumptionCheck("A1", True, "alpha = 1 (cylindrical), sup alpha' = 0")


@config_section("alpha", "affine")
@dataclass(frozen=True)
class AffineAlpha(AlphaFamily):
    """alpha(t) = 1 + k t."""

    k: float

    def eval(self, t):
        return 1.0 + self.k * t, self.k, 0.0

    def sup_prime(self) -> float:
        return self.k

    def max_length(self, T: float) -> float:
        # 1 + k T, infinite on an unbounded horizon unless k = 0 (where 0 * inf is nan)
        return 1.0 + self.k * T if self.k else 1.0

    def check(self) -> AssumptionCheck:
        if self.k < 0.0:
            return AssumptionCheck(
                "A1", False, f"AffineAlpha: alpha' = {self.k} < 0, domain must be expanding"
            )
        return self._check_sup(self.k, f"{self.k:g}")


@config_section("alpha", "saturating")
@dataclass(frozen=True)
class SaturatingAlpha(AlphaFamily):
    """alpha(t) = 1 + k (1 - exp(-t/tau)), expanding toward 1 + k."""

    k: float
    tau: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.tau <= 0.0:
            raise ConfigError(f"alpha.tau: must be positive, got {self.tau}")

    def eval(self, t):
        decay = np.exp(-t / self.tau)
        val = 1.0 + self.k * (1.0 - decay)
        der = (self.k / self.tau) * decay
        return val, der, -der / self.tau

    def sup_prime(self) -> float:
        # alpha' is monotone in t; the supremum on [0, inf) sits at t = 0.
        return max(self.k / self.tau, 0.0)

    def check(self) -> AssumptionCheck:
        if self.k < 0.0:
            return AssumptionCheck(
                "A1", False, f"SaturatingAlpha: k = {self.k} < 0, domain must be expanding"
            )
        sup = self.k / self.tau
        return self._check_sup(sup, f"k/tau = {sup:g}")


# ---------------------------------------------------------------------------
# initial data


class InitialData(_Params):
    """u0 and u1 on the reference interval; sample(y) = (u0, u1) at the nodes y."""


@config_section("init", "sine")
@dataclass(frozen=True)
class SineMode(InitialData):
    """u0 = amp_u0 sin(m pi y), u1 = amp_u1 sin(m pi y) on the reference interval."""

    m: int = 1
    amp_u0: float = 1.0
    amp_u1: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.m < 1:
            raise ConfigError(f"init.m: mode number must be >= 1, got {self.m}")

    def sample(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shape = np.sin(self.m * np.pi * y)
        return self.amp_u0 * shape, self.amp_u1 * shape

    def check(self) -> AssumptionCheck:
        return AssumptionCheck("init", True, f"SineMode m={self.m} vanishes at both endpoints")


@config_section("init", "bump")
@dataclass(frozen=True)
class Bump(InitialData):
    """Compactly supported C-infinity bump, zero velocity.

    u0(y) = amp * exp(1 - 1/(1 - s^2)) with s = (y - center)/width inside
    |s| < 1, zero outside. Support must stay inside [0, 1] so the Dirichlet
    compatibility at the endpoints is automatic.
    """

    center: float = 0.5
    width: float = 0.25
    amp: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.width <= 0.0:
            raise ConfigError(f"init.width: must be positive, got {self.width}")

    def sample(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = y - self.center
        inside = np.abs(d) < self.width  # |s| < 1, without dividing by a subnormal width
        s = d[inside] / self.width
        u0 = np.zeros_like(y)
        u0[inside] = self.amp * np.exp(1.0 - 1.0 / (1.0 - s**2))
        return u0, np.zeros_like(y)

    def check(self) -> AssumptionCheck:
        lo, hi = self.center - self.width, self.center + self.width
        if lo < 0.0 or hi > 1.0:
            return AssumptionCheck(
                "init", False, f"Bump support [{lo:g}, {hi:g}] leaves [0,1]; Dirichlet compatibility fails"
            )
        return AssumptionCheck("init", True, f"Bump supported in [{lo:g}, {hi:g}]")


@config_section("init", "samples")
@dataclass(frozen=True)
class GridSamples(InitialData):
    """Raw nodal values of u0 and u1; lengths must match the grid (N+1)."""

    u0: tuple[float, ...]
    u1: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.u0) != len(self.u1):
            raise ConfigError(
                f"init: u0 and u1 lengths differ ({len(self.u0)} vs {len(self.u1)})"
            )
        if len(self.u0) < 2:
            raise ConfigError("init: need at least two sample values")

    def sample(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self.u0) != y.size:
            raise ConfigError(
                f"init: {len(self.u0)} samples do not fit a grid of {y.size} nodes"
            )
        return np.asarray(self.u0, dtype=float), np.asarray(self.u1, dtype=float)

    def check(self) -> AssumptionCheck:
        scale = max(1.0, max(abs(v) for v in self.u0 + self.u1))
        worst = max(abs(v) for v in (self.u0[0], self.u0[-1], self.u1[0], self.u1[-1]))
        if worst > 1e-12 * scale:
            return AssumptionCheck(
                "init", False, f"GridSamples endpoint values must vanish, worst |value| = {worst:g}"
            )
        return AssumptionCheck("init", True, "GridSamples endpoints vanish")


# ---------------------------------------------------------------------------
# manufactured forcing descriptor


@config_section("manufactured")
@dataclass(frozen=True)
class ManufacturedField(_Params):
    """Descriptor of the exact field u(x,t) = amp sin(mode pi x / alpha(t)) e^(-rate t).

    The field vanishes on both boundaries of the moving interval for every t,
    so it is an admissible exact solution of the forced equation once the
    matching source term is added (see solver.manufactured_forcing).
    """

    amp: float = 1.0
    rate: float = 1.0
    mode: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.mode < 1:
            raise ConfigError(f"manufactured.mode: must be >= 1, got {self.mode}")


# ---------------------------------------------------------------------------
# the aggregate problem spec


@dataclass(frozen=True)
class ProblemSpec:
    """Everything a run needs: coefficients, domain motion, data, horizon.

    linear_mode disables the nonlinear term entirely (beta treated as zero).
    It exists as a test-oracle channel for closed-form modal solutions and is
    outside the standing assumptions (A2 requires beta > 0); validate_assumptions
    flags it as such but does not fail it.
    """

    damping: DampingParams
    beta: BetaFamily
    alpha: AlphaFamily
    init: InitialData
    horizon: float
    source: ManufacturedField | None = None
    linear_mode: bool = False

    def __post_init__(self):
        object.__setattr__(self, "horizon", _finite(self.horizon, "horizon"))

    def beta_at(self, t):
        """(beta(t), beta'(t)) as the solver sees it, at a float or an array of times: zero in linear_mode."""
        if self.linear_mode:
            return 0.0, 0.0
        return self.beta.eval(t)


# ---------------------------------------------------------------------------
# admissibility checks


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[AssumptionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: {c.detail}")
        return "\n".join(lines)


_LINEAR_MODE_A2 = AssumptionCheck(
    "A2", True, "linear_mode: beta disabled (test oracle, outside the standing assumptions)"
)


def validate_assumptions(spec: ProblemSpec) -> ValidationReport:
    """Check (A1), (A2), (A3) plus the structural requirements of a run."""
    checks = [
        spec.alpha.check(),
        _LINEAR_MODE_A2 if spec.linear_mode else spec.beta.check(),
        spec.beta.check_range(spec.horizon),
    ]

    rho = spec.damping.rho
    if rho > 0.0:
        checks.append(AssumptionCheck("A3", True, f"rho = {rho:g} > 0 (n = 1, no upper bound)"))
    else:
        checks.append(AssumptionCheck("A3", False, f"rho = {rho:g} must be positive"))

    a, b = spec.damping.a, spec.damping.b
    if a <= 0.0:
        checks.append(AssumptionCheck("damping", False, f"a = {a:g} must be positive"))
    elif b < 0.0:
        checks.append(AssumptionCheck("damping", False, f"b = {b:g} must be nonnegative"))
    else:
        note = "b = 0 selects the Poincare branch of the certificate" if b == 0.0 else f"b = {b:g}"
        checks.append(AssumptionCheck("damping", True, f"a = {a:g} > 0, {note}"))

    checks.append(spec.init.check())

    if spec.horizon > 0.0:
        checks.append(AssumptionCheck("horizon", True, f"T = {spec.horizon:g}"))
    else:
        checks.append(AssumptionCheck("horizon", False, f"T = {spec.horizon:g} must be positive"))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# strict JSON config layer


def _take(section, allowed, required, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {type(section).__name__}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(section))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return section


def _from_section(cls, section):
    """An instance of cls from its config section: its fields, plus the variant tag."""
    sec = _take(section, cls._allowed, cls._required, cls.section)
    return cls(**{key: value for key, value in sec.items() if key != "variant"})


def _family_from(name: str, section):
    """The family of section `name` that the section's variant names."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object, got {type(section).__name__}")
    options = FAMILIES[name]
    variant = section.get("variant")
    if not isinstance(variant, str) or variant not in options:
        raise ConfigError(f"{name}.variant: expected one of {list(options)}, got {variant!r}")
    return _from_section(options[variant], section)


def _to_section(obj) -> dict:
    """The config section of a parameter object, the inverse of _from_section."""
    out = {} if obj.variant is None else {"variant": obj.variant}
    for name, _, check in obj._checks:
        value = getattr(obj, name)
        out[name] = list(value) if check is _numbers else value
    return out


def spec_from_dict(cfg: dict) -> ProblemSpec:
    """Build a ProblemSpec from a parsed JSON object. Unknown keys rejected."""
    top = _take(
        cfg,
        {"damping", *FAMILIES, "horizon", "manufactured"},
        {"damping", *FAMILIES, "horizon"},
        "config",
    )
    return ProblemSpec(
        damping=_from_section(DampingParams, top["damping"]),
        **{name: _family_from(name, top[name]) for name in FAMILIES},
        horizon=top["horizon"],
        source=_from_section(ManufacturedField, top["manufactured"]) if "manufactured" in top else None,
    )


def spec_to_dict(spec: ProblemSpec) -> dict:
    """Canonical JSON-ready echo of a spec (inverse of spec_from_dict)."""
    out = {"damping": _to_section(spec.damping), "horizon": spec.horizon}
    out.update((name, _to_section(getattr(spec, name))) for name in FAMILIES)
    if spec.source is not None:
        out["manufactured"] = _to_section(spec.source)
    return out


def load_config(path) -> ProblemSpec:
    """Read and parse a JSON config file into a validated-shape ProblemSpec."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be a JSON object")
    return spec_from_dict(cfg)
