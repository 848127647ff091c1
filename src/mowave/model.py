"""Problem definitions for damped nonlinear waves on expanding intervals.

The continuous model is

    u_tt - u_xx + a u_t + b u + beta(t) |u|^rho u = f

posed on the moving interval 0 < x < alpha(t) with homogeneous Dirichlet
boundary values, alpha(0) = 1, and prescribed initial data u(x,0) = u0,
u_t(x,0) = u1. This module holds the parameter families (damping constants,
growth weights beta, expansion laws alpha, initial data shapes), the
admissibility checks, and the strict JSON config parser used by the CLI.

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
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError


def _finite(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{where}: must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class DampingParams:
    """Constant coefficients of the equation: a u_t + b u + beta|u|^rho u."""

    a: float
    b: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "a", _finite(self.a, "damping.a"))
        object.__setattr__(self, "b", _finite(self.b, "damping.b"))
        object.__setattr__(self, "rho", _finite(self.rho, "damping.rho"))


# ---------------------------------------------------------------------------
# beta families


@dataclass(frozen=True)
class ConstantBeta:
    """beta(t) = c."""

    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", _finite(self.c, "beta.c"))

    def eval(self, t: float) -> tuple[float, float]:
        return self.c, 0.0


@dataclass(frozen=True)
class ExponentialBeta:
    """beta(t) = beta0 * exp(mu t)."""

    beta0: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta0", _finite(self.beta0, "beta.beta0"))
        object.__setattr__(self, "mu", _finite(self.mu, "beta.mu"))

    def eval(self, t: float) -> tuple[float, float]:
        val = self.beta0 * math.exp(self.mu * t)
        return val, self.mu * val


@dataclass(frozen=True)
class PolynomialBeta:
    """beta(t) = coeffs[0] + coeffs[1] t + ... (ascending powers)."""

    coeffs: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not self.coeffs:
            raise ConfigError("beta.coeffs: must contain at least one coefficient")
        vals = tuple(_finite(c, "beta.coeffs") for c in self.coeffs)
        object.__setattr__(self, "coeffs", vals)

    def eval(self, t: float) -> tuple[float, float]:
        # Horner for the value and the derivative in one sweep.
        val = 0.0
        der = 0.0
        for c in reversed(self.coeffs):
            der = der * t + val
            val = val * t + c
        return val, der


BetaFamily = Union[ConstantBeta, ExponentialBeta, PolynomialBeta]


# ---------------------------------------------------------------------------
# alpha families


@dataclass(frozen=True)
class ConstantAlpha:
    """alpha(t) = 1, the cylindrical baseline."""

    def eval(self, t: float) -> tuple[float, float, float]:
        return 1.0, 0.0, 0.0

    def sup_prime(self) -> float:
        return 0.0


@dataclass(frozen=True)
class AffineAlpha:
    """alpha(t) = 1 + k t."""

    k: float

    def __post_init__(self):
        object.__setattr__(self, "k", _finite(self.k, "alpha.k"))

    def eval(self, t: float) -> tuple[float, float, float]:
        return 1.0 + self.k * t, self.k, 0.0

    def sup_prime(self) -> float:
        return self.k


@dataclass(frozen=True)
class SaturatingAlpha:
    """alpha(t) = 1 + k (1 - exp(-t/tau)), expanding toward 1 + k."""

    k: float
    tau: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "k", _finite(self.k, "alpha.k"))
        object.__setattr__(self, "tau", _finite(self.tau, "alpha.tau"))
        if self.tau <= 0.0:
            raise ConfigError(f"alpha.tau: must be positive, got {self.tau}")

    def eval(self, t: float) -> tuple[float, float, float]:
        decay = math.exp(-t / self.tau)
        val = 1.0 + self.k * (1.0 - decay)
        der = (self.k / self.tau) * decay
        return val, der, -der / self.tau

    def sup_prime(self) -> float:
        # alpha' is monotone in t; the supremum on [0, inf) sits at t = 0.
        return max(self.k / self.tau, 0.0)


AlphaFamily = Union[ConstantAlpha, AffineAlpha, SaturatingAlpha]


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class SineMode:
    """u0 = amp_u0 sin(m pi y), u1 = amp_u1 sin(m pi y) on the reference interval."""

    m: int = 1
    amp_u0: float = 1.0
    amp_u1: float = 0.0

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ConfigError(f"init.m: expected an integer, got {self.m!r}")
        if self.m < 1:
            raise ConfigError(f"init.m: mode number must be >= 1, got {self.m}")
        object.__setattr__(self, "amp_u0", _finite(self.amp_u0, "init.amp_u0"))
        object.__setattr__(self, "amp_u1", _finite(self.amp_u1, "init.amp_u1"))

    def sample(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shape = np.sin(self.m * np.pi * y)
        return self.amp_u0 * shape, self.amp_u1 * shape


@dataclass(frozen=True)
class Bump:
    """Compactly supported C-infinity bump, zero velocity.

    u0(y) = amp * exp(1 - 1/(1 - s^2)) with s = (y - center)/width inside
    |s| < 1, zero outside. Support must stay inside [0, 1] so the Dirichlet
    compatibility at the endpoints is automatic.
    """

    center: float = 0.5
    width: float = 0.25
    amp: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", _finite(self.center, "init.center"))
        object.__setattr__(self, "width", _finite(self.width, "init.width"))
        object.__setattr__(self, "amp", _finite(self.amp, "init.amp"))
        if self.width <= 0.0:
            raise ConfigError(f"init.width: must be positive, got {self.width}")

    def sample(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = (y - self.center) / self.width
        u0 = np.zeros_like(y)
        inside = np.abs(s) < 1.0
        u0[inside] = self.amp * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return u0, np.zeros_like(y)


@dataclass(frozen=True)
class GridSamples:
    """Raw nodal values of u0 and u1; lengths must match the grid (N+1)."""

    u0: tuple[float, ...]
    u1: tuple[float, ...]

    def __post_init__(self):
        u0 = tuple(_finite(v, "init.u0") for v in self.u0)
        u1 = tuple(_finite(v, "init.u1") for v in self.u1)
        if len(u0) != len(u1):
            raise ConfigError(
                f"init: u0 and u1 lengths differ ({len(u0)} vs {len(u1)})"
            )
        if len(u0) < 2:
            raise ConfigError("init: need at least two sample values")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)

    def sample(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self.u0) != y.size:
            raise ConfigError(
                f"init: {len(self.u0)} samples do not fit a grid of {y.size} nodes"
            )
        return np.asarray(self.u0, dtype=float), np.asarray(self.u1, dtype=float)


InitialData = Union[SineMode, Bump, GridSamples]


# ---------------------------------------------------------------------------
# manufactured forcing descriptor


@dataclass(frozen=True)
class ManufacturedField:
    """Descriptor of the exact field u(x,t) = amp sin(mode pi x / alpha(t)) e^(-rate t).

    The field vanishes on both boundaries of the moving interval for every t,
    so it is an admissible exact solution of the forced equation once the
    matching source term is added (see solver.manufactured_forcing).
    """

    amp: float = 1.0
    rate: float = 1.0
    mode: int = 1

    def __post_init__(self):
        object.__setattr__(self, "amp", _finite(self.amp, "manufactured.amp"))
        object.__setattr__(self, "rate", _finite(self.rate, "manufactured.rate"))
        if isinstance(self.mode, bool) or not isinstance(self.mode, int):
            raise ConfigError(f"manufactured.mode: expected an integer, got {self.mode!r}")
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

    def beta_at(self, t: float) -> tuple[float, float]:
        """(beta(t), beta'(t)) as the solver sees it: zero in linear_mode."""
        if self.linear_mode:
            return 0.0, 0.0
        return self.beta.eval(t)


# ---------------------------------------------------------------------------
# admissibility checks


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


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


def _check_alpha(alpha: AlphaFamily) -> AssumptionCheck:
    name = type(alpha).__name__
    if isinstance(alpha, ConstantAlpha):
        return AssumptionCheck("A1", True, "alpha = 1 (cylindrical), sup alpha' = 0")
    if isinstance(alpha, AffineAlpha):
        if alpha.k < 0.0:
            return AssumptionCheck(
                "A1", False, f"{name}: alpha' = {alpha.k} < 0, domain must be expanding"
            )
        if alpha.k >= 1.0:
            return AssumptionCheck(
                "A1",
                False,
                f"{name}: requires sup α'(t)<1, got sup alpha' = {alpha.k:g}",
            )
        return AssumptionCheck("A1", True, f"{name}: alpha(0)=1, sup alpha' = {alpha.k:g} < 1")
    if isinstance(alpha, SaturatingAlpha):
        sup = alpha.k / alpha.tau
        if alpha.k < 0.0:
            return AssumptionCheck(
                "A1", False, f"{name}: k = {alpha.k} < 0, domain must be expanding"
            )
        if sup >= 1.0:
            return AssumptionCheck(
                "A1",
                False,
                f"{name}: requires sup α'(t)<1, got sup alpha' = k/tau = {sup:g}",
            )
        return AssumptionCheck("A1", True, f"{name}: alpha(0)=1, sup alpha' = {sup:g} < 1")
    return AssumptionCheck("A1", False, f"unknown alpha family {name}")


def _check_beta(beta: BetaFamily, linear_mode: bool) -> AssumptionCheck:
    if linear_mode:
        return AssumptionCheck(
            "A2", True, "linear_mode: beta disabled (test oracle, outside the standing assumptions)"
        )
    name = type(beta).__name__
    if isinstance(beta, ConstantBeta):
        if beta.c <= 0.0:
            return AssumptionCheck("A2", False, f"{name}: beta = {beta.c} must be positive")
        return AssumptionCheck("A2", True, f"{name}: beta = {beta.c:g} > 0, beta' = 0")
    if isinstance(beta, ExponentialBeta):
        if beta.beta0 <= 0.0:
            return AssumptionCheck("A2", False, f"{name}: beta0 = {beta.beta0} must be positive")
        if beta.mu < 0.0:
            return AssumptionCheck(
                "A2", False, f"{name}: mu = {beta.mu} < 0 makes beta decreasing"
            )
        return AssumptionCheck("A2", True, f"{name}: beta0 = {beta.beta0:g} > 0, mu = {beta.mu:g} >= 0")
    if isinstance(beta, PolynomialBeta):
        if beta.coeffs[0] <= 0.0:
            return AssumptionCheck(
                "A2", False, f"{name}: constant coefficient {beta.coeffs[0]} must be positive"
            )
        if any(c < 0.0 for c in beta.coeffs):
            return AssumptionCheck(
                "A2", False, f"{name}: negative coefficients break beta' >= 0 on t >= 0"
            )
        return AssumptionCheck("A2", True, f"{name}: all coefficients >= 0, constant term > 0")
    return AssumptionCheck("A2", False, f"unknown beta family {name}")


_LOG_MAX = math.log(sys.float_info.max)


def _check_beta_range(beta: BetaFamily, T: float) -> AssumptionCheck:
    """beta(T) and beta'(T) must be finite doubles; under (A2) they bound beta, beta' on [0, T]."""
    if isinstance(beta, ExponentialBeta):
        # in logs, so that the check cannot overflow; eval forms exp(mu T) first
        log_val = beta.mu * T + (math.log(beta.beta0) if beta.beta0 > 0.0 else 0.0)
        log_der = log_val + (math.log(beta.mu) if beta.mu > 0.0 else -math.inf)
        if max(beta.mu * T, log_val, log_der) >= _LOG_MAX:
            logs = f"mu T = {beta.mu * T:.6g}, log beta(T) = {log_val:.6g}, log beta'(T) = {log_der:.6g}"
            return AssumptionCheck("beta(T)", False, f"{logs}; the largest double is e^{_LOG_MAX:.6g}")
    val, der = beta.eval(T)
    ok = math.isfinite(val) and math.isfinite(der)
    detail = f"beta(T) = {val:.6g}, beta'(T) = {der:.6g} at T = {T:g}"
    return AssumptionCheck("beta(T)", ok, detail if ok else detail + " are not finite doubles")


def _check_init(init: InitialData) -> AssumptionCheck:
    if isinstance(init, SineMode):
        return AssumptionCheck("init", True, f"SineMode m={init.m} vanishes at both endpoints")
    if isinstance(init, Bump):
        lo = init.center - init.width
        hi = init.center + init.width
        if lo < 0.0 or hi > 1.0:
            return AssumptionCheck(
                "init",
                False,
                f"Bump support [{lo:g}, {hi:g}] leaves [0,1]; Dirichlet compatibility fails",
            )
        return AssumptionCheck("init", True, f"Bump supported in [{lo:g}, {hi:g}]")
    if isinstance(init, GridSamples):
        scale = max(1.0, max(abs(v) for v in init.u0 + init.u1))
        ends = (init.u0[0], init.u0[-1], init.u1[0], init.u1[-1])
        worst = max(abs(v) for v in ends)
        if worst > 1e-12 * scale:
            return AssumptionCheck(
                "init", False, f"GridSamples endpoint values must vanish, worst |value| = {worst:g}"
            )
        return AssumptionCheck("init", True, "GridSamples endpoints vanish")
    return AssumptionCheck("init", False, f"unknown initial data {type(init).__name__}")


def validate_assumptions(spec: ProblemSpec) -> ValidationReport:
    """Check (A1), (A2), (A3) plus the structural requirements of a run."""
    checks = [
        _check_alpha(spec.alpha),
        _check_beta(spec.beta, spec.linear_mode),
        _check_beta_range(spec.beta, spec.horizon),
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

    checks.append(_check_init(spec.init))

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


def _parse_beta(section) -> BetaFamily:
    variant = _variant(section, "beta", ("constant", "exponential", "polynomial"))
    if variant == "constant":
        sec = _take(section, {"variant", "c"}, {"variant"}, "beta")
        return ConstantBeta(c=sec.get("c", 1.0))
    if variant == "exponential":
        sec = _take(section, {"variant", "beta0", "mu"}, {"variant"}, "beta")
        return ExponentialBeta(beta0=sec.get("beta0", 1.0), mu=sec.get("mu", 0.0))
    sec = _take(section, {"variant", "coeffs"}, {"variant", "coeffs"}, "beta")
    coeffs = sec["coeffs"]
    if not isinstance(coeffs, list):
        raise ConfigError("beta.coeffs: expected a list")
    return PolynomialBeta(coeffs=tuple(coeffs))


def _parse_alpha(section) -> AlphaFamily:
    variant = _variant(section, "alpha", ("constant", "affine", "saturating"))
    if variant == "constant":
        _take(section, {"variant"}, {"variant"}, "alpha")
        return ConstantAlpha()
    if variant == "affine":
        sec = _take(section, {"variant", "k"}, {"variant", "k"}, "alpha")
        return AffineAlpha(k=sec["k"])
    sec = _take(section, {"variant", "k", "tau"}, {"variant", "k"}, "alpha")
    return SaturatingAlpha(k=sec["k"], tau=sec.get("tau", 1.0))


def _parse_init(section) -> InitialData:
    variant = _variant(section, "init", ("sine", "bump", "samples"))
    if variant == "sine":
        sec = _take(section, {"variant", "m", "amp_u0", "amp_u1"}, {"variant"}, "init")
        return SineMode(
            m=sec.get("m", 1), amp_u0=sec.get("amp_u0", 1.0), amp_u1=sec.get("amp_u1", 0.0)
        )
    if variant == "bump":
        sec = _take(section, {"variant", "center", "width", "amp"}, {"variant"}, "init")
        return Bump(
            center=sec.get("center", 0.5), width=sec.get("width", 0.25), amp=sec.get("amp", 1.0)
        )
    sec = _take(section, {"variant", "u0", "u1"}, {"variant", "u0", "u1"}, "init")
    if not isinstance(sec["u0"], list) or not isinstance(sec["u1"], list):
        raise ConfigError("init: u0 and u1 must be lists of numbers")
    return GridSamples(u0=tuple(sec["u0"]), u1=tuple(sec["u1"]))


def _variant(section, where, options) -> str:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {type(section).__name__}")
    variant = section.get("variant")
    if variant not in options:
        raise ConfigError(f"{where}.variant: expected one of {list(options)}, got {variant!r}")
    return variant


def spec_from_dict(cfg: dict) -> ProblemSpec:
    """Build a ProblemSpec from a parsed JSON object. Unknown keys rejected."""
    top = _take(
        cfg,
        {"damping", "beta", "alpha", "init", "horizon", "manufactured"},
        {"damping", "beta", "alpha", "init", "horizon"},
        "config",
    )
    dsec = _take(top["damping"], {"a", "b", "rho"}, {"a", "b", "rho"}, "damping")
    damping = DampingParams(a=dsec["a"], b=dsec["b"], rho=dsec["rho"])
    beta = _parse_beta(top["beta"])
    alpha = _parse_alpha(top["alpha"])
    init = _parse_init(top["init"])
    source = None
    if "manufactured" in top:
        msec = _take(
            top["manufactured"], {"amp", "rate", "mode"}, set(), "manufactured"
        )
        source = ManufacturedField(
            amp=msec.get("amp", 1.0), rate=msec.get("rate", 1.0), mode=msec.get("mode", 1)
        )
    return ProblemSpec(
        damping=damping,
        beta=beta,
        alpha=alpha,
        init=init,
        horizon=top["horizon"],
        source=source,
    )


def spec_to_dict(spec: ProblemSpec) -> dict:
    """Canonical JSON-ready echo of a spec (inverse of spec_from_dict)."""
    out: dict = {
        "damping": {"a": spec.damping.a, "b": spec.damping.b, "rho": spec.damping.rho},
        "horizon": spec.horizon,
    }
    beta = spec.beta
    if isinstance(beta, ConstantBeta):
        out["beta"] = {"variant": "constant", "c": beta.c}
    elif isinstance(beta, ExponentialBeta):
        out["beta"] = {"variant": "exponential", "beta0": beta.beta0, "mu": beta.mu}
    else:
        out["beta"] = {"variant": "polynomial", "coeffs": list(beta.coeffs)}
    alpha = spec.alpha
    if isinstance(alpha, ConstantAlpha):
        out["alpha"] = {"variant": "constant"}
    elif isinstance(alpha, AffineAlpha):
        out["alpha"] = {"variant": "affine", "k": alpha.k}
    else:
        out["alpha"] = {"variant": "saturating", "k": alpha.k, "tau": alpha.tau}
    init = spec.init
    if isinstance(init, SineMode):
        out["init"] = {"variant": "sine", "m": init.m, "amp_u0": init.amp_u0, "amp_u1": init.amp_u1}
    elif isinstance(init, Bump):
        out["init"] = {"variant": "bump", "center": init.center, "width": init.width, "amp": init.amp}
    else:
        out["init"] = {"variant": "samples", "u0": list(init.u0), "u1": list(init.u1)}
    if spec.source is not None:
        out["manufactured"] = {
            "amp": spec.source.amp,
            "rate": spec.source.rate,
            "mode": spec.source.mode,
        }
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
