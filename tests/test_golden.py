"""Frozen outputs: config hashes, validation summaries and CLI failures.

The config hashes and validation summaries were computed by the code before
the family registry replaced the per-family parse, serialize and check
functions; the CLI failures (exit code, stdout and stderr of each failing
invocation) by the code before one translator turned every error into its
exit code and stderr line. All are kept verbatim and must be reproduced
byte for byte.
"""

import json
import warnings

import pytest

from mowave import (
    AffineAlpha,
    Bump,
    ConstantAlpha,
    ConstantBeta,
    DampingParams,
    ExponentialBeta,
    GridSamples,
    PolynomialBeta,
    ProblemSpec,
    SaturatingAlpha,
    SineMode,
    spec_from_dict,
    spec_to_dict,
    validate_assumptions,
)
from mowave.harness import config_hash, main

# the README problem config, which is also the benchmark's seed-0 reference config
README_CONFIG = {
    "damping": {"a": 1.0, "b": 1.0, "rho": 1.0},
    "beta": {"variant": "exponential", "beta0": 1.0, "mu": 0.1},
    "alpha": {"variant": "saturating", "k": 0.5, "tau": 1.0},
    "init": {"variant": "sine", "m": 1, "amp_u0": 1.0, "amp_u1": 0.0},
    "horizon": 10.0,
}
# the benchmark's seed-0 convergence config and sweep base
CONVERGENCE_CONFIG = dict(README_CONFIG, horizon=2.0, manufactured={"amp": 1.0, "rate": 1.0, "mode": 1})
SWEEP_BASE_CONFIG = dict(README_CONFIG, horizon=4.0)

CONFIGS = {
    "readme": README_CONFIG,
    "reference": README_CONFIG,
    "convergence": CONVERGENCE_CONFIG,
    "sweep_base": SWEEP_BASE_CONFIG,
}

CONFIG_HASHES = {
    "readme": "79c48b14e009bffa051638141dd8abbf17406e45e03ad789556cf430ee7bfe20",
    "reference": "79c48b14e009bffa051638141dd8abbf17406e45e03ad789556cf430ee7bfe20",
    "convergence": "da3456796b32138f8537441f92dde501393c81f029f603e4833cb56f9a1da375",
    "sweep_base": "3ada73229ab0d1dc41b7265b49f0e790f0a7f9fa6f358ddaa083f1a5961f37ba",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_hash_is_frozen(name):
    assert config_hash(spec_to_dict(spec_from_dict(CONFIGS[name]))) == CONFIG_HASHES[name]


def _spec(**overrides):
    base = dict(
        damping=DampingParams(a=1.0, b=1.0, rho=1.0),
        beta=ExponentialBeta(beta0=1.0, mu=0.1),
        alpha=SaturatingAlpha(k=0.5, tau=1.0),
        init=SineMode(m=1, amp_u0=1.0, amp_u1=0.0),
        horizon=10.0,
    )
    base.update(overrides)
    return ProblemSpec(**base)


# a pass case and every fail case of each family, then the non-family checks
VALIDATION_CASES = {
    "alpha-constant": _spec(alpha=ConstantAlpha()),
    "alpha-affine": _spec(alpha=AffineAlpha(0.25)),
    "alpha-affine-shrinking": _spec(alpha=AffineAlpha(-0.1)),
    "alpha-affine-too-fast": _spec(alpha=AffineAlpha(1.0)),
    "alpha-saturating": _spec(alpha=SaturatingAlpha(k=0.5, tau=2.0)),
    "alpha-saturating-shrinking": _spec(alpha=SaturatingAlpha(k=-0.5, tau=1.0)),
    "alpha-saturating-too-fast": _spec(alpha=SaturatingAlpha(k=2.0, tau=1.5)),
    "beta-constant": _spec(beta=ConstantBeta(2.0)),
    "beta-constant-nonpositive": _spec(beta=ConstantBeta(0.0)),
    "beta-exponential": _spec(beta=ExponentialBeta(beta0=2.0, mu=0.3)),
    "beta-exponential-nonpositive": _spec(beta=ExponentialBeta(beta0=-1.0, mu=0.1)),
    "beta-exponential-decreasing": _spec(beta=ExponentialBeta(beta0=1.0, mu=-0.5)),
    "beta-exponential-overflow": _spec(beta=ExponentialBeta(beta0=1.0, mu=1000.0), horizon=1.0),
    "beta-exponential-overflow-derivative": _spec(
        beta=ExponentialBeta(beta0=1e307, mu=100.0), horizon=0.01
    ),
    "beta-exponential-overflow-nonpositive": _spec(
        beta=ExponentialBeta(beta0=-1.0, mu=1000.0), horizon=1.0
    ),
    "beta-polynomial": _spec(beta=PolynomialBeta((1.0, 0.5, 0.25))),
    "beta-polynomial-nonpositive": _spec(beta=PolynomialBeta((0.0, 1.0))),
    "beta-polynomial-negative": _spec(beta=PolynomialBeta((1.0, -1.0, 2.0))),
    "beta-polynomial-negative-nondecreasing": _spec(beta=PolynomialBeta((1.0, 3.0, -3.0, 1.0))),
    "beta-polynomial-overflow": _spec(beta=PolynomialBeta((1.0, 1e300, 1e300)), horizon=1e5),
    "beta-linear-mode": _spec(linear_mode=True),
    "init-sine": _spec(init=SineMode(m=3, amp_u0=0.5, amp_u1=-0.25)),
    "init-bump": _spec(init=Bump(center=0.5, width=0.2, amp=2.0)),
    "init-bump-outside": _spec(init=Bump(center=0.1, width=0.25)),
    "init-samples": _spec(init=GridSamples(u0=(0.0, 1.0, 0.0), u1=(0.0, 0.5, 0.0))),
    "init-samples-endpoint": _spec(init=GridSamples(u0=(0.5, 1.0, 0.0), u1=(0.0, 0.0, 0.0))),
    "damping-rho": _spec(damping=DampingParams(1.0, 1.0, 0.0)),
    "damping-a": _spec(damping=DampingParams(0.0, 1.0, 1.0)),
    "damping-b-negative": _spec(damping=DampingParams(1.0, -1.0, 1.0)),
    "damping-b-zero": _spec(damping=DampingParams(1.0, 0.0, 1.0)),
    "horizon": _spec(horizon=0.0),
}

# beta-polynomial-negative changed when (A2) of a polynomial beta came to be
# tested on beta' itself, not on the signs of the coefficients
VALIDATION_SUMMARIES = {
    'alpha-constant': (
        "[pass] A1: alpha = 1 (cylindrical), sup alpha' = 0\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'alpha-affine': (
        "[pass] A1: AffineAlpha: alpha(0)=1, sup alpha' = 0.25 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'alpha-affine-shrinking': (
        "[FAIL] A1: AffineAlpha: alpha' = -0.1 < 0, domain must be expanding\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'alpha-affine-too-fast': (
        "[FAIL] A1: AffineAlpha: requires sup α'(t)<1, got sup alpha' = 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'alpha-saturating': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.25 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'alpha-saturating-shrinking': (
        '[FAIL] A1: SaturatingAlpha: k = -0.5 < 0, domain must be expanding\n'
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'alpha-saturating-too-fast': (
        "[FAIL] A1: SaturatingAlpha: requires sup α'(t)<1, got sup alpha' = k/tau = 1.33333\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-constant': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        "[pass] A2: ConstantBeta: beta = 2 > 0, beta' = 0\n"
        "[pass] beta(T): beta(T) = 2, beta'(T) = 0 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-constant-nonpositive': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[FAIL] A2: ConstantBeta: beta = 0.0 must be positive\n'
        "[FAIL] beta(T): beta(T) = 0, beta'(T) = 0 at T = 10: beta(T) is not positive\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-exponential': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 2 > 0, mu = 0.3 >= 0\n'
        "[pass] beta(T): beta(T) = 40.1711, beta'(T) = 12.0513 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-exponential-nonpositive': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[FAIL] A2: ExponentialBeta: beta0 = -1.0 must be positive\n'
        "[FAIL] beta(T): beta(T) = -2.71828, beta'(T) = -0.271828 at T = 10: beta(T) is not positive\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-exponential-decreasing': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[FAIL] A2: ExponentialBeta: mu = -0.5 < 0 makes beta decreasing\n'
        "[pass] beta(T): beta(T) = 0.00673795, beta'(T) = -0.00336897 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-exponential-overflow': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 1000 >= 0\n'
        "[FAIL] beta(T): mu T = 1000, log beta(T) = 1000, log beta'(T) = 1006.91; the largest double is e^709.783\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 1'
    ),
    'beta-exponential-overflow-derivative': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1e+307 > 0, mu = 100 >= 0\n'
        "[FAIL] beta(T): mu T = 1, log beta(T) = 707.894, log beta'(T) = 712.499; the largest double is e^709.783\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 0.01'
    ),
    'beta-exponential-overflow-nonpositive': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[FAIL] A2: ExponentialBeta: beta0 = -1.0 must be positive\n'
        "[FAIL] beta(T): mu T = 1000, log beta(T) = 1000, log beta'(T) = 1006.91; the largest double is e^709.783\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 1'
    ),
    'beta-polynomial': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: PolynomialBeta: all coefficients >= 0, constant term > 0\n'
        "[pass] beta(T): beta(T) = 31, beta'(T) = 5.5 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-polynomial-nonpositive': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[FAIL] A2: PolynomialBeta: constant coefficient 0.0 must be positive\n'
        "[pass] beta(T): beta(T) = 10, beta'(T) = 1 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-polynomial-negative': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        "[FAIL] A2: PolynomialBeta: beta' < 0 at t = 0.0\n"
        "[pass] beta(T): beta(T) = 191, beta'(T) = 39 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-polynomial-negative-nondecreasing': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        "[pass] A2: PolynomialBeta: beta' >= 0 at t = 0, across its real roots and for large t, constant term > 0\n"
        "[pass] beta(T): beta(T) = 731, beta'(T) = 243 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'beta-polynomial-overflow': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: PolynomialBeta: all coefficients >= 0, constant term > 0\n'
        "[FAIL] beta(T): beta(T) = inf, beta'(T) = 2.00001e+305 at T = 100000 are not finite doubles\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 100000'
    ),
    'beta-linear-mode': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: linear_mode: beta disabled (test oracle, outside the standing assumptions)\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'init-sine': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=3 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'init-bump': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: Bump supported in [0.3, 0.7]\n'
        '[pass] horizon: T = 10'
    ),
    'init-bump-outside': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[FAIL] init: Bump support [-0.15, 0.35] leaves [0,1]; Dirichlet compatibility fails\n'
        '[pass] horizon: T = 10'
    ),
    'init-samples': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: GridSamples endpoints vanish\n'
        '[pass] horizon: T = 10'
    ),
    'init-samples-endpoint': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[FAIL] init: GridSamples endpoint values must vanish, worst |value| = 0.5\n'
        '[pass] horizon: T = 10'
    ),
    'damping-rho': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[FAIL] A3: rho = 0 must be positive\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'damping-a': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[FAIL] damping: a = 0 must be positive\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'damping-b-negative': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[FAIL] damping: b = -1 must be nonnegative\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'damping-b-zero': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 0 selects the Poincare branch of the certificate\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[pass] horizon: T = 10'
    ),
    'horizon': (
        "[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n"
        '[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n'
        "[pass] beta(T): beta(T) = 1, beta'(T) = 0.1 at T = 0\n"
        '[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n'
        '[pass] damping: a = 1 > 0, b = 1\n'
        '[pass] init: SineMode m=1 vanishes at both endpoints\n'
        '[FAIL] horizon: T = 0 must be positive'
    ),
}


@pytest.mark.parametrize("name", sorted(VALIDATION_CASES))
def test_validation_summary_is_frozen(name):
    assert validate_assumptions(VALIDATION_CASES[name]).summary() == VALIDATION_SUMMARIES[name]


# ---------------------------------------------------------------------------
# failing CLI invocations: exit code, stdout and stderr of each, frozen

_SINE_ZERO = {"variant": "sine", "m": 1, "amp_u0": 0.0, "amp_u1": 0.0}
_MANUFACTURED = {"amp": 1.0, "rate": 1.0, "mode": 1}
_README_SWEEP = {"base": README_CONFIG, "axes": {"mu": [0.1, 0.2]}}
# E(0) = 4.95e307 is finite, C E(0) and the identity residuals are not
_BOUND_OVERFLOW = dict(
    README_CONFIG,
    damping={"a": 1.0, "b": 1.0, "rho": 1e-6},
    beta={"variant": "constant", "c": 1e-300},
    init={"variant": "sine", "m": 1, "amp_u0": 4.1e153, "amp_u1": 0.0},
    horizon=2.0,
)

# E is exactly 0.0 from some t on, and its least positive value is subnormal
_ENERGY_UNDERFLOW = dict(
    README_CONFIG,
    damping={"a": 10.0, "b": 100.0, "rho": 1.0},
    beta={"variant": "constant", "c": 1.0},
    alpha={"variant": "constant"},
    horizon=100.0,
)


def _cfg(**overrides):
    return dict(README_CONFIG, **overrides)


def _sweep(**overrides):
    return dict(_README_SWEEP, **overrides)


# name -> (argv, {file name: JSON content, or raw text when a str}); the
# argv paths are relative to the directory the invocation runs in
CLI_FAILURES = {
    # simulate
    "simulate-missing-file": (["simulate", "missing.json"], {}),
    "simulate-not-json": (["simulate", "c.json"], {"c.json": "{"}),
    "simulate-unknown-key": (["simulate", "c.json"], {"c.json": _cfg(extra=1)}),
    "simulate-A1": (["simulate", "c.json"], {"c.json": _cfg(alpha={"variant": "affine", "k": 1.0})}),
    "simulate-A2": (
        ["simulate", "c.json"],
        {"c.json": _cfg(beta={"variant": "exponential", "beta0": 1.0, "mu": -0.5})},
    ),
    "simulate-beta-T": (
        ["simulate", "c.json", "--outdir", "out"],
        {"c.json": _cfg(beta={"variant": "exponential", "beta0": 1.0, "mu": 1000.0}, init=_SINE_ZERO, horizon=1.0)},
    ),
    "simulate-blowup-cfl": (
        ["simulate", "c.json", "--grid-n", "64", "--cfl", "10.0", "--outdir", "out"],
        {"c.json": _cfg(horizon=1.0)},
    ),
    "simulate-blowup-beta-growth": (
        ["simulate", "c.json", "--grid-n", "100", "--outdir", "out"],
        {"c.json": _cfg(beta={"variant": "exponential", "beta0": 1.0, "mu": 60.0}, horizon=1.0)},
    ),
    "simulate-snapshot-cap": (
        ["simulate", "c.json", "--sample-every", "1", "--outdir", "out"],
        {"c.json": _cfg(horizon=7000.0)},
    ),
    # the benchmark sweep's base at mu = 2: the run exits 0, its window is empty
    "simulate-empty-window": (
        ["simulate", "c.json", "--grid-n", "32", "--outdir", "out"],
        {"c.json": _cfg(beta={"variant": "exponential", "beta0": 1.0, "mu": 2.0}, horizon=4.0)},
    ),
    # E leaves the doubles: its least positive value is below 2.5e-323, where decay.svg's floor (a
    # tenth of it) rounded to 0.0 and the run exited 1 with a traceback
    "simulate-energy-below-the-plot-floor": (
        ["simulate", "c.json", "--grid-n", "10", "--outdir", "out"],
        {"c.json": _ENERGY_UNDERFLOW},
    ),
    "simulate-too-few-snapshots": (
        ["simulate", "c.json", "--grid-n", "16", "--outdir", "out"],
        {"c.json": _cfg(horizon=0.05)},
    ),
    # at --sample-every 1 only a finer grid (a smaller h0) or a longer T stores more snapshots
    "simulate-too-few-snapshots-at-sample-every-1": (
        ["simulate", "c.json", "--grid-n", "16", "--sample-every", "1", "--outdir", "out"],
        {"c.json": _cfg(horizon=0.01)},
    ),
    "simulate-grid-n": (["simulate", "c.json", "--grid-n", "4", "--outdir", "out"], {"c.json": README_CONFIG}),
    "simulate-grid-n-huge": (
        ["simulate", "c.json", "--grid-n", "1000000000000", "--outdir", "out"],
        {"c.json": README_CONFIG},
    ),
    "simulate-cfl": (["simulate", "c.json", "--cfl", "-1", "--outdir", "out"], {"c.json": README_CONFIG}),
    "simulate-cfl-step-count-overflows": (
        ["simulate", "c.json", "--cfl", "1e-320", "--outdir", "out"],
        {"c.json": README_CONFIG},
    ),
    "simulate-cfl-step-underflows": (
        ["simulate", "c.json", "--cfl", "5e-324", "--outdir", "out"],
        {"c.json": README_CONFIG},
    ),
    "simulate-cfl-steps-past-2-53": (
        ["simulate", "c.json", "--cfl", "1e-300", "--outdir", "out"],
        {"c.json": README_CONFIG},
    ),
    "simulate-damping-steps-past-2-53": (
        ["simulate", "c.json", "--outdir", "out"],
        {"c.json": _cfg(damping={"a": 1e20, "b": 1.0, "rho": 1.0})},
    ),
    "simulate-reaction-steps-past-2-53": (
        ["simulate", "c.json", "--outdir", "out"],
        {"c.json": _cfg(damping={"a": 1.0, "b": 1.0, "rho": 3.0}, init={"variant": "sine", "m": 1, "amp_u0": 1e12, "amp_u1": 0.0})},
    ),
    "simulate-sample-every": (
        ["simulate", "c.json", "--sample-every", "0", "--outdir", "out"],
        {"c.json": README_CONFIG},
    ),
    "simulate-energy-overflow": (
        ["simulate", "c.json", "--grid-n", "16", "--outdir", "out"],
        {
            "c.json": _cfg(
                damping={"a": 1.0, "b": 1.0, "rho": 0.01},
                init={"variant": "sine", "m": 1, "amp_u0": 0.0, "amp_u1": 1e300},
                horizon=0.5,
            )
        },
    ),
    "simulate-certificate-overflow": (
        ["simulate", "c.json", "--grid-n", "32", "--outdir", "out"],
        {
            "c.json": _cfg(
                damping={"a": 1.0, "b": 1.0, "rho": 2.0},
                beta={"variant": "polynomial", "coeffs": [1.0, 0.0, 1e300]},
                init={"variant": "sine", "m": 1, "amp_u0": 1e-200, "amp_u1": 0.0},
                horizon=0.5,
            )
        },
    ),
    "simulate-certificate-bound-overflow": (
        ["simulate", "c.json", "--grid-n", "32", "--outdir", "out"],
        {"c.json": _BOUND_OVERFLOW},
    ),
    # certify
    "certify-missing-file": (["certify", "missing.json"], {}),
    "certify-top-level-list": (["certify", "c.json"], {"c.json": [1, 2]}),
    "certify-unknown-key": (["certify", "c.json"], {"c.json": _cfg(extra=1)}),
    "certify-A1": (["certify", "c.json"], {"c.json": _cfg(alpha={"variant": "saturating", "k": 2.0, "tau": 1.5})}),
    "certify-A2": (["certify", "c.json"], {"c.json": _cfg(beta={"variant": "constant", "c": 0.0})}),
    # beta = 2 + (t - 1)^3: beta' = 3 (t - 1)^2 >= 0 passes (A2), and beta'(0)/beta(0) = 3 empties the window
    "certify-A2-polynomial-cubic": (
        ["certify", "c.json"],
        {"c.json": _cfg(beta={"variant": "polynomial", "coeffs": [1.0, 3.0, -3.0, 1.0]})},
    ),
    "certify-A2-polynomial-decreasing": (
        ["certify", "c.json"],
        {"c.json": _cfg(beta={"variant": "polynomial", "coeffs": [1.0, 2.0, -1.0]})},
    ),
    "certify-beta-T": (
        ["certify", "c.json"],
        {"c.json": _cfg(beta={"variant": "polynomial", "coeffs": [1.0, 1e300, 1e300]}, horizon=1e5)},
    ),
    "certify-overflow-a": (["certify", "c.json"], {"c.json": _cfg(damping={"a": 1e300, "b": 1.0, "rho": 1.0})}),
    "certify-overflow-polynomial": (
        ["certify", "c.json"],
        {"c.json": _cfg(beta={"variant": "polynomial", "coeffs": [1.0, 0.0, 1e300]})},
    ),
    "certify-empty-window-remark1": (
        ["certify", "c.json"],
        {"c.json": _cfg(damping={"a": 1.0, "b": 0.0, "rho": 1.0}, alpha={"variant": "affine", "k": 0.5})},
    ),
    "certify-empty-window": (
        ["certify", "c.json"],
        {"c.json": _cfg(beta={"variant": "exponential", "beta0": 1.0, "mu": 2.0})},
    ),
    # convergence
    "convergence-missing-file": (["convergence", "missing.json"], {}),
    "convergence-unknown-key": (["convergence", "c.json"], {"c.json": _cfg(extra=1)}),
    "convergence-A1": (
        ["convergence", "c.json"],
        {"c.json": _cfg(alpha={"variant": "affine", "k": -0.1}, manufactured=_MANUFACTURED)},
    ),
    "convergence-beta-T": (
        ["convergence", "c.json"],
        {"c.json": _cfg(beta={"variant": "exponential", "beta0": 1.0, "mu": 1000.0}, horizon=1.0)},
    ),
    "convergence-grid-n-not-integers": (["convergence", "c.json", "--grid-n", "50,x"], {"c.json": README_CONFIG}),
    "convergence-grid-n-one-size": (["convergence", "c.json", "--grid-n", "50"], {"c.json": README_CONFIG}),
    "convergence-grid-n-too-small": (
        ["convergence", "c.json", "--grid-n", "4,8"],
        {"c.json": _cfg(horizon=0.25)},
    ),
    "convergence-grid-n-repeated": (["convergence", "c.json", "--grid-n", "50,50"], {"c.json": README_CONFIG}),
    "convergence-grid-n-huge": (
        ["convergence", "c.json", "--grid-n", "50,1000000000000"],
        {"c.json": README_CONFIG},
    ),
    "convergence-too-few-snapshots": (["convergence", "c.json", "--grid-n", "8,16"], {"c.json": _cfg(horizon=0.001)}),
    "convergence-grid-n-repeated-of-three": (
        ["convergence", "c.json", "--grid-n", "16,16,32"],
        {"c.json": _cfg(horizon=0.25)},
    ),
    "convergence-cfl": (["convergence", "c.json", "--cfl", "-1"], {"c.json": _cfg(horizon=0.25)}),
    "convergence-cfl-step-count-overflows": (
        ["convergence", "c.json", "--cfl", "1e-320"],
        {"c.json": _cfg(horizon=0.25)},
    ),
    "convergence-snapshot-cap": (
        ["convergence", "c.json", "--grid-n", "400,3200"],
        {"c.json": _cfg(horizon=5000.0, manufactured=_MANUFACTURED)},
    ),
    "convergence-blowup-a2000": (
        ["convergence", "c.json", "--grid-n", "100,200"],
        {"c.json": _cfg(damping={"a": 2000.0, "b": 1.0, "rho": 1.0}, horizon=0.5)},
    ),
    # sweep
    "sweep-jobs-0": (["sweep", "s.json", "--jobs", "0", "--outdir", "out"], {"s.json": _README_SWEEP}),
    "sweep-jobs-negative": (["sweep", "s.json", "--jobs", "-2", "--outdir", "out"], {"s.json": _README_SWEEP}),
    "sweep-missing-file": (["sweep", "missing.json", "--outdir", "out"], {}),
    "sweep-not-json": (["sweep", "s.json", "--outdir", "out"], {"s.json": "{"}),
    "sweep-not-an-object": (["sweep", "s.json", "--outdir", "out"], {"s.json": [README_CONFIG]}),
    "sweep-no-base": (["sweep", "s.json", "--outdir", "out"], {"s.json": {"axes": {"mu": [0.1]}}}),
    "sweep-unknown-keys": (["sweep", "s.json", "--outdir", "out"], {"s.json": _sweep(jobs=2)}),
    "sweep-axes-not-an-object": (["sweep", "s.json", "--outdir", "out"], {"s.json": _sweep(axes=[["mu", 0.1]])}),
    "sweep-unknown-axis": (["sweep", "s.json", "--outdir", "out"], {"s.json": _sweep(axes={"gamma": [1.0]})}),
    "sweep-base-invalid": (["sweep", "s.json", "--outdir", "out"], {"s.json": _sweep(base=_cfg(extra=1))}),
    "sweep-grid-n": (["sweep", "s.json", "--grid-n", "4", "--outdir", "out"], {"s.json": _README_SWEEP}),
    "sweep-grid-n-huge": (
        ["sweep", "s.json", "--grid-n", "1000000000000", "--outdir", "out"],
        {"s.json": _README_SWEEP},
    ),
    "sweep-cfl": (["sweep", "s.json", "--cfl", "-1", "--outdir", "out"], {"s.json": _README_SWEEP}),
    "sweep-cfl-step-underflows": (
        ["sweep", "s.json", "--cfl", "5e-324", "--outdir", "out"],
        {"s.json": _README_SWEEP},
    ),
    "sweep-cfl-steps-past-2-53": (
        ["sweep", "s.json", "--cfl", "1e-300", "--outdir", "out"],
        {"s.json": _README_SWEEP},
    ),
    "sweep-sample-every": (["sweep", "s.json", "--sample-every", "0", "--outdir", "out"], {"s.json": _README_SWEEP}),
    "sweep-axis-not-a-list": (["sweep", "s.json", "--outdir", "out"], {"s.json": _sweep(axes={"mu": 0.1})}),
    "sweep-axis-empty": (["sweep", "s.json", "--outdir", "out"], {"s.json": _sweep(axes={"rho": []})}),
    "sweep-axis-not-a-number": (["sweep", "s.json", "--outdir", "out"], {"s.json": _sweep(axes={"mu": [0.1, None]})}),
    "sweep-mu-needs-exponential-beta": (
        ["sweep", "s.json", "--outdir", "out"],
        {"s.json": _sweep(base=_cfg(beta={"variant": "constant", "c": 1.0}))},
    ),
    "sweep-k-needs-growing-alpha": (
        ["sweep", "s.json", "--outdir", "out"],
        {"s.json": _sweep(base=_cfg(alpha={"variant": "constant"}), axes={"k": [0.1]})},
    ),
    "sweep-cells-fail": (
        ["sweep", "s.json", "--grid-n", "16", "--outdir", "out"],
        {"s.json": _sweep(base=_cfg(horizon=0.5), axes={"a": [-1.0, 2000.0], "mu": [0.1, 1000.0]})},
    ),
    "sweep-cell-damping-steps-past-2-53": (
        ["sweep", "s.json", "--grid-n", "16", "--outdir", "out"],
        {"s.json": _sweep(base=_cfg(horizon=0.5), axes={"a": [1.0, 1e20]})},
    ),
    "sweep-cells-over-snapshot-cap": (
        ["sweep", "s.json", "--sample-every", "1", "--outdir", "out"],
        {"s.json": _sweep(base=_cfg(horizon=7000.0))},
    ),
    "sweep-cell-certificate-bound-overflow": (
        ["sweep", "s.json", "--grid-n", "32", "--outdir", "out"],
        {"s.json": _sweep(base=_BOUND_OVERFLOW, axes={"a": [1.0]})},
    ),
    "sweep-cell-energy-below-the-plot-floor": (
        ["sweep", "s.json", "--grid-n", "10", "--jobs", "2", "--outdir", "out"],
        {"s.json": _sweep(base=_ENERGY_UNDERFLOW, axes={"a": [10.0, 1.0]})},
    ),
}

# name -> (exit code, stdout, stderr), computed before the CLI commands raised
# their errors for main to report, and kept verbatim; the repeated --grid-n
# and the too-small --cfl rows were computed when those inputs were first rejected;
# sweep-cells-over-snapshot-cap printed its line once per cell until an error
# shared by every cell of a group came to be reported once; the two
# certificate-bound-overflow rows were computed when that overflow was first
# reported; convergence-blowup-a2000, simulate-blowup-cfl and sweep-cells-fail
# changed, and simulate-blowup-a2000 left the table (it exits 0), when the step
# came to be capped by the damping and reaction bounds and --cfl defaulted to 1.0;
# convergence-blowup-a2000 changed again when a study came to step every grid
# at the most steps per h0 that any of its grids' plans takes (3 here: the
# N=100 run steps at a dt = 2.2, near RK4's stability limit, where its time
# error is not yet small); the three grid-n-huge rows were computed when a
# grid whose stage table does not fit the working-memory cap came to be
# rejected before any array of the grid is made (they raised MemoryError before);
# simulate-blowup-cfl and sweep-cells-fail changed, and simulate-blowup-beta-growth
# came in, when exit 3 came to name the numerical instability, the exact
# solution's bound, the step's bound and the --cfl that takes a smaller step;
# the three snapshot-cap rows changed, and their horizons rose from 1000 (50
# for convergence) so that they still exit before any step, when a run came to
# keep its integral table (10 or 12 doubles per snapshot) instead of its snapshots;
# simulate-empty-window came in when simulate came to print an empty window as
# empty (it printed "lambda window [1, 0.638897]" before); the three grid-n-huge
# and the three snapshot-cap rows changed in their numbers and advice when one
# memory cap came to bound one count of everything a batch allocates (the
# stage table, buffers, snapshot block, integral table and the integral
# pass's temporaries) in place of a working-memory and a snapshot cap;
# sweep-cells-over-snapshot-cap came to exit 2 before any cell when step_plan came to refuse the base's table;
# sweep-cells-fail, sweep-cell-damping-steps-past-2-53 and sweep-cell-certificate-bound-overflow
# changed when each sweep stderr line came to name its cell (cell_XXXX);
# simulate-too-few-snapshots-at-sample-every-1 and convergence-too-few-snapshots came in
# when a run of fewer than 3 snapshots came to name a remedy that can help;
# simulate-energy-below-the-plot-floor and sweep-cell-energy-below-the-plot-floor came in
# (they exited 1 with a traceback before) when decay.svg's floor came to be at least the least subnormal
CLI_FAILURE_RESULTS = {
    'certify-A2-polynomial-cubic': (5, '', 'mowave: empty window: lambda_lo = 1.5 exceeds lambda_hi = 0.638897; beta grows too fast for any certified rate\n'),
    'certify-A2-polynomial-decreasing': (2, '', "mowave: assumption checks failed:\n[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n[FAIL] A2: PolynomialBeta: beta' < 0 at t = 4.0\n[FAIL] beta(T): beta(T) = -79, beta'(T) = -18 at T = 10: beta(T) is not positive\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 10\n"),
    'certify-A1': (2, '', "mowave: assumption checks failed:\n[FAIL] A1: SaturatingAlpha: requires sup α'(t)<1, got sup alpha' = k/tau = 1.33333\n[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 10\n"),
    'certify-A2': (2, '', "mowave: assumption checks failed:\n[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n[FAIL] A2: ConstantBeta: beta = 0.0 must be positive\n[FAIL] beta(T): beta(T) = 0, beta'(T) = 0 at T = 10: beta(T) is not positive\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 10\n"),
    'certify-beta-T': (2, '', "mowave: assumption checks failed:\n[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n[pass] A2: PolynomialBeta: all coefficients >= 0, constant term > 0\n[FAIL] beta(T): beta(T) = inf, beta'(T) = 2.00001e+305 at T = 100000 are not finite doubles\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 100000\n"),
    'certify-empty-window': (5, '', 'mowave: empty window: lambda_lo = 1 exceeds lambda_hi = 0.638897; beta grows too fast for any certified rate\n'),
    'certify-empty-window-remark1': (5, '', 'mowave: empty window: lambda_lo = 0.05 exceeds lambda_hi = 0.025641; beta grows too fast for any certified rate\n'),
    'certify-missing-file': (2, '', "mowave: cannot read config missing.json: [Errno 2] No such file or directory: 'missing.json'\n"),
    'certify-overflow-a': (2, '', 'mowave: certificate: damping a = 1e+300, b = 1 overflow the cubic of condition (ii), so lambda_hi cannot be computed\n'),
    'certify-overflow-polynomial': (2, '', "mowave: certificate: beta'' beta - beta'^2 of the polynomial beta overflows a double on [0, T], so lambda_lo cannot be computed; scale the coefficients down\n"),
    'certify-top-level-list': (2, '', 'mowave: config c.json: top level must be a JSON object\n'),
    'certify-unknown-key': (2, '', "mowave: config: unknown keys ['extra']\n"),
    'convergence-A1': (2, '', "mowave: assumption checks failed:\n[FAIL] A1: AffineAlpha: alpha' = -0.1 < 0, domain must be expanding\n[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 10\n"),
    'convergence-beta-T': (2, '', "mowave: assumption checks failed:\n[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 1000 >= 0\n[FAIL] beta(T): mu T = 1000, log beta(T) = 1000, log beta'(T) = 1006.91; the largest double is e^709.783\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 1\n"),
    'convergence-blowup-a2000': (6, 'manufactured solution_error N=100->N=200 order 1.999\nmanufactured rate_residual N=100->N=200 order 1.183\nmanufactured plu_residual N=100->N=200 order 2.591\nmodal solution_error N=100->N=200 order 1.999\nmodal rate_residual N=100->N=200 order 1.963\nmodal plu_residual N=100->N=200 order 1.960\nminimum observed order 1.183\n', 'mowave: observed order 1.183 below 1.8\n'),
    'convergence-cfl': (2, '', 'mowave: cfl must be positive and finite, got -1.0\n'),
    'convergence-cfl-step-count-overflows': (2, '', 'mowave: cfl 1e-320 is too small: dt = 1.33e-322 gives no finite number of steps to T\n'),
    'convergence-grid-n-not-integers': (2, '', "mowave: --grid-n expects a comma-separated integer list, got '50,x'\n"),
    'convergence-grid-n-huge': (2, '', 'mowave: grid N = 1000000000000 needs about 8544000000270856 bytes for a stage table, the stage buffers, a snapshot block and the integral pass (cap 268435456); lower N\n'),
    'convergence-grid-n-one-size': (2, '', 'mowave: --grid-n needs at least two grid sizes for observed orders\n'),
    'convergence-grid-n-repeated': (2, '', "mowave: --grid-n sizes must differ for observed orders, got '50,50'\n"),
    'convergence-grid-n-repeated-of-three': (2, '', "mowave: --grid-n sizes must differ for observed orders, got '16,16,32'\n"),
    'convergence-grid-n-too-small': (2, '', 'mowave: grid: N must be >= 8, got 4\n'),
    'convergence-missing-file': (2, '', "mowave: cannot read config missing.json: [Errno 2] No such file or directory: 'missing.json'\n"),
    'convergence-snapshot-cap': (2, '', 'mowave: run would keep about 576000096 bytes of snapshot integrals, 579688552 bytes in all (cap 268435456); raise sample_every\n'),
    'convergence-too-few-snapshots': (2, '', 'mowave: the manufactured study stored 2 snapshots at --grid-n 8; the identity checks need at least 3: raise the smallest --grid-n (or T)\n'),
    'convergence-unknown-key': (2, '', "mowave: config: unknown keys ['extra']\n"),
    'simulate-A1': (2, '', "mowave: assumption checks failed:\n[FAIL] A1: AffineAlpha: requires sup α'(t)<1, got sup alpha' = 1\n[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n[pass] beta(T): beta(T) = 2.71828, beta'(T) = 0.271828 at T = 10\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 10\n"),
    'simulate-A2': (2, '', "mowave: assumption checks failed:\n[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n[FAIL] A2: ExponentialBeta: mu = -0.5 < 0 makes beta decreasing\n[pass] beta(T): beta(T) = 0.00673795, beta'(T) = -0.00336897 at T = 10\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 10\n"),
    'simulate-beta-T': (2, '', "mowave: assumption checks failed:\n[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 1000 >= 0\n[FAIL] beta(T): mu T = 1000, log beta(T) = 1000, log beta'(T) = 1006.91; the largest double is e^709.783\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[pass] damping: a = 1 > 0, b = 1\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 1\n"),
    'simulate-blowup-beta-growth': (3, '', 'mowave: numerical instability: the discrete solution left the finite range at t=0.26, although the energy identity bounds the exact energy there by E(0) beta(t)/beta(0) = 5.95654e+06 E(0); the step dt = 0.00666667 was set by the wave bound from the data at t = 0: lower --cfl below 1\n'),
    'simulate-blowup-cfl': (3, '', 'mowave: numerical instability: the discrete solution left the finite range at t=0.520833, although the energy identity bounds the exact energy there by E(0) beta(t)/beta(0) = 1.05346 E(0); the step dt = 0.0520833 was set by the wave bound from the data at t = 0: lower --cfl below 5\n'),
    'simulate-certificate-overflow': (2, '', "mowave: certificate: beta'' beta - beta'^2 of the polynomial beta overflows a double on [0, T], so lambda_lo cannot be computed; scale the coefficients down\n"),
    'simulate-certificate-bound-overflow': (2, '', 'mowave: the certificate bound C E(0) exp(-lambda t) and the identity residuals overflow a double, although the energy stays finite (E(0) = 4.95341e+307); no outputs written\n'),
    'simulate-cfl': (2, '', 'mowave: cfl must be positive and finite, got -1.0\n'),
    'simulate-cfl-step-count-overflows': (2, '', 'mowave: cfl 1e-320 is too small: dt = 3.5e-323 gives no finite number of steps to T\n'),
    'simulate-cfl-step-underflows': (2, '', 'mowave: cfl 5e-324 is too small: dt = 0.0 gives no finite number of steps to T\n'),
    'simulate-cfl-steps-past-2-53': (2, '', 'mowave: cfl 1e-300 is too small: dt = 3.333333333333334e-303 gives about 3e+303 steps to T, more than the 2**53 whose step times stay exact\n'),
    'simulate-damping-steps-past-2-53': (2, '', 'mowave: damping a = 1e+20 is too stiff: dt = 2.5e-20 gives about 4e+20 steps to T, more than the 2**53 whose step times stay exact\n'),
    'simulate-reaction-steps-past-2-53': (2, '', 'mowave: reaction rate sqrt(b + (rho+1) beta(0) |v0|^rho) = 2e+18 is too stiff: dt = 7e-19 gives about 1.43e+19 steps to T, more than the 2**53 whose step times stay exact\n'),
    'simulate-energy-overflow': (2, '', 'mowave: the energy overflows a double, first at t = 0, although the solution stays finite; no outputs written\n'),
    'simulate-grid-n': (2, '', 'mowave: grid: N must be >= 8, got 4\n'),
    'simulate-grid-n-huge': (2, '', 'mowave: grid N = 1000000000000 needs about 6928000000271384 bytes for a stage table, the stage buffers, a snapshot block and the integral pass (cap 268435456); lower N\n'),
    'simulate-missing-file': (2, '', "mowave: cannot read config missing.json: [Errno 2] No such file or directory: 'missing.json'\n"),
    'simulate-not-json': (2, '', 'mowave: config c.json is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n'),
    'simulate-sample-every': (2, '', 'mowave: sample_every must be a positive integer, got 0\n'),
    'simulate-snapshot-cap': (2, '', 'mowave: run would keep about 336000080 bytes of snapshot integrals, 337657064 bytes in all (cap 268435456); raise sample_every\n'),
    'simulate-empty-window': (0, 'wrote out/energy.csv; empty lambda window: lambda_lo = 1 exceeds lambda_hi = 0.638897; lambda_fit 0.725207\n', ''),
    'simulate-energy-below-the-plot-floor': (0, 'wrote out/energy.csv; lambda window [0, 6.38897]\n', ''),
    'simulate-too-few-snapshots': (2, '', 'mowave: the run stored 2 snapshots at --sample-every 10; the identity checks need at least 3: lower --sample-every\n'),
    'simulate-too-few-snapshots-at-sample-every-1': (2, '', 'mowave: the run stored 2 snapshots at --sample-every 1; the identity checks need at least 3: raise --grid-n (or T)\n'),
    'simulate-unknown-key': (2, '', "mowave: config: unknown keys ['extra']\n"),
    'sweep-axes-not-an-object': (2, '', "mowave: sweep config: 'axes' must be an object of axis -> value list\n"),
    'sweep-axis-empty': (2, '', "mowave: sweep axis 'rho' must be a nonempty list\n"),
    'sweep-axis-not-a-list': (2, '', "mowave: sweep axis 'mu' must be a nonempty list\n"),
    'sweep-axis-not-a-number': (2, '', "mowave: sweep axis 'mu': expected a number, got None\n"),
    'sweep-base-invalid': (2, '', "mowave: sweep base config invalid: config: unknown keys ['extra']\n"),
    'sweep-cell-damping-steps-past-2-53': (0, 'wrote out/sweep.csv (2 cells)\n', 'mowave: cell_0001: damping a = 1e+20 is too stiff: dt = 2.5e-20 gives about 2e+19 steps to T, more than the 2**53 whose step times stay exact\n'),
    'sweep-cells-fail': (0, 'wrote out/sweep.csv (4 cells)\n', "mowave: cell_0000: assumption checks failed:\n[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 0.1 >= 0\n[pass] beta(T): beta(T) = 1.05127, beta'(T) = 0.105127 at T = 0.5\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[FAIL] damping: a = -1 must be positive\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 0.5\nmowave: cell_0001: assumption checks failed:\n[pass] A1: SaturatingAlpha: alpha(0)=1, sup alpha' = 0.5 < 1\n[pass] A2: ExponentialBeta: beta0 = 1 > 0, mu = 1000 >= 0\n[pass] beta(T): beta(T) = 1.40359e+217, beta'(T) = 1.40359e+220 at T = 0.5\n[pass] A3: rho = 1 > 0 (n = 1, no upper bound)\n[FAIL] damping: a = -1 must be positive\n[pass] init: SineMode m=1 vanishes at both endpoints\n[pass] horizon: T = 0.5\nmowave: cell_0003: numerical instability: the discrete solution left the finite range at t=0.0261976, although the energy identity bounds the exact energy there by E(0) beta(t)/beta(0) = 2.38493e+11 E(0); the step dt = 0.0012475 was set by the damping bound from the data at t = 0: lower --cfl below 0.0299401\n"),
    'sweep-cells-over-snapshot-cap': (2, '', 'mowave: run would keep about 336000080 bytes of snapshot integrals, 337657064 bytes in all (cap 268435456); raise sample_every\n'),
    'sweep-cell-certificate-bound-overflow': (0, 'wrote out/sweep.csv (1 cells)\n', 'mowave: cell_0000: the certificate bound C E(0) exp(-lambda t) and the identity residuals overflow a double, although the energy stays finite (E(0) = 4.95341e+307); no outputs written\n'),
    'sweep-cell-energy-below-the-plot-floor': (0, 'wrote out/sweep.csv (2 cells)\n', ''),
    'sweep-cfl': (2, '', 'mowave: cfl must be positive and finite, got -1.0\n'),
    'sweep-cfl-step-underflows': (2, '', 'mowave: cfl 5e-324 is too small: dt = 0.0 gives no finite number of steps to T\n'),
    'sweep-cfl-steps-past-2-53': (2, '', 'mowave: cfl 1e-300 is too small: dt = 3.333333333333334e-303 gives about 3e+303 steps to T, more than the 2**53 whose step times stay exact\n'),
    'sweep-grid-n': (2, '', 'mowave: grid: N must be >= 8, got 4\n'),
    'sweep-grid-n-huge': (2, '', 'mowave: grid N = 1000000000000 needs about 6928000000271384 bytes for a stage table, the stage buffers, a snapshot block and the integral pass (cap 268435456); lower N\n'),
    'sweep-jobs-0': (2, '', 'mowave: --jobs must be at least 1, got 0\n'),
    'sweep-jobs-negative': (2, '', 'mowave: --jobs must be at least 1, got -2\n'),
    'sweep-k-needs-growing-alpha': (2, '', "mowave: sweep axis 'k' requires the base alpha to be affine or saturating\n"),
    'sweep-missing-file': (2, '', "mowave: cannot read sweep config: [Errno 2] No such file or directory: 'missing.json'\n"),
    'sweep-mu-needs-exponential-beta': (2, '', "mowave: sweep axis 'mu' requires the base beta to be exponential\n"),
    'sweep-no-base': (2, '', "mowave: sweep config must be an object with a 'base' config\n"),
    'sweep-not-an-object': (2, '', "mowave: sweep config must be an object with a 'base' config\n"),
    'sweep-not-json': (2, '', 'mowave: cannot read sweep config: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n'),
    'sweep-sample-every': (2, '', 'mowave: sample_every must be a positive integer, got 0\n'),
    'sweep-unknown-axis': (2, '', "mowave: sweep config: unknown axes ['gamma']; allowed ['a', 'b', 'k', 'mu', 'rho']\n"),
    'sweep-unknown-keys': (2, '', "mowave: sweep config: unknown keys ['jobs']\n"),
}


@pytest.mark.parametrize("name", sorted(CLI_FAILURES))
def test_cli_failure_is_frozen(name, tmp_path, monkeypatch, capsys):
    argv, files = CLI_FAILURES[name]
    monkeypatch.chdir(tmp_path)
    for fname, content in files.items():
        (tmp_path / fname).write_text(content if isinstance(content, str) else json.dumps(content))
    with warnings.catch_warnings():  # a warning fails the row
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == CLI_FAILURE_RESULTS[name]
