"""Frozen outputs of the config layer: config hashes and validation summaries.

The expected values were computed by the code before the family registry
replaced the per-family parse, serialize and check functions, and are kept
verbatim: the registry must reproduce them byte for byte.
"""

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
from mowave.harness import config_hash

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
        "[pass] beta(T): beta(T) = 0, beta'(T) = 0 at T = 10\n"
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
        "[pass] beta(T): beta(T) = -2.71828, beta'(T) = -0.271828 at T = 10\n"
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
        "[FAIL] A2: PolynomialBeta: negative coefficients break beta' >= 0 on t >= 0\n"
        "[pass] beta(T): beta(T) = 191, beta'(T) = 39 at T = 10\n"
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
