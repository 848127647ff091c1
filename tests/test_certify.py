"""Decay window, certificate assembly, empirical fit, and the bound check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mowave import (
    AffineAlpha,
    ConfigError,
    ConstantAlpha,
    ConstantBeta,
    DampingParams,
    EnergySeries,
    ExponentialBeta,
    PolynomialBeta,
    SaturatingAlpha,
    UnsupportedConfigError,
    build_certificate,
    check_decay_bound,
    fit_decay,
    window_edges,
)
from mowave.certify import DecayCertificate, _branch, _cross_term_root

# root of lambda^3 - 2 lambda^2 + 4 lambda - 2 = 0, the binding cross-term
# condition at a = b = 1 (frozen; re-derived independently in the acceptance
# suite)
WINDOW_HI_A1_B1 = 0.6388969194710322


def standard_slacks(a, b, lam):
    """The b > 0 inequalities (i)-(iii), restated; admissible iff all >= 0."""
    return (a - 1.5 * lam, 2.0 * b * (a - 1.5 * lam) - lam * (lam - a) ** 2, 0.9 * math.sqrt(b) - lam)


def remark1_slacks(a, omega, lam):
    """The b = 0 inequalities (i)-(iv), restated; (ii) must stay strictly positive."""
    return (
        a - 1.5 * lam,
        1.0 - a * lam * omega * omega,
        0.5 * a - lam * (1.5 + 0.5 * a * a * omega * omega),
        0.9 - lam * omega,
    )


def assert_top_of_component(slacks, hi):
    """slacks holds on [0, hi] (sampled, plus hi itself) and fails just above hi."""
    for lam in np.linspace(0.0, hi, 64):
        assert min(slacks(float(lam))) >= -1e-12
    assert min(slacks(hi * (1.0 + 1e-7))) < 0.0


def scan_floor(beta, rho, T, points=2001, rounds=4):
    """Dense-scan oracle for lambda_lo: scan [0, T], then rescan around the best sample."""
    coeffs = np.asarray(beta.coeffs)
    deriv = np.polynomial.polynomial.polyder(coeffs)
    best = -math.inf
    # linear plus geometric spacing, so narrow peaks near t = 0 are seen too
    t = np.union1d(np.linspace(0.0, T, points), np.geomspace(1e-9 * T, T, points))
    for _ in range(rounds):
        ratio = np.polynomial.polynomial.polyval(t, deriv) / np.polynomial.polynomial.polyval(t, coeffs)
        k = int(np.argmax(ratio))
        best = max(best, float(ratio[k]))
        t = np.linspace(t[max(k - 1, 0)], t[min(k + 1, t.size - 1)], points)
    return best / (rho + 1.0)


def series_from(t, E):
    zero = np.zeros(len(t))
    return EnergySeries(
        t=np.asarray(t, dtype=float), E=np.asarray(E, dtype=float), kinetic=zero, gradient=zero,
        restoring=zero, nonlinear=zero, flux=zero,
    )


def make_cert(lam, C):
    return DecayCertificate(
        branch="standard", lambda_lo=0.0, lambda_hi=lam, lam=lam, C=C, conditions=(),
    )


def lambda_floor(beta, rho, T):
    """lambda_lo as window_edges computes it, at a = b = 1 and constant alpha."""
    return window_edges(DampingParams(a=1.0, b=1.0, rho=rho), beta, ConstantAlpha(), T)[0]


class TestLambdaFloor:
    def test_constant_beta(self):
        assert lambda_floor(ConstantBeta(3.0), rho=1.0, T=10.0) == 0.0

    def test_exponential_beta(self):
        assert lambda_floor(ExponentialBeta(beta0=1.0, mu=0.2), rho=1.0, T=10.0) == pytest.approx(
            0.1, abs=1e-12
        )

    def test_polynomial_max_at_left_edge(self):
        # beta = 1 + t: beta'/(2 beta) = 1/(2(1+t)), maximal at t = 0
        floor = lambda_floor(PolynomialBeta(coeffs=(1.0, 1.0)), rho=1.0, T=10.0)
        assert floor == pytest.approx(0.5, abs=1e-6)

    def test_polynomial_interior_max(self):
        # beta = 1 + t^2: beta'/(2 beta) = t/(1+t^2), maximal value 1/2 at t = 1
        floor = lambda_floor(PolynomialBeta(coeffs=(1.0, 0.0, 1.0)), rho=1.0, T=10.0)
        assert floor == pytest.approx(0.5, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.05, 5.0),
        st.lists(st.floats(0.0, 5.0), min_size=0, max_size=5),
        st.floats(0.5, 50.0),
        st.floats(0.5, 3.0),
    )
    def test_polynomial_matches_dense_scan(self, c0, rest, T, rho):
        beta = PolynomialBeta(coeffs=(c0, *rest))
        floor = lambda_floor(beta, rho=rho, T=T)
        oracle = scan_floor(beta, rho, T)
        assert floor >= oracle - 1e-12 * max(1.0, oracle)
        assert floor == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_polynomial_infinite_horizon(self):
        # beta = 1 + t^2 on [0, inf): the interior maximum 1/2 at t = 1 still counts
        floor = lambda_floor(PolynomialBeta(coeffs=(1.0, 0.0, 1.0)), rho=1.0, T=math.inf)
        assert floor == pytest.approx(0.5, abs=1e-15)

    def test_rho_divides_the_floor(self):
        f1 = lambda_floor(ExponentialBeta(beta0=1.0, mu=0.3), rho=1.0, T=5.0)
        f2 = lambda_floor(ExponentialBeta(beta0=1.0, mu=0.3), rho=2.0, T=5.0)
        assert f1 == pytest.approx(0.15, abs=1e-12)
        assert f2 == pytest.approx(0.1, abs=1e-12)


class TestWindow:
    def test_reference_window(self):
        lo, hi = window_edges(
            DampingParams(a=1.0, b=1.0, rho=1.0), ConstantBeta(1.0), ConstantAlpha(), 10.0
        )
        assert lo == 0.0
        assert hi == pytest.approx(WINDOW_HI_A1_B1, abs=2e-6)

    def test_window_of_the_reference_setup(self):
        # the certificate reports the window that window_edges computes
        args = (DampingParams(a=1.0, b=1.0, rho=1.0), ConstantBeta(1.0), ConstantAlpha(), 10.0)
        lo, hi = window_edges(*args)
        cert = build_certificate(*args)
        assert (cert.lambda_lo, cert.lambda_hi) == (lo, hi) and lo == 0.0 < hi

    def test_empty_window_for_fast_growth(self):
        # lo > hi is the empty window, and edges passed in give no certificate either
        args = (
            DampingParams(a=1.0, b=1.0, rho=1.0),
            ExponentialBeta(beta0=1.0, mu=2.0),
            ConstantAlpha(),
            10.0,
        )
        lo, hi = window_edges(*args)
        assert lo > hi
        assert build_certificate(*args, edges=(lo, hi)) is None

    def test_edges_still_reported_when_empty(self):
        lo, hi = window_edges(
            DampingParams(a=1.0, b=1.0, rho=1.0),
            ExponentialBeta(beta0=1.0, mu=2.0),
            ConstantAlpha(),
            10.0,
        )
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert lo > hi

    def test_remark1_window(self):
        # b = 0, a = 1, omega = 1: young_absorption 0.5 - 2 lambda binds
        lo, hi = window_edges(
            DampingParams(a=1.0, b=0.0, rho=1.0), ConstantBeta(1.0), ConstantAlpha(), 10.0
        )
        assert lo == 0.0
        assert hi == pytest.approx(0.25, abs=2e-6)

    def test_remark1_unbounded_affine_unsupported(self):
        with pytest.raises(UnsupportedConfigError):
            window_edges(
                DampingParams(a=1.0, b=0.0, rho=1.0),
                ConstantBeta(1.0),
                AffineAlpha(k=0.5),
                math.inf,
            )

    def test_remark1_saturating_infinite_horizon(self):
        # omega* = 1 + k = 1.5; young_absorption 0.5 - lambda(1.5 + 1.125) binds
        lo, hi = window_edges(
            DampingParams(a=1.0, b=0.0, rho=1.0),
            ConstantBeta(1.0),
            SaturatingAlpha(k=0.5, tau=1.0),
            math.inf,
        )
        assert hi == pytest.approx(0.5 / 2.625, abs=2e-6)

    @pytest.mark.parametrize(
        "alpha",
        [ConstantAlpha(), AffineAlpha(k=0.0), SaturatingAlpha(k=0.5, tau=1.0), SaturatingAlpha(k=0.5, tau=1e10)],
        ids=repr,
    )
    @pytest.mark.parametrize("T", [10.0, 1e12])
    def test_remark1_unbounded_window_lies_inside_every_finite_one(self, alpha, T):
        # sup alpha on [0, inf) bounds alpha(T), so the window on [0, inf) can only be narrower
        params, beta = DampingParams(a=1.0, b=0.0, rho=1.0), ConstantBeta(1.0)
        assert window_edges(params, beta, alpha, math.inf)[1] <= window_edges(params, beta, alpha, T)[1]
        assert alpha.max_length(math.inf) == {ConstantAlpha: 1.0, AffineAlpha: 1.0, SaturatingAlpha: 1.5}[type(alpha)]

    def test_rejects_bad_damping(self):
        with pytest.raises(ConfigError):
            window_edges(DampingParams(a=0.0, b=1.0, rho=1.0), ConstantBeta(1.0), ConstantAlpha(), 1.0)
        with pytest.raises(ConfigError):
            window_edges(DampingParams(a=1.0, b=-1.0, rho=1.0), ConstantBeta(1.0), ConstantAlpha(), 1.0)
        with pytest.raises(ConfigError, match="rho must be positive, got 0.0"):
            window_edges(DampingParams(a=1.0, b=1.0, rho=0.0), ConstantBeta(1.0), ConstantAlpha(), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 0.5), st.floats(0.5, 1.5))
    def test_floor_monotone_in_mu(self, mu_small, gap):
        mu_big = mu_small + gap
        params = DampingParams(a=1.0, b=1.0, rho=1.0)
        lo1, hi1 = window_edges(params, ExponentialBeta(1.0, mu_small), ConstantAlpha(), 10.0)
        lo2, hi2 = window_edges(params, ExponentialBeta(1.0, mu_big), ConstantAlpha(), 10.0)
        assert lo1 < lo2
        assert hi1 == hi2  # the ceiling depends only on (a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(1e-4, 3.0))
    def test_standard_ceiling_is_the_edge(self, a, ratio):
        # ratio = b / a^2; ratio <= 1/9 makes the cubic of (ii) non-monotone
        b = ratio * a * a
        params = DampingParams(a=a, b=b, rho=1.0)
        cert = build_certificate(params, ConstantBeta(1.0), ConstantAlpha(), 10.0)
        assert all(c.satisfied for c in cert.conditions)
        assert_top_of_component(lambda lam: standard_slacks(a, b, lam), cert.lambda_hi)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(0.0, 0.95), st.floats(0.1, 20.0))
    def test_remark1_ceiling_is_the_edge(self, a, k, T):
        params = DampingParams(a=a, b=0.0, rho=1.0)
        cert = build_certificate(params, ConstantBeta(1.0), AffineAlpha(k=k), T)
        assert all(c.satisfied for c in cert.conditions)
        omega = 1.0 + k * T
        hi = cert.lambda_hi
        assert_top_of_component(lambda lam: remark1_slacks(a, omega, lam), hi)
        assert remark1_slacks(a, omega, hi)[1] > 0.0  # the budget is strict

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_constant_beta_window_never_empty(self, a, b):
        lo, hi = window_edges(
            DampingParams(a=a, b=b, rho=1.0), ConstantBeta(1.0), ConstantAlpha(), 10.0
        )
        assert lo == 0.0
        assert hi > 0.0


def cubic_root_to_double(a, b):
    """The real root of g to 50 digits (mpmath), rounded to the nearest double.

    l0 = 2ab/(a^2 + 3b) is the root of g's linear part, so with lambda =
    l0 (1 + w), g/(2ab) = -w + l0^2 (1 + w)^2 (2a - l0 (1 + w))/(2ab), a sum
    free of cancellation. It is positive at w = 0 and negative at w = 1, and
    w is solved to 50 digits absolute.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        A, B = mpmath.mpf(a), mpmath.mpf(b)
        l0 = 2 * A * B / (A * A + 3 * B)

        def h(w):
            return -w + l0**2 * (1 + w) ** 2 * (2 * A - l0 * (1 + w)) / (2 * A * B)

        assert h(0) > 0 > h(1)
        return float(l0 * (1 + mpmath.findroot(h, (0, 1), solver="anderson")))


class TestCrossTermRoot:
    # a in [1e-100, 1e100] and b/a^2 in [1e-12, 1e12], where the coefficients are finite
    GRID = [
        (a, c * a * a)
        for a in (10.0**e for e in range(-100, 101, 10))
        for c in (10.0**e for e in range(-12, 13, 2))
        if math.isfinite(2.0 * a * (c * a * a))
    ]

    def test_nearest_double_on_a_log_grid(self):
        assert len(self.GRID) == 270  # 3 of the 21 x 13 pairs overflow 2ab
        wrong = [(a, b) for a, b in self.GRID if _cross_term_root(a, b) != cubic_root_to_double(a, b)]
        assert wrong == []

    @pytest.mark.parametrize(
        "a, b, root",
        # np.roots returned 0.0 for the first two (lambda_hi = 0); a naive
        # Cardano overflows from a = 1e51 upward
        [(1e60, 1.0, 2e-60), (1e150, 1e150, 2.0), (1e51, 1.0, 2e-51), (1.0, 1.0, 0.6388969194713526)],
    )
    def test_nearest_double_at_the_extremes(self, a, b, root):
        assert _cross_term_root(a, b) == cubic_root_to_double(a, b) == pytest.approx(root, rel=1e-15)

    @pytest.mark.parametrize("a, b", [(1e60, 1.0), (1e150, 1e150)])
    def test_a_tiny_root_is_certified(self, a, b):
        cert = build_certificate(DampingParams(a=a, b=b, rho=1.0), ConstantBeta(1.0), ConstantAlpha(), 10.0)
        assert cert.lambda_hi == pytest.approx(2.0 * b / a, rel=1e-15)
        assert all(c.satisfied for c in cert.conditions)

    @pytest.mark.parametrize("a, b", [(1e300, 1.0), (1e100, 1e300), (1.0, 1e308)])
    def test_coefficient_overflow_is_unsupported(self, a, b):
        with pytest.raises(UnsupportedConfigError, match="overflow the cubic of condition"):
            _cross_term_root(a, b)


def ratio_of(a, b, lam, alpha=ConstantAlpha(), T=10.0):
    """_branch's ratio r at rate lam; the constant is C = (1 + r)/(1 - r)."""
    return _branch(DampingParams(a=a, b=b, rho=1.0), alpha, T, lam)[2]


class TestConstantC:
    def test_examples(self):
        # b > 0: r = lambda/sqrt(b)
        assert ratio_of(1.0, 1.0, 0.5) == 0.5
        assert ratio_of(4.0, 4.0, 1.0) == 0.5
        # b = 0: r = lambda |Omega*|, and |Omega*| = 1 for constant alpha, 1 + k T for affine
        assert ratio_of(1.0, 0.0, 0.2) == 0.2
        assert ratio_of(1.0, 0.0, 0.05, AffineAlpha(k=0.5), 4.0) == pytest.approx(0.05 * 3.0)

    def test_limit_at_zero(self):
        assert ratio_of(1.0, 1.0, 0.0) == 0.0
        assert ratio_of(1.0, 0.0, 0.0) == 0.0

    def test_monotone_in_lambda(self):
        for b in (1.0, 0.0):
            vals = [ratio_of(1.0, b, lam) for lam in (0.1, 0.3, 0.5, 0.6)]
            assert all(u < v for u, v in zip(vals, vals[1:]))

    @pytest.mark.parametrize("b", [1.0, 0.0])
    def test_certificate_constant_is_the_ratio_at_lambda_hi(self, b):
        params = DampingParams(a=1.0, b=b, rho=1.0)
        cert = build_certificate(params, ConstantBeta(1.0), ConstantAlpha(), 10.0)
        r = ratio_of(1.0, b, cert.lambda_hi)
        assert r == (cert.lambda_hi / math.sqrt(b) if b > 0.0 else cert.lambda_hi)
        assert cert.C == (1.0 + r) / (1.0 - r)


class TestBuildCertificate:
    def reference_args(self):
        return (
            DampingParams(a=1.0, b=1.0, rho=1.0),
            ExponentialBeta(beta0=1.0, mu=0.1),
            SaturatingAlpha(k=0.5, tau=1.0),
            10.0,
        )

    def test_reference_certificate(self):
        cert = build_certificate(*self.reference_args())
        assert cert is not None
        assert cert.branch == "standard"
        assert cert.lambda_lo == pytest.approx(0.05, abs=1e-12)
        assert cert.lam == cert.lambda_hi
        assert cert.C >= 1.0
        assert all(c.satisfied for c in cert.conditions)
        names = [c.name for c in cert.conditions]
        assert names == ["beta_growth", "ut2_coefficient", "cross_term_psd", "coercivity"]

    def test_empty_window_returns_none(self):
        params, _, alpha, T = self.reference_args()
        assert build_certificate(params, ExponentialBeta(1.0, 2.0), alpha, T) is None

    def test_remark1_certificate_constant(self):
        cert = build_certificate(
            DampingParams(a=1.0, b=0.0, rho=1.0), ConstantBeta(1.0), ConstantAlpha(), 10.0
        )
        assert cert.branch == "remark1"
        assert cert.lambda_hi == pytest.approx(0.25, abs=2e-6)
        assert cert.C == pytest.approx(5.0 / 3.0, abs=1e-4)
        names = [c.name for c in cert.conditions]
        assert names == [
            "beta_growth",
            "ut2_coefficient",
            "poincare_budget",
            "young_absorption",
            "coercivity",
        ]

    def test_only_the_poincare_budget_is_strict(self):
        # b = 0, a = 1, |Omega*| = 1: a lambda |Omega*|^2 = 1 at lambda = 1, lambda |Omega*| = 0.9 at 0.9
        params = DampingParams(a=1.0, b=0.0, rho=1.0)
        budget = _branch(params, ConstantAlpha(), 10.0, 1.0)[1][1]
        coercivity = _branch(params, ConstantAlpha(), 10.0, 0.9)[1][3]
        assert (budget.name, budget.value, budget.satisfied) == ("poincare_budget", 0.0, False)
        assert (coercivity.name, coercivity.value, coercivity.satisfied) == ("coercivity", 0.0, True)

    def test_json_shape(self):
        cert = build_certificate(*self.reference_args())
        blob = cert.to_json()
        assert set(blob) == {"branch", "lambda_lo", "lambda_hi", "lambda", "C", "conditions"}
        assert blob["lambda"] == cert.lam
        for entry in blob["conditions"]:
            assert set(entry) == {"name", "value", "satisfied"}

    def test_bound_values(self):
        cert = make_cert(lam=0.5, C=2.0)
        times = np.array([0.0, 1.0, 2.0])
        vals = cert.bound_values(times, e0=3.0)
        assert np.allclose(vals, 6.0 * np.exp(-0.5 * times), atol=1e-14)


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 4.0, 41)
        assert fit_decay(series_from(t, 5.0 * np.exp(-0.5 * t))) == pytest.approx(0.5, abs=1e-12)

    def test_oscillating_envelope(self):
        t = np.linspace(0.0, 6.0, 301)
        E = np.exp(-t) * (1.0 + 0.1 * np.sin(10.0 * t))
        assert fit_decay(series_from(t, E)) == pytest.approx(1.0, abs=0.02)

    def test_constant_series(self):
        t = np.linspace(0.0, 2.0, 21)
        assert fit_decay(series_from(t, np.full_like(t, 3.0))) == pytest.approx(0.0, abs=1e-12)

    def test_floor_prunes_dead_tail(self):
        t = np.linspace(0.0, 10.0, 101)
        E = np.exp(-0.5 * t)
        E[60:] = 0.0
        assert fit_decay(series_from(t, E)) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_polyfit(self, seed):
        # the slope comes from centred sums; np.polyfit is the oracle
        rng = np.random.default_rng(seed)
        # E stays above the floor, so every sample is fitted
        t = np.sort(rng.uniform(0.0, rng.uniform(1.0, 10.0), rng.integers(10, 2000)))
        rate, offset = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0), rng.uniform(-5.0, 5.0)
        logE = offset - rate * t + rng.normal(0.0, rng.uniform(0.0, 0.5), t.size)
        slope, _ = np.polyfit(t, logE, 1)
        assert fit_decay(series_from(t, np.exp(logE))) == pytest.approx(-slope, rel=1e-12)

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 5)
        assert fit_decay(series_from(t, np.exp(-t))) is None

    def test_zero_start(self):
        t = np.linspace(0.0, 1.0, 20)
        assert fit_decay(series_from(t, np.zeros_like(t))) is None


class TestCheckDecayBound:
    def test_zero_solution_holds(self):
        t = np.linspace(0.0, 1.0, 11)
        rep = check_decay_bound(series_from(t, np.zeros_like(t)), make_cert(0.5, 2.0))
        assert rep.holds is True
        assert rep.worst_margin == 0.0
        assert rep.first_violation is None

    def test_energy_from_zero_data_fails_against_the_zero_bound(self):
        # E(0) = 0 makes the bound 0 everywhere: a later E > 0 has ratio inf, and no numpy warning
        t = np.linspace(0.0, 1.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_decay_bound(series_from(t, [0.0, 0.0, 1e-3, 0.0, 0.0]), make_cert(0.5, 2.0))
        assert (rep.holds, rep.worst_margin, rep.first_violation) == (False, math.inf, t[2])

    def test_true_decay_passes(self):
        t = np.linspace(0.0, 5.0, 51)
        rep = check_decay_bound(series_from(t, np.exp(-0.6 * t)), make_cert(0.5, 1.5))
        assert rep.holds is True
        assert rep.worst_margin <= 1.0

    def test_constant_series_violates(self):
        t = np.linspace(0.0, 5.0, 51)
        rep = check_decay_bound(series_from(t, np.ones_like(t)), make_cert(0.1, 1.0))
        assert rep.holds is False
        assert rep.first_violation == pytest.approx(t[1], abs=1e-12)
        assert rep.worst_margin > 1.0

    def test_tolerance_includes_discretization_allowance(self):
        t = np.linspace(0.0, 1.0, 11)
        rep = check_decay_bound(
            series_from(t, np.exp(-t)), make_cert(1.0, 1.0), dt=0.01, rate_residual=2.0
        )
        assert rep.tol == pytest.approx(1e-6 + 10.0 * 0.01**2 * 2.0, abs=1e-15)

    def test_zero_energy_holds_and_positive_energy_fails_against_an_underflowed_bound(self):
        # exp(-lambda t) underflows to 0 for t past about 745 / lambda; E / bound would read 0/0 and
        # x/0 there, each with a numpy warning
        t = np.array([0.0, 1.0, 800.0, 900.0])
        cert = make_cert(1.0, 2.0)
        assert list(cert.bound_values(t, 1.0)[2:]) == [0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = check_decay_bound(series_from(t, [1.0, 0.5, 0.0, 0.0]), cert)
            broken = check_decay_bound(series_from(t, [1.0, 0.5, 0.0, 1e-300]), cert)
        assert (held.holds, held.worst_margin, held.first_violation) == (True, 0.5 / cert.bound_values(t, 1.0)[1], None)
        assert (broken.holds, broken.worst_margin, broken.first_violation) == (False, math.inf, 900.0)

    def test_margin_just_inside_tolerance(self):
        t = np.array([0.0, 1.0])
        lam = 0.5
        E = np.exp(-lam * t)
        E[1] *= 1.0 + 5e-7  # inside the 1e-6 default tolerance
        rep = check_decay_bound(series_from(t, E), make_cert(lam, 1.0))
        assert rep.holds is True
        assert rep.worst_margin > 1.0
