"""Decay window, certificate assembly, empirical fit, and the bound check."""

import math

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
    DegenerateDataError,
    EnergySeries,
    ExponentialBeta,
    PolynomialBeta,
    SaturatingAlpha,
    UnsupportedConfigError,
    build_certificate,
    check_decay_bound,
    fit_decay,
    lambda_window,
    window_edges,
)
from mowave.certify import DecayCertificate, constant_C, lambda_floor

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

    def test_empty_window_for_fast_growth(self):
        win = lambda_window(
            DampingParams(a=1.0, b=1.0, rho=1.0),
            ExponentialBeta(beta0=1.0, mu=2.0),
            ConstantAlpha(),
            10.0,
        )
        assert win is None

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


class TestConstantC:
    def test_examples(self):
        assert constant_C(DampingParams(a=1.0, b=1.0, rho=1.0), 0.5) == pytest.approx(3.0)
        assert constant_C(DampingParams(a=1.0, b=4.0, rho=1.0), 1.0) == pytest.approx(3.0)

    def test_limit_at_zero(self):
        assert constant_C(DampingParams(a=1.0, b=1.0, rho=1.0), 0.0) == 1.0

    def test_monotone_in_lambda(self):
        params = DampingParams(a=1.0, b=1.0, rho=1.0)
        vals = [constant_C(params, lam) for lam in (0.1, 0.3, 0.5, 0.8)]
        assert all(u < v for u, v in zip(vals, vals[1:]))

    def test_rejects_lambda_at_or_above_sqrt_b(self):
        with pytest.raises(ConfigError):
            constant_C(DampingParams(a=1.0, b=1.0, rho=1.0), 1.0)

    def test_rejects_b_zero(self):
        with pytest.raises(ConfigError):
            constant_C(DampingParams(a=1.0, b=0.0, rho=1.0), 0.1)


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

    def test_explicit_lambda_inside_window(self):
        params, beta, alpha, T = self.reference_args()
        cert = build_certificate(params, beta, alpha, T, lam=0.3)
        assert cert.lam == 0.3
        assert cert.C == pytest.approx(constant_C(params, 0.3))

    def test_lambda_outside_window_rejected(self):
        params, beta, alpha, T = self.reference_args()
        with pytest.raises(ConfigError):
            build_certificate(params, beta, alpha, T, lam=0.01)  # below the floor
        with pytest.raises(ConfigError):
            build_certificate(params, beta, alpha, T, lam=0.9)  # above the ceiling

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
        fit = fit_decay(series_from(t, 5.0 * np.exp(-0.5 * t)))
        assert fit.lambda_fit == pytest.approx(0.5, abs=1e-12)
        assert fit.C_fit == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.window == (0.0, 4.0)

    def test_oscillating_envelope(self):
        t = np.linspace(0.0, 6.0, 301)
        E = np.exp(-t) * (1.0 + 0.1 * np.sin(10.0 * t))
        fit = fit_decay(series_from(t, E))
        assert fit.lambda_fit == pytest.approx(1.0, abs=0.02)
        assert fit.r_squared > 0.99

    def test_constant_series(self):
        t = np.linspace(0.0, 2.0, 21)
        fit = fit_decay(series_from(t, np.full_like(t, 3.0)))
        assert fit.lambda_fit == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_floor_prunes_dead_tail(self):
        t = np.linspace(0.0, 10.0, 101)
        E = np.exp(-0.5 * t)
        E[60:] = 0.0
        fit = fit_decay(series_from(t, E))
        assert fit.window[1] < 6.0
        assert fit.lambda_fit == pytest.approx(0.5, abs=1e-9)

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DegenerateDataError):
            fit_decay(series_from(t, np.exp(-t)))

    def test_zero_start(self):
        t = np.linspace(0.0, 1.0, 20)
        with pytest.raises(DegenerateDataError):
            fit_decay(series_from(t, np.zeros_like(t)))


class TestCheckDecayBound:
    def test_zero_solution_holds(self):
        t = np.linspace(0.0, 1.0, 11)
        rep = check_decay_bound(series_from(t, np.zeros_like(t)), make_cert(0.5, 2.0))
        assert rep.holds is True
        assert rep.worst_margin == 0.0
        assert rep.first_violation is None

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

    def test_margin_just_inside_tolerance(self):
        t = np.array([0.0, 1.0])
        lam = 0.5
        E = np.exp(-lam * t)
        E[1] *= 1.0 + 5e-7  # inside the 1e-6 default tolerance
        rep = check_decay_bound(series_from(t, E), make_cert(lam, 1.0))
        assert rep.holds is True
        assert rep.worst_margin > 1.0
