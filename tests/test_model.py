from __future__ import annotations  # field annotations are strings, as in mowave.model

import math
import pickle
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mowave import (
    FAMILIES,
    AffineAlpha,
    Bump,
    ConfigError,
    ConstantAlpha,
    ConstantBeta,
    DampingParams,
    ExponentialBeta,
    GridSamples,
    ManufacturedField,
    PolynomialBeta,
    ProblemSpec,
    SaturatingAlpha,
    SineMode,
    UnsupportedConfigError,
    spec_from_dict,
    spec_to_dict,
    validate_assumptions,
)
from mowave.model import AlphaFamily, AssumptionCheck, BetaFamily, _negative_at, on_times


def make_spec(**overrides):
    base = dict(
        damping=DampingParams(a=1.0, b=1.0, rho=1.0),
        beta=ExponentialBeta(beta0=1.0, mu=0.1),
        alpha=SaturatingAlpha(k=0.5, tau=1.0),
        init=SineMode(m=1, amp_u0=1.0, amp_u1=0.0),
        horizon=10.0,
    )
    base.update(overrides)
    return ProblemSpec(**base)


def beta_prime_exact(beta, t):
    """beta'(t) of a PolynomialBeta in exact rational arithmetic."""
    return sum(k * Fraction(c) * Fraction(t) ** (k - 1) for k, c in enumerate(beta.coeffs) if k)


# strategies for admissible families
alphas = st.one_of(
    st.just(ConstantAlpha()),
    st.floats(0.0, 0.95).map(AffineAlpha),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.05, 0.95)).map(
        lambda kt: SaturatingAlpha(k=kt[0], tau=max(kt[0] / kt[1], 0.1))
    ),
)
betas = st.one_of(
    st.floats(0.01, 10.0).map(ConstantBeta),
    st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 2.0)).map(
        lambda bm: ExponentialBeta(beta0=bm[0], mu=bm[1])
    ),
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4).map(
        lambda cs: PolynomialBeta(coeffs=(1.0 + cs[0],) + tuple(cs[1:]))
    ),
)


class TestAlphaFamilies:
    def test_constant(self):
        assert ConstantAlpha().eval(3.7) == (1.0, 0.0, 0.0)
        assert ConstantAlpha().sup_prime() == 0.0

    def test_affine(self):
        al, ap, app = AffineAlpha(0.5).eval(2.0)
        assert al == 2.0 and ap == 0.5 and app == 0.0
        assert AffineAlpha(0.5).sup_prime() == 0.5

    def test_saturating(self):
        fam = SaturatingAlpha(k=0.5, tau=2.0)
        al, ap, app = fam.eval(0.0)
        assert al == 1.0
        assert ap == 0.25
        assert app == -0.125
        assert fam.sup_prime() == 0.25
        # approaches 1 + k
        assert fam.eval(1e3)[0] == pytest.approx(1.5)

    def test_saturating_needs_positive_tau(self):
        with pytest.raises(ConfigError):
            SaturatingAlpha(k=0.5, tau=0.0)

    @settings(max_examples=60)
    @given(alphas, st.floats(0.001, 50.0))
    def test_admissible_families_expand_subcharacteristically(self, fam, t):
        al, ap, _ = fam.eval(t)
        assert al >= 1.0
        assert 0.0 <= ap < 1.0
        assert ap <= fam.sup_prime() + 1e-12

    @settings(max_examples=40)
    @given(alphas, st.floats(0.1, 20.0))
    def test_derivatives_match_central_differences(self, fam, t):
        h = 1e-5
        al_m, ap_m, _ = fam.eval(t - h)
        al, ap, app = fam.eval(t)
        al_p, ap_p, _ = fam.eval(t + h)
        assert (al_p - al_m) / (2 * h) == pytest.approx(ap, abs=1e-8, rel=1e-6)
        assert (ap_p - ap_m) / (2 * h) == pytest.approx(app, abs=1e-8, rel=1e-6)


class TestBetaFamilies:
    def test_constant(self):
        assert ConstantBeta(2.5).eval(9.0) == (2.5, 0.0)

    def test_exponential(self):
        val, der = ExponentialBeta(beta0=2.0, mu=0.3).eval(1.0)
        assert val == pytest.approx(2.0 * math.exp(0.3))
        assert der == pytest.approx(0.6 * math.exp(0.3))

    def test_polynomial_horner(self):
        beta = PolynomialBeta(coeffs=(1.0, 2.0, 3.0))
        val, der = beta.eval(2.0)
        assert val == pytest.approx(1.0 + 4.0 + 12.0)
        assert der == pytest.approx(2.0 + 12.0)

    def test_polynomial_empty_rejected(self):
        with pytest.raises(ConfigError):
            PolynomialBeta(coeffs=())

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1.0, 3.0, -3.0, 1.0),  # 2 + (t - 1)^3: beta' = 3 (t - 1)^2, a double root at t = 1
            (1.0, 1.0, -0.1, 0.01),  # beta' = 1 - 0.2 t + 0.03 t^2 has no real root
        ],
    )
    def test_polynomial_with_negative_coefficients_passes_when_beta_prime_stays_nonnegative(self, coeffs):
        check = PolynomialBeta(coeffs).check()
        assert check.passed, check.detail

    @pytest.mark.parametrize(
        "coeffs, shown",
        [
            ((1.0, 2.0, -1.0), "4.0"),  # beta' = 2 - 2t leads negative
            ((2.0, -1.0, 1.0), "0.0"),  # beta'(0) = -1
            ((1.0, 0.0, 0.0, -1e-9, 1e-6), "0.00037500000000000006"),  # beta' = t^2 (4e-6 t - 3e-9) < 0 on (0, 7.5e-4)
            # near the largest double, where 1e300 |d_0| and the coefficient 2 (-1e308) of beta' are not doubles
            ((1.0, -1e300, 1e300), "0.0"),
            ((1.0,) * 16 + (-1e300,), "3.3249515845711534e-20"),
            ((1.0, 1e308, -1e308), "2.0"),  # beta' = 1e308 - 2e308 t
        ],
    )
    def test_polynomial_fail_names_a_t_where_beta_prime_is_negative(self, coeffs, shown):
        beta = PolynomialBeta(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check = beta.check()
        assert not check.passed
        assert check.detail == f"PolynomialBeta: beta' < 0 at t = {shown}"
        assert beta_prime_exact(beta, float(shown)) < 0

    @pytest.mark.xfail(
        strict=True, reason="(A2) reads beta' between np.roots' roots with a rounding tolerance, not exactly"
    )
    def test_polynomial_fails_when_beta_prime_dips_below_zero_between_close_roots(self):
        # exact doubles with beta' = 3 ((t - 1)^2 - 2^-50): negative on an interval of width 6e-8 around t = 1
        beta = PolynomialBeta((1.0, 3.0 - 3.0 * 2.0**-50, -3.0, 1.0))
        assert beta_prime_exact(beta, 1.0) == -3 * Fraction(2) ** -50
        assert not beta.check().passed

    def test_polynomial_a2_is_exact_up_to_degree_16(self):
        # beta = 1 + t + ... + t^15 - t^16: beta' leads negative; past degree 16 the check stops before np.roots
        beta = PolynomialBeta((1.0,) * 16 + (-1.0,))
        assert beta.check().detail == "PolynomialBeta: beta' < 0 at t = 3.75"
        assert beta_prime_exact(beta, 3.75) < 0
        long = PolynomialBeta((1.0, 1.0, -0.1) + (1.0,) * 400)
        assert long.check() == AssumptionCheck(
            "A2", False, "PolynomialBeta: degree 402; beta is admitted only up to degree 16"
        )

    def test_one_degree_cap_for_every_polynomial_beta(self):
        # nonnegative coefficients no longer pass at any degree: one cap, checked before any root is sought
        for coeffs in ((1.0,) * 18, (1.0,) * 403, (1.0,) + (0.0,) * 20 + (2.0,)):
            beta = PolynomialBeta(coeffs)
            assert beta.degree == len(coeffs) - 1
            assert beta.check() == AssumptionCheck(
                "A2", False, f"PolynomialBeta: degree {beta.degree}; beta is admitted only up to degree 16"
            )
            with pytest.raises(UnsupportedConfigError, match="only up to degree 16"):
                beta.sup_ratio(1.0)
        # the degree counts the last nonzero coefficient, so trailing zeros keep a beta under the cap
        at_cap = PolynomialBeta((1.0,) * 17 + (0.0,) * 5)
        assert at_cap.degree == 16 and at_cap.check().passed
        assert at_cap.sup_ratio(1.0) == PolynomialBeta((1.0,) * 17).sup_ratio(1.0)

    @settings(max_examples=300, deadline=None)  # about 25 ms an example; 200 ms is missed under load
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    def test_polynomial_a2_is_beta_prime_nonnegative_on_the_half_line(self, rest):
        beta = PolynomialBeta(coeffs=(1.0, *rest))
        check = beta.check()
        d = [k * c for k, c in enumerate(beta.coeffs)][1:]
        while d and d[-1] == 0.0:
            d.pop()
        if "span more than" in check.detail:
            assert not check.passed and max(map(abs, d)) > 1e300 * abs(d[-1])
        elif not check.passed:
            t = _negative_at(np.array(d[::-1]))
            assert check.detail == f"PolynomialBeta: beta' < 0 at t = {t!r}"
            assert beta_prime_exact(beta, float(check.detail.rpartition(" = ")[2])) < 0  # at the printed t
        else:
            assert all(beta_prime_exact(beta, t) >= 0 for t in np.linspace(0.0, 100.0, 1001).tolist())

    @settings(max_examples=60)
    @given(betas, st.floats(0.0, 30.0))
    def test_admissible_families_positive_nondecreasing(self, fam, t):
        val, der = fam.eval(t)
        assert val > 0.0
        assert der >= -1e-12 * max(1.0, abs(val))


class TestArrayEval:
    """eval on an array of times is the float eval at each time, bit for bit."""

    times = np.concatenate(([0.0, 1e-300, 0.5, 10.0], np.random.default_rng(7).uniform(0.0, 12.0, 127)))

    @pytest.mark.parametrize(
        "fam",
        [
            ConstantAlpha(),
            AffineAlpha(0.3),
            SaturatingAlpha(k=0.5, tau=1.0),
            SaturatingAlpha(k=2.0, tau=3.7),
            ConstantBeta(2.0),
            ExponentialBeta(beta0=1.5, mu=0.3),
            ExponentialBeta(beta0=1.0, mu=50.0),
            PolynomialBeta((1.0, 0.5, 0.25)),
            PolynomialBeta((2.0,)),
        ],
        ids=repr,
    )
    def test_array_eval_is_the_float_eval_at_each_time(self, fam):
        together = on_times(fam.eval(self.times), self.times)
        assert together.shape == (len(fam.eval(0.0)), self.times.size) and not together.flags.writeable
        for j, t in enumerate(self.times.tolist()):
            assert np.array(fam.eval(t), dtype=float).tobytes() == together[:, j].tobytes()


class TestInitialData:
    def test_sine_mode_nodes(self):
        y = np.linspace(0.0, 1.0, 5)
        u0, u1 = SineMode(m=1, amp_u0=1.0, amp_u1=0.0).sample(y)
        s = math.sqrt(2.0) / 2.0
        assert u0 == pytest.approx([0.0, s, 1.0, s, 0.0], abs=1e-15)
        assert u1 == pytest.approx([0.0] * 5)

    def test_sine_mode_m2_vanishes_midpoint(self):
        y = np.linspace(0.0, 1.0, 5)
        u0, _ = SineMode(m=2, amp_u0=3.0).sample(y)
        assert u0[2] == pytest.approx(0.0, abs=1e-14)
        assert u0[1] == pytest.approx(3.0)

    def test_bump_support_and_positivity(self):
        y = np.linspace(0.0, 1.0, 101)
        u0, u1 = Bump(center=0.5, width=0.2, amp=2.0).sample(y)
        assert u0[0] == 0.0 and u0[-1] == 0.0
        assert np.all(u0[np.abs(y - 0.5) >= 0.2] == 0.0)
        assert np.all(u0[np.abs(y - 0.5) < 0.19] > 0.0)
        assert u0.max() == pytest.approx(2.0)
        assert np.all(u1 == 0.0)

    def test_grid_samples_length_mismatch(self):
        data = GridSamples(u0=(0.0, 1.0, 0.0), u1=(0.0, 0.0, 0.0))
        with pytest.raises(ConfigError):
            data.sample(np.linspace(0.0, 1.0, 9))

    def test_grid_samples_unequal_lengths(self):
        with pytest.raises(ConfigError):
            GridSamples(u0=(0.0, 1.0, 0.0), u1=(0.0, 0.0))


class TestValidation:
    def test_reference_spec_accepted(self):
        report = validate_assumptions(make_spec())
        assert report.ok, report.summary()

    def test_affine_k1_fails_a1_with_diagnostic(self):
        report = validate_assumptions(make_spec(alpha=AffineAlpha(1.0)))
        assert not report.ok
        (failure,) = report.failures
        assert failure.name == "A1"
        assert "sup α'(t)<1" in failure.detail

    def test_shrinking_domain_fails(self):
        report = validate_assumptions(make_spec(alpha=AffineAlpha(-0.1)))
        assert not report.ok

    def test_negative_mu_fails_a2(self):
        report = validate_assumptions(make_spec(beta=ExponentialBeta(1.0, -0.5)))
        assert any(c.name == "A2" and not c.passed for c in report.checks)

    def test_nonpositive_rho_fails_a3(self):
        report = validate_assumptions(make_spec(damping=DampingParams(1.0, 1.0, 0.0)))
        assert any(c.name == "A3" and not c.passed for c in report.checks)

    def test_nonpositive_a_fails(self):
        report = validate_assumptions(make_spec(damping=DampingParams(0.0, 1.0, 1.0)))
        assert any(c.name == "damping" and not c.passed for c in report.checks)

    def test_b_zero_accepted(self):
        report = validate_assumptions(make_spec(damping=DampingParams(1.0, 0.0, 1.0)))
        assert report.ok

    def test_bump_leaving_interval_fails(self):
        report = validate_assumptions(make_spec(init=Bump(center=0.1, width=0.25)))
        assert any(c.name == "init" and not c.passed for c in report.checks)

    def test_grid_samples_nonzero_endpoint_fails(self):
        init = GridSamples(u0=(0.5, 1.0, 0.0), u1=(0.0, 0.0, 0.0))
        report = validate_assumptions(make_spec(init=init))
        assert any(c.name == "init" and not c.passed for c in report.checks)

    def test_linear_mode_flagged_not_failed(self):
        report = validate_assumptions(make_spec(linear_mode=True))
        assert report.ok
        a2 = next(c for c in report.checks if c.name == "A2")
        assert "linear_mode" in a2.detail

    def test_nonpositive_horizon_fails(self):
        report = validate_assumptions(make_spec(horizon=0.0))
        assert any(c.name == "horizon" and not c.passed for c in report.checks)

    @pytest.mark.parametrize(
        "beta, horizon",
        [
            (ExponentialBeta(beta0=1.0, mu=1000.0), 1.0),  # exp(mu T) itself overflows
            (ExponentialBeta(beta0=1e300, mu=30.0), 1.0),  # beta0 exp(mu T) overflows
            (ExponentialBeta(beta0=1e307, mu=100.0), 0.01),  # only beta' = mu beta overflows
            (ExponentialBeta(beta0=-1.0, mu=1000.0), 1.0),  # fails A2 too, without raising
            (PolynomialBeta((1.0, 1e300, 1e300)), 1e5),
        ],
    )
    def test_beta_beyond_doubles_fails(self, beta, horizon):
        report = validate_assumptions(make_spec(beta=beta, horizon=horizon))
        (check,) = [c for c in report.checks if c.name == "beta(T)"]
        assert not check.passed and not report.ok

    @pytest.mark.parametrize(
        "beta, shown",
        [
            (PolynomialBeta((1.0, 2.0, -1.0)), "beta(T) = -79, beta'(T) = -18"),
            (ExponentialBeta(beta0=-1.0, mu=0.1), "beta(T) = -2.71828, beta'(T) = -0.271828"),
            (ConstantBeta(0.0), "beta(T) = 0, beta'(T) = 0"),
        ],
    )
    def test_beta_not_positive_at_the_horizon_fails(self, beta, shown):
        check = beta.check_range(10.0)
        assert check == AssumptionCheck("beta(T)", False, f"{shown} at T = 10: beta(T) is not positive")

    def test_beta_just_inside_doubles_passes(self):
        # log beta'(T) = log 2 + log 1 + 2 * 354 = 708.69 < 709.78
        report = validate_assumptions(make_spec(beta=ExponentialBeta(beta0=1.0, mu=2.0), horizon=354.0))
        assert report.ok, report.summary()


class TestConfigParsing:
    def config(self):
        return {
            "damping": {"a": 1.0, "b": 1.0, "rho": 1.0},
            "beta": {"variant": "exponential", "beta0": 1.0, "mu": 0.1},
            "alpha": {"variant": "saturating", "k": 0.5, "tau": 1.0},
            "init": {"variant": "sine", "m": 1, "amp_u0": 1.0, "amp_u1": 0.0},
            "horizon": 10.0,
        }

    def test_roundtrip(self):
        spec = spec_from_dict(self.config())
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_roundtrip_all_variants(self):
        cfg = self.config()
        cfg["beta"] = {"variant": "polynomial", "coeffs": [1.0, 0.5]}
        cfg["alpha"] = {"variant": "affine", "k": 0.25}
        cfg["init"] = {"variant": "bump", "center": 0.5, "width": 0.2, "amp": 1.5}
        cfg["manufactured"] = {"amp": 1.0, "rate": 2.0, "mode": 2}
        spec = spec_from_dict(cfg)
        assert isinstance(spec.beta, PolynomialBeta)
        assert isinstance(spec.source, ManufacturedField)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_top_level_key_rejected(self):
        cfg = self.config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            spec_from_dict(cfg)

    def test_unknown_section_key_rejected(self):
        cfg = self.config()
        cfg["beta"]["rate"] = 1.0
        with pytest.raises(ConfigError, match="unknown keys"):
            spec_from_dict(cfg)

    def test_missing_key_rejected(self):
        cfg = self.config()
        del cfg["horizon"]
        with pytest.raises(ConfigError, match="missing keys"):
            spec_from_dict(cfg)

    def test_unknown_variant_rejected(self):
        cfg = self.config()
        cfg["alpha"] = {"variant": "quadratic", "k": 0.5}
        with pytest.raises(ConfigError, match="variant"):
            spec_from_dict(cfg)

    def test_bool_is_not_a_number(self):
        cfg = self.config()
        cfg["damping"]["a"] = True
        with pytest.raises(ConfigError, match="expected a number"):
            spec_from_dict(cfg)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            DampingParams(a=float("inf"), b=1.0, rho=1.0)

    def test_linear_mode_not_in_schema(self):
        cfg = self.config()
        cfg["linear_mode"] = True
        with pytest.raises(ConfigError, match="unknown keys"):
            spec_from_dict(cfg)


# ---------------------------------------------------------------------------
# the family registry


def _section_of(draw, cls, variant=None):
    """A config section for cls: every field drawn by its type, defaults sometimes left out."""
    n = draw(st.integers(2, 5))  # one length for every list field: GridSamples pairs u0 and u1
    section = {} if variant is None else {"variant": variant}
    for name in cls._fields:
        if name in cls._field_defaults and draw(st.booleans()):
            continue
        kind = cls.__annotations__[name]
        if kind == "float":
            section[name] = draw(st.floats(allow_nan=False, allow_infinity=False))
        elif kind == "int":
            section[name] = draw(st.integers(1, 50))
        else:
            section[name] = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    return section


@st.composite
def configs(draw, section, variant, manufactured):
    cfg = {
        "damping": _section_of(draw, DampingParams),
        "horizon": draw(st.floats(allow_nan=False, allow_infinity=False)),
    }
    for name, options in FAMILIES.items():
        chosen = variant if name == section else draw(st.sampled_from(sorted(options)))
        cfg[name] = _section_of(draw, options[chosen], chosen)
    if manufactured:
        cfg["manufactured"] = _section_of(draw, ManufacturedField)
    return cfg


REGISTERED = [(section, variant) for section, options in FAMILIES.items() for variant in options]


class TestRegistry:
    def test_every_family_is_registered(self):
        assert REGISTERED == [
            ("beta", "constant"), ("beta", "exponential"), ("beta", "polynomial"),
            ("alpha", "constant"), ("alpha", "affine"), ("alpha", "saturating"),
            ("init", "sine"), ("init", "bump"), ("init", "samples"),
        ]
        for section, variant in REGISTERED:
            cls = FAMILIES[section][variant]
            assert (cls.section, cls.variant) == (section, variant)

    @pytest.mark.parametrize("manufactured", [False, True], ids=["unforced", "manufactured"])
    @pytest.mark.parametrize("section, variant", REGISTERED, ids=[f"{s}-{v}" for s, v in REGISTERED])
    def test_roundtrip_every_variant(self, section, variant, manufactured):
        @settings(max_examples=25, deadline=None)
        @given(configs(section, variant, manufactured))
        def roundtrip(cfg):
            try:
                spec = spec_from_dict(cfg)
            except ConfigError:  # a range check of the class, e.g. tau or width <= 0
                assume(False)
            assert type(getattr(spec, section)).variant == variant
            assert (spec.source is not None) == manufactured
            assert spec_from_dict(spec_to_dict(spec)) == spec

        roundtrip()

    def test_a_variant_enters_the_registry_under_its_base_section(self):
        class QuadraticBeta(BetaFamily, variant="quadratic"):
            c2: float = 1.0

        try:
            assert FAMILIES["beta"]["quadratic"] is QuadraticBeta
            assert (QuadraticBeta.section, QuadraticBeta.variant) == ("beta", "quadratic")
            assert [where for _, where, _ in QuadraticBeta._checks] == ["beta.c2"]
            spec = spec_from_dict(dict(TestConfigParsing().config(), beta={"variant": "quadratic", "c2": 2}))
            assert spec.beta == QuadraticBeta(2.0) and spec_to_dict(spec)["beta"] == {"variant": "quadratic", "c2": 2.0}
            with pytest.raises(ConfigError, match=r"beta: unknown keys \['mu'\]"):
                spec_from_dict(dict(TestConfigParsing().config(), beta={"variant": "quadratic", "mu": 2.0}))
        finally:
            del FAMILIES["beta"]["quadratic"]
        assert list(FAMILIES["beta"]) == ["constant", "exponential", "polynomial"]

    def test_a_field_of_a_type_without_a_check_fails_when_its_class_is_made(self):
        with pytest.raises(KeyError, match="complex"):

            class ComplexAlpha(AlphaFamily, variant="complex"):
                z: complex

        assert list(FAMILIES["alpha"]) == ["constant", "affine", "saturating"]

    def test_a_class_that_annotates_no_fields_keeps_its_base_field_table(self):
        class SteadyAffine(AffineAlpha):
            def sup_prime(self) -> float:
                return self.k

        assert (SteadyAffine.section, SteadyAffine.variant) == ("alpha", None)
        assert SteadyAffine._fields == ("k",) and SteadyAffine._checks == AffineAlpha._checks
        assert SteadyAffine not in FAMILIES["alpha"].values()
        with pytest.raises(ConfigError, match="alpha.k: expected a number"):
            SteadyAffine(k="0.5")

    def test_required_keys_are_the_fields_without_defaults(self):
        cfg = TestConfigParsing().config()
        with pytest.raises(ConfigError, match=r"beta: missing keys \['coeffs'\]"):
            spec_from_dict(dict(cfg, beta={"variant": "polynomial"}))
        with pytest.raises(ConfigError, match=r"alpha: missing keys \['k'\]"):
            spec_from_dict(dict(cfg, alpha={"variant": "saturating"}))
        assert spec_from_dict(dict(cfg, init={"variant": "bump"})).init == Bump()

    def test_readme_families_table_is_the_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("The families:", 1)[1].split("\n\n", 2)[1]
        rows = []
        for line in table.splitlines()[2:]:
            section, variant, names = (cell.strip() for cell in line.strip("|").split("|")[:3])
            rows.append((section, variant.strip("`"), tuple(re.findall(r"`(\w+)`", names))))
        assert rows == [
            (section, variant, FAMILIES[section][variant]._fields)
            for section, variant in REGISTERED
        ]


# ---------------------------------------------------------------------------
# records: frozen, compared by class and fields


class TestRecords:
    def test_a_field_cannot_be_assigned_or_deleted(self):
        spec = make_spec()
        check = validate_assumptions(spec).checks[0]
        for record, name in ((spec, "horizon"), (spec.damping, "a"), (spec.alpha, "k"), (check, "passed")):
            with pytest.raises(AttributeError):
                setattr(record, name, 2.0)
        for record, name in ((spec, "horizon"), (spec.beta, "mu")):
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert (spec.horizon, spec.damping.a, spec.alpha.k, spec.beta.mu) == (10.0, 1.0, 0.5, 0.1)

    def test_families_of_different_classes_with_equal_values_are_unequal(self):
        class WiderAlpha(AffineAlpha):
            pass

        assert DampingParams(0.5, 0.25, 1.0) != Bump(0.5, 0.25, 1.0)
        assert WiderAlpha(k=0.5) != AffineAlpha(k=0.5)
        assert AffineAlpha(k=0.5) == AffineAlpha(0.5) and hash(AffineAlpha(k=0.5)) == hash(AffineAlpha(0.5))
        assert ConstantAlpha() == ConstantAlpha() and ConstantAlpha() != ConstantBeta()
        assert {make_spec(): 1}[make_spec()] == 1

    def test_fields_defaults_and_repr(self):
        assert SaturatingAlpha._fields == ("k", "tau") and SaturatingAlpha._field_defaults == {"tau": 1.0}
        assert repr(SaturatingAlpha(k=0.5)) == "SaturatingAlpha(k=0.5, tau=1.0)"
        assert ProblemSpec._fields[-2:] == ("source", "linear_mode")
        for args, kwargs in (((0.5,), {"k": 0.5}), ((), {"tau": 2.0}), ((), {"k": 0.5, "width": 1.0}), ((1, 2, 3), {})):
            with pytest.raises(TypeError):
                SaturatingAlpha(*args, **kwargs)

    def test_replace_makes_the_record_anew(self):
        spec = make_spec()
        assert spec._replace(horizon=3) == make_spec(horizon=3.0)
        assert type(spec._replace(horizon=3).horizon) is float
        with pytest.raises(ConfigError, match="horizon: expected a number"):
            spec._replace(horizon="3")
        assert spec == make_spec()

    def test_records_pickle(self):
        spec = make_spec(source=ManufacturedField(), beta=PolynomialBeta(coeffs=(1.0, 0.5)))
        report = validate_assumptions(spec)
        assert pickle.loads(pickle.dumps((spec, report))) == (spec, report)
