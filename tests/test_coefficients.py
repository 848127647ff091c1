from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mowave import AffineAlpha, ConstantAlpha, SaturatingAlpha
from mowave.solver import coefficient_grids


def transformed_coefficients(y, t, fam):
    """(c_yt, c_yy, c_y, drift) at nodes y and time t, rebuilt from the coefficient_grids columns."""
    al, g, g_sq, app_al = (float(c[0, 0, 0]) for c in coefficient_grids([t], fam))
    return -2.0 * y * g, y * y * g_sq - 1.0 / (al * al), y * (2.0 * g_sq - app_al), y * g


def point_coefficients(y, t, fam):
    """The transformed coefficients at one node y and one time t, by name, as floats."""
    names = ("c_yt", "c_yy", "c_y", "drift")
    return SimpleNamespace(**{name: float(c) for name, c in zip(names, transformed_coefficients(y, t, fam))})


alphas = st.one_of(
    st.just(ConstantAlpha()),
    st.floats(0.0, 0.95).map(AffineAlpha),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.05, 0.95)).map(
        lambda kt: SaturatingAlpha(k=kt[0], tau=max(kt[0] / kt[1], 0.1))
    ),
)


class TestTransformedCoefficients:
    def test_cylindrical_is_the_wave_operator(self):
        tc = point_coefficients(0.7, 3.0, ConstantAlpha())
        assert (tc.c_yt, tc.c_yy, tc.c_y) == (0.0, -1.0, 0.0)

    def test_affine_worked_example(self):
        tc = point_coefficients(1.0, 0.0, AffineAlpha(0.5))
        assert tc.c_yt == pytest.approx(-1.0)
        assert tc.c_yy == pytest.approx(-0.75)
        assert tc.c_y == pytest.approx(0.5)

    def test_saturating_axis_point(self):
        tc = point_coefficients(0.0, 0.0, SaturatingAlpha(0.5, 1.0))
        assert (tc.c_yt, tc.c_yy, tc.c_y) == (0.0, -1.0, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(alphas, st.floats(0.1, 0.9), st.floats(0.0, 5.0))
    def test_against_independent_symbolic_chain_rule(self, fam, y_val, t_val):
        # independent re-derivation: pick a concrete smooth v(y,t), build
        # u(x,t) = v(x/alpha(t), t), and check that u_tt - u_xx at the mapped
        # point equals v_tt + c_yt v_yt + c_yy v_yy + c_y v_y
        import sympy as sp

        y, t, x = sp.symbols("y t x", real=True)
        if isinstance(fam, ConstantAlpha):
            al = sp.Integer(1)
        elif isinstance(fam, AffineAlpha):
            al = 1 + sp.Float(fam.k) * t
        else:
            al = 1 + sp.Float(fam.k) * (1 - sp.exp(-t / sp.Float(fam.tau)))
        v = sp.sin(sp.Rational(23, 10) * y) * sp.cos(sp.Rational(17, 10) * t) + y**3 * sp.exp(-t / 2)
        u = v.subs(y, x / al)
        physical = (sp.diff(u, t, 2) - sp.diff(u, x, 2)).subs(x, al * y)
        point = {y: y_val, t: t_val}
        lhs = float(physical.subs(point))
        tc = point_coefficients(y_val, t_val, fam)
        rhs = float(
            (
                sp.diff(v, t, 2)
                + tc.c_yt * sp.diff(v, y, t)
                + tc.c_yy * sp.diff(v, y, 2)
                + tc.c_y * sp.diff(v, y)
            ).subs(point)
        )
        assert lhs == pytest.approx(rhs, abs=1e-8, rel=1e-8)

    @settings(max_examples=80)
    @given(alphas, st.floats(0.0, 1.0), st.floats(0.0, 20.0))
    def test_c_yy_stays_negative(self, fam, y, t):
        # strict hyperbolicity: (y alpha')^2 < 1 <= alpha^2
        tc = point_coefficients(y, t, fam)
        assert tc.c_yy < 0.0

    def test_grid_helper_matches_pointwise(self):
        fam = SaturatingAlpha(0.5, 1.0)
        y = np.linspace(0.0, 1.0, 11)
        c_yt, c_yy, c_y, drift = transformed_coefficients(y, 0.3, fam)
        al, ap, _ = fam.eval(0.3)
        for i, yi in enumerate(y):
            tc = point_coefficients(float(yi), 0.3, fam)
            assert c_yt[i] == pytest.approx(tc.c_yt)
            assert c_yy[i] == pytest.approx(tc.c_yy)
            assert c_y[i] == pytest.approx(tc.c_y)
            assert drift[i] == pytest.approx(yi * ap / al)

    @pytest.mark.parametrize("fam", [ConstantAlpha(), AffineAlpha(0.3), SaturatingAlpha(0.5, 1.0)])
    def test_times_sequence_is_bitwise_the_single_time_calls(self, fam):
        times = [0.0, 0.013, 0.5, 1.7, 9.25]
        together = coefficient_grids(times, fam)
        for j, t in enumerate(times):
            for column, alone in zip(together, coefficient_grids([t], fam)):
                assert column.shape == (len(times), 1, 1) and alone.shape == (1, 1, 1)
                assert column[j].tobytes() == alone[0].tobytes()

