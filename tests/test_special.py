import math

import pytest
from scipy import stats
from scipy.optimize import brentq

import repscope.special
from repscope.special import _brentq, chi2_sf, t_critical, t_two_sided_p

from oracles import chi2_sf_quad, t_two_sided_quad

T_GRID = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0)
DF_GRID = (1, 2, 5, 10, 100, 100000)


class TestTTwoSidedP:
    def test_zero_statistic(self):
        for df in DF_GRID:
            assert t_two_sided_p(0.0, df) == 1.0

    def test_tiny_statistic(self):
        # t * t underflows to 0 below about 1.5e-162; the tail is 1 there
        for df in DF_GRID:
            for t in (1e-170, -1e-170, 5e-324):
                assert t_two_sided_p(t, df) == 1.0

    def test_infinite_statistic(self):
        assert t_two_sided_p(math.inf, 10) == 0.0
        assert t_two_sided_p(-math.inf, 10) == 0.0

    def test_symmetric_in_sign(self):
        assert t_two_sided_p(-2.5, 7) == t_two_sided_p(2.5, 7)

    def test_t2_df10_frozen_oracle_value(self):
        # 0.07338803477074043 computed by adaptive quadrature of the density
        assert t_two_sided_p(2.0, 10) == pytest.approx(0.07338803477074043, abs=1e-12)

    def test_matches_quadrature_oracle_on_grid(self):
        for df in DF_GRID:
            for t in T_GRID:
                assert t_two_sided_p(t, df) == pytest.approx(
                    t_two_sided_quad(t, df), abs=1e-8
                ), (t, df)

    def test_matches_scipy_closely(self):
        for df in (1, 2, 5, 10, 100, 100000, 1000000):
            for t in T_GRID:
                ref = 2.0 * stats.t.sf(t, df)
                assert t_two_sided_p(t, df) == pytest.approx(ref, rel=1e-9, abs=1e-300), (t, df)

    def test_monotone_decreasing_in_t(self):
        values = [t_two_sided_p(t, 10) for t in T_GRID]
        assert values == sorted(values, reverse=True)

    def test_df_validated(self):
        # a NaN or infinite df would run the evaluators to their iteration limit
        for df in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^df must be"):
                t_two_sided_p(2.0, df)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            t_two_sided_p(math.nan, 10)


class TestChi2Sf:
    def test_at_zero(self):
        assert chi2_sf(0.0, 5) == 1.0

    def test_at_infinity(self):
        assert chi2_sf(math.inf, 5) == 0.0

    def test_frozen_oracle_values(self):
        assert chi2_sf(10.83, 1) == pytest.approx(0.0009986863791802585, abs=1e-12)
        assert chi2_sf(3.0, 2) == pytest.approx(0.2231301601484299, abs=1e-12)

    def test_matches_quadrature_oracle_on_grid(self):
        for df in DF_GRID:
            for mult in (0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0):
                x = mult * df
                assert chi2_sf(x, df) == pytest.approx(chi2_sf_quad(x, df), abs=1e-8), (x, df)

    def test_matches_scipy_closely(self):
        for df in (1, 2, 5, 10, 100, 100000, 1000000):
            for mult in (0.1, 0.5, 1.0, 1.5, 3.0):
                x = mult * df
                ref = stats.chi2.sf(x, df)
                assert chi2_sf(x, df) == pytest.approx(ref, rel=1e-9, abs=1e-300), (x, df)

    def test_negative_x_rejected(self):
        for x in (-1.0, math.nan):
            with pytest.raises(ValueError, match="^x must be non-negative"):
                chi2_sf(x, 3)

    def test_df_validated(self):
        for df in (0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^df must be"):
                chi2_sf(2.0, df)


class TestIncompleteFunctions:
    def test_gamma_against_scipy(self):
        # chi2_sf(2x, 2a) is the regularized upper gamma Q(a, x)
        from scipy.special import gammaincc

        for a in (0.5, 1.0, 7.5, 120.0, 5e4):
            for mult in (0.2, 0.9, 1.0, 1.3, 4.0):
                x = a * mult
                assert chi2_sf(2 * x, 2 * a) == pytest.approx(
                    float(gammaincc(a, x)), rel=1e-10, abs=1e-300
                ), (a, x)


class TestEvaluators:
    @pytest.mark.parametrize("tail, args, message", [
        (t_two_sided_p, (1.0, 10), r"incomplete beta series did not converge \(a=0\.5, b=5\.0, x="),
        (t_two_sided_p, (2.0, 100), r"incomplete beta continued fraction did not converge "
                                    r"\(a=50\.0, b=0\.5, x="),
        (chi2_sf, (3.0, 5), r"incomplete gamma series did not converge \(a=2\.5, x=1\.5\)$"),
        (chi2_sf, (20.0, 5), r"incomplete gamma continued fraction did not converge "
                             r"\(a=2\.5, x=10\.0\)$"),
    ], ids=["beta_series", "beta_fraction", "gamma_series", "gamma_fraction"])
    def test_iteration_limit_names_tail_method_and_arguments(self, monkeypatch, tail, args,
                                                            message):
        monkeypatch.setattr(repscope.special, "_MAX_ITER", 1)
        with pytest.raises(ArithmeticError, match=f"^{message}"):
            tail(*args)


class TestTCritical:
    def test_df_validated(self):
        with pytest.raises(ValueError, match="^df must be"):
            t_critical(0.95, math.inf)

    def test_round_trip_through_tail(self):
        for df in (1, 3, 10, 200, 731377):
            for level in (0.9, 0.95, 0.99):
                crit = t_critical(level, df)
                assert t_two_sided_p(crit, df) == pytest.approx(1.0 - level, abs=1e-10)

    def test_known_value(self):
        assert t_critical(0.95, 10) == pytest.approx(2.2281388519649385, abs=1e-8)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            t_critical(1.0, 10)

    @pytest.mark.parametrize("level", (0.5, 0.68, 0.75, 0.8, 0.85, 0.9, 0.95, 0.975, 0.99,
                                       0.995, 0.999, 0.9999))
    def test_bit_identical_to_scipy_brentq(self, level):
        # df 1-60, the residual df of the bench designs, and df up to 1e6
        dfs = [*range(1, 61), *range(993, 997), *range(1193, 1200), *range(2393, 2397),
               *range(5993, 5997), 12345, 99999, 731377, 10**6]
        alpha = 1.0 - level
        for df in dfs:
            hi = 1.0
            while t_two_sided_p(hi, df) > alpha:
                hi *= 4.0
            expected = brentq(lambda v: t_two_sided_p(v, df) - alpha, 0.0, hi,
                              xtol=1e-12, rtol=1e-14)
            assert t_critical(level, df).hex() == float(expected).hex(), (level, df)

    def test_brentq_returns_an_exact_root_at_an_end(self):
        assert _brentq(lambda v: v - 2.0, 2.0, 5.0, xtol=1e-12, rtol=1e-14) == 2.0
        assert _brentq(lambda v: v - 5.0, 2.0, 5.0, xtol=1e-12, rtol=1e-14) == 5.0

    @pytest.mark.parametrize("sign", (1.0, -1.0), ids=["both_positive", "both_negative"])
    def test_brentq_rejects_ends_of_one_sign(self, sign):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda v: sign * (v * v + 1.0), -3.0, 1.0, xtol=1e-12, rtol=1e-14)

    def test_brentq_raises_when_out_of_iterations(self):
        with pytest.raises(ArithmeticError, match="did not converge"):
            _brentq(lambda v: v - 0.3, 0.0, 1.0, xtol=1e-12, rtol=1e-14, maxiter=1)
