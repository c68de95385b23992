import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidewave.discretize import WeightSpec
from guidewave.fit import (DecayFit, compare_models, fit_exponential, fit_power,
                           predict_exponent)

TS = np.geomspace(1.0, 500.0, 40)


@settings(max_examples=25, deadline=None)
@given(exponent=st.floats(min_value=-3.0, max_value=-0.1),
       scale=st.floats(min_value=0.1, max_value=100.0))
def test_power_fit_exact_on_pure_powers(exponent, scale):
    fit = fit_power(TS, scale * TS ** exponent, window=(1.0, 500.0))
    assert fit.exponent == pytest.approx(exponent, abs=1e-9)
    assert fit.stderr <= 1e-9
    assert abs(fit.curvature) <= 1e-9


def test_power_fit_examples():
    assert fit_power(TS, TS ** -1.0).exponent == pytest.approx(-1.0, abs=1e-12)
    assert fit_power(TS, 3.0 * TS ** -0.5).exponent == pytest.approx(-0.5, abs=1e-12)


def test_exponential_fit_exact():
    ts = np.linspace(1.0, 80.0, 40)
    fit = fit_exponential(ts, np.exp(-ts / 4.0))
    assert fit.exponent == pytest.approx(-0.25, abs=1e-12)
    assert fit.stderr <= 1e-12


def test_window_validation():
    with pytest.raises(ValueError, match="t >= 1"):
        fit_power(TS, TS ** -1.0, window=(0.5, 100.0))
    with pytest.raises(ValueError, match="samples"):
        fit_power(TS[:5], TS[:5] ** -1.0, window=(1.0, 500.0))
    y = TS ** -1.0
    y[7] = 0.0
    with pytest.raises(ValueError, match="nonpositive"):
        fit_power(TS, y)


def test_model_selection_by_aic():
    ts = np.geomspace(1.0, 60.0, 30)
    rng = np.random.default_rng(0)
    noise = np.exp(0.01 * rng.standard_normal(30))
    exp_data = np.exp(-ts / 3.0) * noise
    pow_data = ts ** -1.5 * noise
    assert compare_models(ts, exp_data, window=(1.0, 60.0))["better"] == "exponential"
    assert compare_models(ts, pow_data, window=(1.0, 60.0))["better"] == "power"


class TestPredict:
    def test_unweighted_gradient_rate(self):
        spec = WeightSpec()
        assert predict_exponent("energy_decay_grad", spec) == -0.5
        assert predict_exponent("energy_decay_dt", spec) == -1.0

    def test_localized_data_rate(self):
        spec = WeightSpec(delta2=0.6, s2=0.5, kappa=1.1)
        assert predict_exponent("energy_decay_dt", spec) == pytest.approx(-1.25)

    def test_dirichlet_track(self):
        assert predict_exponent("dirichlet_highfreq", WeightSpec(), k=2) == -1.0
        with pytest.raises(ValueError):
            predict_exponent("dirichlet_highfreq", WeightSpec(), k=0)

    def test_difference_tracks(self):
        spec = WeightSpec(delta1=1.05, delta2=1.05, s1=0.5, s2=0.5, s=0.5, kappa=1.1)
        assert predict_exponent("heat_compare_grad_diff", spec, rho=2.0) == pytest.approx(-1.25)
        assert predict_exponent("heat_compare_dt_diff", spec, rho=2.0) == pytest.approx(-1.75)

    def test_hypothesis_violation_names_constraints(self):
        spec = WeightSpec(s=1.5)
        with pytest.raises(ValueError) as err:
            predict_exponent("energy_decay_grad", spec)
        assert "s <= 1" in str(err.value)
        assert "min(d, rho)" in str(err.value)
        with pytest.raises(ValueError):
            predict_exponent("unknown_track", WeightSpec())

    @settings(max_examples=30, deadline=None)
    @given(s1=st.floats(0.0, 0.5), s2=st.floats(0.0, 0.5), s=st.floats(0.0, 0.9),
           ds1=st.floats(0.0, 0.4), ds2=st.floats(0.0, 0.4), ds=st.floats(0.0, 0.5))
    def test_monotone_in_all_weights(self, s1, s2, s, ds1, ds2, ds):
        kappa = 1.2

        def spec(a, b, c):
            a, b, c = min(a, 0.5), min(b, 0.5), min(c, 0.999)
            return WeightSpec(delta1=kappa * a + c, delta2=kappa * b + c,
                              s1=a, s2=b, s=c, kappa=kappa)

        for track in ("energy_decay_grad", "energy_decay_dt"):
            lo = predict_exponent(track, spec(s1, s2, s))
            hi = predict_exponent(track, spec(s1 + ds1, s2 + ds2, s + ds))
            assert hi <= lo + 1e-12


def test_verdict_logic():
    fit = fit_power(TS, TS ** -1.0, predicted=-1.0)
    assert fit.verdict() == "pass"
    slow = fit_power(TS, TS ** -0.5, predicted=-1.0)
    assert slow.verdict() == "fail"
    fast = fit_power(TS, TS ** -2.0, predicted=-1.0)
    assert fast.verdict() == "pass"          # upper bounds allow faster decay
    assert DecayFit(exponent=-1.0, stderr=0.0, window=(1, 10), model="power",
                    predicted=None, curvature=0.0, n_samples=20, rss=0.0).verdict() \
        == "informative"
