import math

import numpy as np
import pytest

from spinchaos import correspondence as corr


def make_diff(delta, l=154, se=None):
    delta = np.asarray(delta, dtype=float)
    se = np.zeros_like(delta) if se is None else np.asarray(se, dtype=float)
    mag = math.sqrt(l * (l + 1.0))
    return corr.DifferenceSeries(
        l=l,
        mag_l=mag,
        kicks=np.arange(delta.size),
        delta=delta,
        q_lz=delta.copy(),
        c_lz=np.zeros_like(delta),
        c_se=se,
    )


def make_series(lz_tilde, l=154):
    """An ensemble-style series whose only nonzero moment is <~L_z>."""
    lz_tilde = np.asarray(lz_tilde, dtype=float)
    k = lz_tilde.size
    l_mean = np.zeros((k, 3))
    l_mean[:, 2] = lz_tilde
    return corr.MomentSeries(
        s=l, l=l, s_tilde_mean=np.zeros((k, 3)), l_tilde_mean=l_mean,
        var_norm_s=np.zeros(k), var_norm_l=np.zeros(k), pz_final=np.zeros(2 * l + 1),
        s_tilde_se=np.zeros((k, 3)), l_tilde_se=np.zeros((k, 3)),
        var_norm_s_se=np.zeros(k), var_norm_l_se=np.zeros(k),
    )


# ---------------------------------------------------------------------------
# difference series


def test_difference_identical_series_is_zero():
    a = make_series([0.5, 0.4, 0.3])
    d = corr.difference_series(a, a)
    assert np.array_equal(d.delta, np.zeros(3))


def test_difference_symmetric_under_exchange():
    a = make_series([0.5, 0.4, 0.3])
    b = make_series([0.45, 0.42, 0.5])
    d1 = corr.difference_series(a, b)
    d2 = corr.difference_series(b, a)
    assert np.array_equal(d1.delta, d2.delta)


def test_difference_unnormalizes_with_magnitude():
    a = make_series([1.0])
    b = make_series([0.0])
    d = corr.difference_series(a, b)
    assert abs(d.delta[0] - math.sqrt(154 * 155)) < 1e-12


def test_difference_length_mismatch():
    with pytest.raises(ValueError):
        corr.difference_series(make_series([1, 2]), make_series([1, 2, 3]))


def test_difference_magnitude_mismatch():
    with pytest.raises(ValueError):
        corr.difference_series(make_series([1, 2]), make_series([1, 2], l=22))


# ---------------------------------------------------------------------------
# growth fits


def test_fit_growth_exact_exponential():
    l, lam = 154, 0.43
    n = np.arange(16)
    delta = np.exp(lam * n) / (8 * l)
    fit = corr.fit_growth_exponent(make_diff(delta, l=l), window=(1, 15))
    assert abs(fit.lam - lam) < 1e-10
    assert abs(fit.prefactor - 1.0 / (8 * l)) < 1e-12
    assert fit.residual < 1e-12


def test_fit_growth_free_intercept():
    l, lam, pref = 154, 0.8, 0.002
    n = np.arange(12)
    fit = corr.fit_growth_exponent(
        make_diff(pref * np.exp(lam * n), l=l), window=(0, 11), intercept="free"
    )
    assert abs(fit.lam - lam) < 1e-10
    assert abs(fit.prefactor - pref) < 1e-12


def test_fit_growth_auto_window_caps_at_saturation():
    l, lam = 154, 0.43
    n = np.arange(40, dtype=float)
    delta = np.exp(lam * n) / (8 * l)
    sat = np.flatnonzero(delta > 1.0)[0]
    delta[sat:] = 1.0 + 0.05 * np.sin(n[sat:])  # fluctuating equilibrium
    fit = corr.fit_growth_exponent(make_diff(delta, l=l))
    assert fit.window[1] <= sat
    assert abs(fit.lam - lam) < 0.02


def test_fit_growth_noise_floor_exclusion():
    l, lam = 154, 0.43
    n = np.arange(16, dtype=float)
    delta = np.exp(lam * n) / (8 * l)
    se = np.full(16, delta[6] / 3.0)  # kicks below 6 sit under the 3 SE floor
    fit = corr.fit_growth_exponent(make_diff(delta, l=l, se=se))
    assert fit.window[0] >= 6
    assert abs(fit.lam - lam) < 1e-10


def test_fit_growth_rejects_zero_differences():
    with pytest.raises(ValueError):
        corr.fit_growth_exponent(make_diff([1e-3, 0.0, 1e-2, 1e-1]), window=(0, 2))


def test_fit_growth_rejects_bad_window():
    d = make_diff(np.full(10, 1e-3))
    with pytest.raises(ValueError):
        corr.fit_growth_exponent(d, window=(3, 40))
    with pytest.raises(ValueError):
        corr.fit_growth_exponent(d, intercept="banana")


def test_variance_growth_exact():
    l, lam_w = 154, 0.13
    n = np.arange(18)
    var = np.exp(2 * lam_w * n) / l
    fit = corr.variance_growth_fit(var, l)
    assert abs(fit.lam - lam_w) < 1e-10
    # auto window must stop before saturated kicks
    assert var[fit.window[1]] < 0.5


def test_variance_growth_window_validation():
    with pytest.raises(ValueError):
        corr.variance_growth_fit(np.array([0.1, 0.2]), 154, window=(0, 5))


# ---------------------------------------------------------------------------
# break times


def test_break_time_immediate():
    d = make_diff([0.0, 0.5, 0.9])
    rec = corr.break_time(d, 0.2)
    assert rec.t_b == 1 and rec.reached


def test_break_time_not_reached():
    rec = corr.break_time(make_diff(np.full(201, 0.5), l=154), 15.4)
    assert rec.t_b is None and not rec.reached


def test_break_time_ignores_initial_offset():
    # delta(0) may exceed p without defining a break
    d = make_diff([0.3, 0.01, 0.02, 0.4])
    assert corr.break_time(d, 0.2).t_b == 3


def test_break_time_requires_positive_p():
    with pytest.raises(ValueError):
        corr.break_time(make_diff([0.1, 0.2]), 0.0)


def test_break_scaling_inverts_generator():
    lam, p = 0.43, 0.1
    ls = [11, 22, 44, 88, 154, 220]
    records = [
        corr.BreakTimeRecord(l=l, p=p, t_b=int(round(math.log(8 * p * l) / lam)))
        for l in ls
    ]
    fitted = corr.fit_break_scaling(records)
    assert abs(fitted - lam) < 0.02


def test_break_scaling_validation():
    recs = [corr.BreakTimeRecord(l=l, p=0.1, t_b=5) for l in (11, 22, 44, 88)]
    with pytest.raises(ValueError, match="degenerate"):
        corr.fit_break_scaling(recs)
    with pytest.raises(ValueError, match="4 distinct"):
        corr.fit_break_scaling(
            [corr.BreakTimeRecord(l=11, p=0.1, t_b=4), corr.BreakTimeRecord(l=22, p=0.1, t_b=6)]
        )
    with pytest.raises(ValueError, match="reached"):
        corr.fit_break_scaling(
            [corr.BreakTimeRecord(l=l, p=0.1, t_b=None) for l in (11, 22, 44, 88)]
        )


# ---------------------------------------------------------------------------
# saturation estimates


def test_saturation_time_values():
    assert abs(corr.saturation_time(0.45, 154) - 5.6) < 0.1
    assert abs(corr.saturation_time(0.13, 154) - 19.4) < 0.1
    assert corr.saturation_time(0.5, 1) == 0.0
    with pytest.raises(ValueError):
        corr.saturation_time(0.0, 154)


def test_detect_saturation_kick():
    rising = np.exp(0.4 * np.arange(12))
    flat = np.concatenate([rising, rising[-1] * (1.0 + 0.02 * np.sin(np.arange(20)))])
    t_star = corr.detect_saturation_kick(flat)
    # the trailing average lags the true corner by up to ma_window - 1 kicks
    assert 11 <= t_star <= 16
    # strictly growing series: falls back to the last kick
    assert corr.detect_saturation_kick(rising) == 11
