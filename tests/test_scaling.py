import numpy as np
import pytest

from ringtst.fitting import fit_power_law
from ringtst.params import ThermoParams
from ringtst.scaling import (
    DEFAULT_P_SWEEP,
    ModeSchedule,
    ScalingSeries,
    figure1_emit,
    gp_series,
    quaddiff_orders,
    schedule_from_config,
    sumdiff_series,
    tdiff_series,
)

PARAMS = ThermoParams()


def test_fitter_recovers_synthetic_power_law():
    P = np.array([16, 32, 64, 128, 256, 512])
    for a, c in [(-1.5, 2.0), (0.5, 0.3), (3.0, 1e-4)]:
        fit = fit_power_law(P, c * P.astype(float) ** a)
        assert abs(fit.exponent - a) < 1e-6
        assert fit.prefactor == pytest.approx(c, rel=1e-6)
    # sign-insensitive
    fit = fit_power_law(P, -2.0 * P.astype(float) ** -1.0)
    assert abs(fit.exponent + 1.0) < 1e-6


def test_fitter_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_power_law([1.0], [2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        fit_power_law([-1.0, 2.0], [1.0, 1.0])


def test_mode_schedule_rules():
    assert ModeSchedule.constant(3).mode(100) == 3
    assert ModeSchedule.sqrt_p().mode(64) == 8
    assert ModeSchedule.sqrt_p().mode(60) == 8  # round(7.75)
    assert ModeSchedule.frac_p(0.25).mode(16) == 4
    with pytest.raises(ValueError):
        ModeSchedule.constant(0).mode(16)
    with pytest.raises(ValueError):
        ModeSchedule.frac_p(2.0).mode(16)


def test_schedule_from_config():
    assert schedule_from_config({"rule": "sqrtP"}) == ModeSchedule.sqrt_p()
    s = schedule_from_config({"rule": "constant", "value": 2})
    assert s.rule == "constant" and s.mode(8) == 2
    s = schedule_from_config({"rule": "fracP", "value": 0.25})
    assert s.mode(32) == 8
    # none given, and a mapping without a value
    assert schedule_from_config(None) == ModeSchedule.constant(1)
    assert schedule_from_config({"rule": "constant"}) == ModeSchedule.constant(1)


def test_scaling_series_requires_increasing_P():
    with pytest.raises(ValueError):
        ScalingSeries.from_points("x", [16, 16, 32], [1.0, 2.0, 3.0])


def test_tdiff_amplitude_exponents():
    cases = [
        (ModeSchedule.constant(1), -1.5),
        (ModeSchedule.sqrt_p(), -1.0),
        (ModeSchedule.frac_p(0.25), -0.5),
    ]
    for sched, want in cases:
        s = tdiff_series(sched, variant="amplitude")
        assert abs(s.fitted_exponent - want) < 0.05


def test_tdiff_quartermode_value_and_slope():
    s = tdiff_series(ModeSchedule.frac_p(0.25), variant="figure")
    assert abs(s.fitted_exponent + 0.5) < 0.05
    assert s.points[0] == (16, pytest.approx(0.7071068, abs=1e-7))


def test_gp_exponents_sinusoidal():
    cases = [
        (ModeSchedule.constant(1), -0.5, 0.0),
        (ModeSchedule.sqrt_p(), 0.5, 0.0),
        (ModeSchedule.frac_p(0.25), 1.5, 0.0),
    ]
    for sched, want, alpha in cases:
        s = gp_series(sched, DEFAULT_P_SWEEP, PARAMS, alpha=alpha)
        assert abs(s.fitted_exponent - want) < 0.05


def test_gp_half_schedule_spot_value():
    s = gp_series(ModeSchedule.frac_p(0.5), [16, 32], PARAMS, alpha=np.pi / 4)
    assert s.points[0] == (16, pytest.approx(64.0, abs=1e-10))


def test_sumdiff_exponent_constant_schedule():
    s = sumdiff_series(ModeSchedule.constant(1))
    assert abs(s.fitted_exponent + 2.5) < 0.1


def test_figure1_rows_and_monotonicity():
    rows, fits = figure1_emit()
    labels = {r["schedule"] for r in rows}
    assert labels == {"constant(1)", "sqrtP", "fracP(0.25)"}
    assert len(rows) == 3 * len(DEFAULT_P_SWEEP)
    for lab in ("constant(1)", "fracP(0.25)"):
        vals = [r["value"] for r in rows if r["schedule"] == lab]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    assert abs(fits["fracP(0.25)"]["literal_slope"] + 0.5) < 0.05
    assert abs(fits["constant(1)"]["amplitude_slope"] + 1.5) < 0.05
    assert abs(fits["sqrtP"]["amplitude_slope"] + 1.0) < 0.05


def test_quaddiff_orders_passing_columns():
    rep1 = quaddiff_orders("one", n_paths=3000, seed=2)
    assert abs(rep1.series["b_p"].fitted_exponent - 0.0) < 0.15
    assert abs(rep1.series["t_diff"].fitted_exponent + 0.5) < 0.15
    reph = quaddiff_orders("half", n_paths=3000, seed=2)
    assert abs(reph.series["b_p"].fitted_exponent + 1.0) < 0.15
    assert reph.residual_ok


def test_quaddiff_orders_rejects_bad_rule():
    with pytest.raises(ValueError):
        quaddiff_orders("third")
