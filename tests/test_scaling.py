from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ringtst import paths, scaling
from ringtst.fitting import fit_power_law
from ringtst.params import ThermoParams
from ringtst.paths import BLOCK_ELEMS, free_ring_mode_std, map_free_ring_paths
from ringtst.scaling import (
    DEFAULT_P_SWEEP,
    QUADDIFF_PHI,
    ModeSchedule,
    ScalingSeries,
    figure1_emit,
    gp_series,
    quaddiff_orders,
    schedule_from_config,
    sumdiff_series,
    tdiff_series,
)
from ringtst.surfaces import QuadDiffSurface, mode_factors

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


@pytest.mark.parametrize(
    "P_list", [(32, 16, 64), (16, 16, 32), (1, 16, 32), ()], ids=["unsorted", "repeated", "one-bead", "empty"]
)
def test_quaddiff_orders_rejects_bad_p_list_before_drawing(monkeypatch, P_list):
    drawn = []
    monkeypatch.setattr(scaling, "map_free_ring_paths", lambda *args, **kwargs: drawn.append(args))
    with pytest.raises(ValueError, match="strictly increasing and at least 2"):
        quaddiff_orders("one", P_list=P_list, n_paths=100)
    assert drawn == []


# the coupled draw at P_top = 256: one inline block, and ten pooled blocks
RUNG_P = (16, 32, 64, 128, 256)
RUNG_N = {"inline": BLOCK_ELEMS // RUNG_P[-1], "pooled": 10 * (BLOCK_ELEMS // RUNG_P[-1])}


@pytest.mark.parametrize("n_paths", RUNG_N.values(), ids=RUNG_N.keys())
def test_quaddiff_half_rungs_give_exact_b_p(n_paths):
    """Offset P/2 weights the odd modes by 4 and the even ones by 0, so
    |curv|^2 = 4 N^2, and R = sqrt(2P): every path has
    B_P = (cos^2 phi + 2 sin^2 phi) / P, 1.5 / P at phi = pi/4, at every
    rung of the coupled draw."""
    rep = quaddiff_orders("half", P_list=RUNG_P, n_paths=n_paths, seed=7)
    assert [P for P, _ in rep.series["b_p"].points] == list(RUNG_P)
    for P, b in rep.series["b_p"].points:
        assert b == pytest.approx(1.5 / P, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_paths", RUNG_N.values(), ids=RUNG_N.keys())
def test_quaddiff_rungs_read_the_leading_normals(monkeypatch, n_paths):
    """Rung P evaluates the first P - 1 standard normals of each path of the
    P_top draw times free_ring_mode_std(P); the top rung evaluates the drawn
    amplitudes bit for bit; each rung sees every path once."""
    top = RUNG_P[-1]
    seen = {P: [] for P in RUNG_P}
    inner = scaling.mode_factors

    def spy(spec, amps, centroid, params):
        seen[params.bead_count].append(np.array(amps))
        return inner(spec, amps, centroid, params)

    monkeypatch.setattr(scaling, "mode_factors", spy)
    # one worker runs the pooled blocks in draw order
    pool = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(paths, "_pool", lambda: pool)
    try:
        quaddiff_orders("one", P_list=RUNG_P, n_paths=n_paths, seed=5)
    finally:
        pool.shutdown()
    rng = np.random.default_rng(5)
    rows = BLOCK_ELEMS // top
    if n_paths <= rows:
        z = rng.standard_normal((n_paths, top - 1))
    else:
        starts = range(0, n_paths, rows)
        children = rng.spawn(len(starts))
        z = np.concatenate([c.standard_normal((min(rows, n_paths - lo), top - 1)) for c, lo in zip(children, starts)])
    for P in RUNG_P:
        got = np.concatenate(seen[P])
        assert got.shape == (n_paths, P - 1)
        want = z[:, : P - 1] * free_ring_mode_std(ThermoParams(bead_count=P))
        if P == top:
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


def test_quaddiff_coupled_rungs_are_unbiased():
    """Each rung of the coupled draw is an exact free-ring ensemble at its
    own P: its mean B_P and |g_P| agree with an independent single-P draw
    within 4 combined standard errors (the two have the same per-path
    spread)."""
    n = 20_000
    rep = quaddiff_orders("one", P_list=RUNG_P, n_paths=n, seed=11)
    for P in (16, 256):
        pp = ThermoParams(bead_count=P)
        spec = QuadDiffSurface(offset=1, phi=QUADDIFF_PHI)

        def per_path(block):
            sf = mode_factors(spec, block.amps, 0.0, pp)
            return sf.b_p, np.abs(sf.g_p)

        for key, x in zip(("b_p", "g_p"), map_free_ring_paths(pp, n, np.random.default_rng(12), per_path)):
            coupled = dict(rep.series[key].points)[P]
            se = np.std(x, ddof=1) / np.sqrt(n)
            assert abs(coupled - np.mean(x)) <= 4.0 * np.sqrt(2.0) * se, (P, key)
