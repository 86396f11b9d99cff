import csv
import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ringtst
from ringtst import cli, rates
from ringtst.cli import CONFIG_SCHEMA, ConfigError, load_config, main, validate_config
from ringtst.params import ThermoParams
from ringtst.potentials import Eckart
from ringtst.surfaces import QuadDiffSurface

README = Path(__file__).resolve().parents[1] / "README.md"


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


def test_exports_resolve():
    missing = [name for name in ringtst.__all__ if not hasattr(ringtst, name)]
    assert missing == []


PUBLIC_NAMES = {
    "__version__", "ThermoParams", "Potential", "FreeParticle", "Harmonic", "Eckart", "DoubleWell",
    "SinusoidalPathSpec", "sinusoidal_path", "log_rho_ring", "CentroidSurface", "FourierNormSurface",
    "QuadDiffSurface", "SingularSurfaceError", "SurfaceFactors", "surface_factors", "g_p",
    "equivalence_diagnostics", "ModeSchedule", "ScalingSeries", "tdiff_series", "matching_path_series",
    "figure1_emit", "quaddiff_orders", "RateReport", "rate_estimates", "grid_oracle_rate", "ratio_sweep",
}

# reference values only the tests call; they live in tests/reference.py
TEST_ONLY_NAMES = {
    "surfaces": ("f_eval", "fourier_mode_norm", "quad_diff_norm"),
    "rates": ("eta0_factor_closed", "eta0_factor_quadrature", "divergence_probe"),
    "closed_forms": (
        "sum_difference_figure", "tdiff_gradient", "sum_difference_gradient", "mode_norm_sinusoidal",
        "gp_sinusoidal", "half_mode_b_p", "half_mode_tdiff_abs", "half_mode_gp",
    ),
    "paths": ("cyclic_shift",),
}


def test_public_names_exclude_test_only_code():
    assert sorted(ringtst.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from ringtst import *", namespace)  # fails on a name that does not import
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    for module, names in TEST_ONLY_NAMES.items():
        for owner in (importlib.import_module(f"ringtst.{module}"), ringtst):
            assert [n for n in names if hasattr(owner, n)] == [], owner.__name__


def test_readme_lists_every_command():
    readme = README.read_text()
    sentence = re.search(r"^Commands:(.*?)\.\s", readme, re.MULTILINE | re.DOTALL).group(1)
    assert tuple(re.findall(r"`([^`]+)`", sentence)) == cli.COMMANDS


def test_figure1_default(tmp_path):
    assert run(tmp_path, "--command", "figure1") == 0
    csv = (tmp_path / "figure1.csv").read_text().splitlines()
    assert csv[0].startswith("# config_sha256=")
    assert csv[2] == "P,schedule,value,log10P,log10value"
    doc = json.loads((tmp_path / "figure1_slopes.json").read_text())
    fits = doc["fits"]
    assert abs(fits["fracP(0.25)"]["literal_slope"] + 0.5) < 0.05
    assert abs(fits["constant(1)"]["amplitude_slope"] + 1.5) < 0.05
    assert abs(fits["sqrtP"]["amplitude_slope"] + 1.0) < 0.05


def test_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "thermo: {bead_count: 3}\n"
        "potential: {kind: eckart}\n"
        "surface: {kind: fourier_norm, mode: 1, phi: 0.5}\n"
        "d: 0.2\n"
        "n_samples: 5000\n"
    )
    for command, names in (("figure1", ("figure1.csv", "figure1_slopes.json")), ("rate", ("rate.json",))):
        a = tmp_path / command / "a"
        b = tmp_path / command / "b"
        for out in (a, b):
            assert main(["--config", str(cfg), "--command", command, "--seed", "5", "--out", str(out)]) == 0
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_rate_free_particle(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {bead_count: 3}\n"
        "potential: {kind: free}\n"
        "surface: {kind: centroid}\n"
        "n_samples: 200000\n"
        "grid_oracle: true\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "rate.json").read_text())
    import numpy as np

    target = 1.0 / (2.0 * np.pi)
    assert doc["rate_report"]["kza_rpmd"] == pytest.approx(target, rel=0.01)
    assert doc["rate_report"]["kza_ha"] == pytest.approx(target, rel=0.01)
    assert doc["grid_oracle"]["kza_rpmd"] == pytest.approx(target, rel=0.01)


def test_unknown_key_rejected_no_artifacts(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: rate\nbogus: 1\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "rate.json").exists()


def test_malformed_yaml_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: [unclosed\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    # one line: the problem (libyaml and the pure-Python parser word it
    # differently), its line and column, and the parser's context
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: config is not valid YAML at line 2, column 1: ")
    assert err.endswith(" (while parsing a flow sequence)\n")
    assert not out.exists()


def test_empty_config_rejected(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_missing_config_rejected(tmp_path):
    assert main(["--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2


def test_bad_value_rejected(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: rate\nthermo: {beta: -1.0}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_potential_mass_rejected_thermo_mass_used(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: rate\npotential: {kind: harmonic, mass: 2}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert not (tmp_path / "bad" / "rate.json").exists()

    seen = []
    estimate = rates.rate_estimates

    def record(pot, *args, **kwargs):
        seen.append(pot)
        return estimate(pot, *args, **kwargs)

    monkeypatch.setattr(rates, "rate_estimates", record)
    cfg.write_text("command: rate\nthermo: {mass: 2}\npotential: {kind: harmonic}\nn_samples: 1000\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "good")]) == 0
    assert [p.mass for p in seen] == [2.0]


def test_surface_d_rejected(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: rate\nsurface: {kind: centroid, d: 0.3}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "rate.json").exists()


def test_surface_norm_scale_rejected(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: rate\nsurface: {kind: quad_diff, offset: 1, norm_scale: 2}\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_n_paths_rejected(tmp_path):
    # surface-check draws a fixed 1000 paths; no command reads a path count
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: surface-check\nn_paths: 500\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def _scaling_series_names(tmp_path, schedule):
    """The quantity names of a ``scaling`` run in summary order, after
    checking that the CSV lists the same names in the same order."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"command: scaling\nschedule: {schedule}\np_list: [16, 32, 64, 128]\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "scaling_summary.json").read_text())
    names = [s["quantity"] for s in doc["series"]]
    # rows below two comment lines and the header
    with (tmp_path / "scaling.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    assert rows[0] == ["quantity", "P", "value"] and all(len(row) == 3 for row in rows)
    assert list(dict.fromkeys(row[0] for row in rows[1:])) == names
    return names


def test_scaling_command(tmp_path):
    names = _scaling_series_names(tmp_path, "{rule: constant, value: 1}")
    assert names == [
        "tdiff[constant(1),figure]", "tdiff[constant(1),amplitude]", "gp[constant(1)]", "sumdiff[constant(1)]"
    ]


def test_scaling_half_mode_schedule(tmp_path):
    # the half-mode path vanishes at alpha = 0, so every series moves to pi/4
    names = _scaling_series_names(tmp_path, "{rule: fracP, value: 0.5}")
    assert names == [
        "tdiff[fracP(0.5),figure]", "tdiff[fracP(0.5),amplitude]", "gp[fracP(0.5)]", "sumdiff[fracP(0.5)]"
    ]


def _without_config_hash(path):
    return re.sub(r"config_sha256\W+\w+", "", path.read_text())


@pytest.mark.parametrize(
    "config, shifted",
    [
        ("schedule: {rule: sqrtP}\np_list: [4, 16, 64]\n", True),  # mode 2 at P = 4
        ("schedule: {rule: constant, value: 8}\np_list: [16, 32]\n", True),  # mode 8 at P = 16
        ("schedule: {rule: fracP, value: 0.5}\n", True),  # every P of DEFAULT_P_SWEEP
        ("schedule: {rule: fracP, value: 0.5}\np_list: [5, 9, 17]\n", False),  # no half mode at odd P
    ],
    ids=["sqrtP", "constant(8)", "fracP(0.5)", "fracP(0.5)-odd-P"],
)
def test_scaling_half_mode_moves_alpha(tmp_path, config, shifted):
    """The half-mode path sin(pi k) vanishes at alpha = 0, so a schedule
    that gives mode P/2 at some P of the list runs every series at alpha =
    pi/4: its artifacts equal those of the same config with that alpha,
    but for the config hash.  Other lists keep alpha = 0."""
    for name, alpha in (("default", ""), ("pi4", f"alpha: {math.pi / 4!r}\n")):
        (tmp_path / f"{name}.yaml").write_text(f"command: scaling\n{config}{alpha}")
        assert main(["--config", str(tmp_path / f"{name}.yaml"), "--out", str(tmp_path / name)]) == 0
    for artifact in ("scaling.csv", "scaling_summary.json"):
        default, pi4 = (_without_config_hash(tmp_path / name / artifact) for name in ("default", "pi4"))
        assert (default == pi4) == shifted


@pytest.mark.parametrize(
    "command, config, rows",
    [
        ("scaling", "schedule: {rule: sqrtP}\n", 9),  # one matching path per P of DEFAULT_P_SWEEP
        ("surface-check", "surface: {kind: fourier_norm, mode: 3, phi: 0.7}\n", 1000),
        ("figure1", "", 0),  # closed forms only
    ],
    ids=["scaling", "surface-check", "figure1"],
)
def test_one_surface_pass_per_path(tmp_path, monkeypatch, command, config, rows):
    """Each command hands every path it evaluates to ``mode_factors`` once."""
    from ringtst import scaling, surfaces

    seen = []
    inner = surfaces.mode_factors

    def counted(spec, amps, centroid, params=None):
        seen.append(math.prod(amps.shape[:-1]))
        return inner(spec, amps, centroid, params)

    for module in (surfaces, scaling):
        monkeypatch.setattr(module, "mode_factors", counted)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"command: {command}\n{config}")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert sum(seen) == rows


@pytest.mark.parametrize(
    "surface",
    [
        "{kind: fourier_norm, mode: 3, phi: 0.7}",
        "{kind: fourier_norm, mode: 8, phi: 0.7}",  # the Nyquist mode at P = 16
        # at phi = pi/4 one path has |g_P| = 0.014 against a median of 9
        "{kind: fourier_norm, mode: 8}",
        "{kind: quad_diff, offset: 1, phi: 0.7}",
        "{kind: quad_diff, offset: 8, phi: 0.7}",
    ],
    ids=["fourier3", "fourier8", "fourier8-quarter-pi", "quaddiff1", "quaddiff8"],
)
def test_surface_check_command(tmp_path, surface):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"command: surface-check\nsurface: {surface}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "surface_check.json").read_text())
    assert doc["bead_count"] == 16
    assert doc["max_rel_gp_form_mismatch"] < 1e-13
    assert doc["max_unit_norm_deviation"] < 1e-12
    if "fourier_norm" in surface:
        assert doc["b_p_std"] < 1e-12  # path independent for this surface family
    assert "config_sha256" in doc
    assert doc["library_version"] == ringtst.__version__ != "0.0.0"
    assert doc["schema_version"] == 1


def test_ratio_sweep_command(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: ratio-sweep\n"
        "potential: {kind: harmonic, omega: 1.0}\n"
        "schedule: {rule: constant, value: 1}\n"
        "p_list: [16, 32]\n"
        "n_samples: 5000\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ratio_sweep.csv").read_text().splitlines()
    assert lines[2] == "P,ratio,error,divergence_flag"
    assert len(lines) == 5


def test_all_divergent_exits_3_with_artifacts(tmp_path, monkeypatch):
    # every harmonic-analysis log-weight is >= 0, so a guard of -1 flags them all
    monkeypatch.setattr(rates, "OVERFLOW_GUARD", -1.0)
    assert main(["--command", "rate", "--out", str(tmp_path / "rate")]) == 3

    def not_json(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads((tmp_path / "rate" / "rate.json").read_text(), parse_constant=not_json)
    report = doc["rate_report"]
    assert report["divergence_flag"] is True
    assert [report[k] for k in ("kza_ha", "kza_ha_err", "ratio_ha_over_rpmd", "ratio_err")] == [None] * 4
    assert math.isfinite(report["kza_rpmd"])
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: ratio-sweep\np_list: [16, 32]\nn_samples: 2000\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 3
    lines = (tmp_path / "sweep" / "ratio_sweep.csv").read_text().splitlines()
    assert [line.split(",")[-1] for line in lines[3:]] == ["true", "true"]


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: rate\n")
    assert main(["--config", str(cfg), "--command", "surface-check", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "surface_check.json").exists()
    assert not (tmp_path / "rate.json").exists()


def test_rate_grid_oracle_skipped_beyond_four_beads(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {bead_count: 8}\n"
        "potential: {kind: harmonic, omega: 1.0}\n"
        "surface: {kind: centroid}\n"
        "n_samples: 2000\n"
        "grid_oracle: true\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "rate.json").read_text())
    assert doc["grid_oracle"] == {"skipped": "bead_count 8 > 4"}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "bead_count 8 > 4" in err[0]


def test_rate_grid_oracle_fourier_norm(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {bead_count: 3}\n"
        "potential: {kind: eckart}\n"
        "surface: {kind: fourier_norm, mode: 1, phi: 0.5}\n"
        "n_samples: 2000\n"
        "grid_oracle: true\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    oracle = json.loads((tmp_path / "rate.json").read_text())["grid_oracle"]
    assert set(oracle) == {"kza_rpmd", "kza_ha"}
    assert 0.0 < oracle["kza_ha"] < oracle["kza_rpmd"]


def test_rate_grid_oracle_centroid_dependent_mode_exits_2(tmp_path, capsys):
    # mode 0 fails validation; mode P is test_rate_mode_at_bead_count_draws_no_path
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {bead_count: 3}\n"
        "surface: {kind: fourier_norm, mode: 0, phi: 0.5}\n"
        "n_samples: 1000\n"
        "grid_oracle: true\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert_one_error_line(capsys, "invalid config at surface/mode: 0 is less than the minimum of 1")
    assert not (out / "rate.json").exists()


@pytest.mark.parametrize("oracle", ["true", "false"], ids=["oracle", "no-oracle"])
def test_rate_mode_at_bead_count_draws_no_path(tmp_path, capsys, monkeypatch, oracle):
    draws = []
    monkeypatch.setattr(rates, "map_free_ring_paths", lambda *a, **k: draws.append(a))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {bead_count: 3}\n"
        "surface: {kind: fourier_norm, mode: 3, phi: 0.5}\n"
        "n_samples: 1000\n"
        f"grid_oracle: {oracle}\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert_one_error_line(capsys, "Fourier-norm mode 3 at P = 3", "depends on the centroid")
    assert not out.exists()
    assert draws == []


@pytest.mark.parametrize("command", ["rate", "surface-check"])
@pytest.mark.parametrize(
    "surface, key", [("{kind: fourier_norm, phi: 0.5}", "mode"), ("{kind: quad_diff}", "offset")], ids=["mode", "offset"]
)
def test_surface_without_its_key_exits_2(tmp_path, capsys, command, surface, key):
    """A Fourier-norm surface with no mode, or a quad-diff one with no
    offset, is one error line naming the key, exit 2, and no artifact."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"command: {command}\nthermo: {{bead_count: 8}}\nsurface: {surface}\nn_samples: 1000\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert_one_error_line(capsys, f"needs the key {key!r}")
    assert not out.exists()


def test_rate_rejected_oracle_input_draws_no_path(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(rates, "rate_estimates", lambda *a, **k: calls.append(a))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {bead_count: 3}\n"
        "surface: {kind: fourier_norm, mode: 3, phi: 0.5}\n"
        "grid_oracle: true\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert len(calls) == 0


def test_config_schema_is_valid():
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def test_validate_config_message_matches_jsonschema_validate():
    cfg = {"command": "rate", "bogus": 1, "thermo": {"bead_count": 1}}
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    key = "/".join(str(p) for p in expected.value.absolute_path) or "(root)"
    with pytest.raises(ConfigError) as got:
        validate_config(cfg)
    assert str(got.value) == f"invalid config at {key}: {expected.value.message}"


# jsonschema with the one deliberate difference of the walker: an integral
# float is not an integer
STRICT_TYPES = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {
            "integer": lambda checker, v: isinstance(v, int) and not isinstance(v, bool),
            "number": lambda checker, v: isinstance(v, (int, float))
            and not isinstance(v, bool)
            and math.isfinite(v),
        }
    ),
)


def jsonschema_message(cfg, validator_cls=jsonschema.Draft202012Validator):
    """The message validate_config gives when jsonschema reports, or None."""
    e = jsonschema.exceptions.best_match(validator_cls(CONFIG_SCHEMA).iter_errors(cfg))
    if e is None:
        return None
    key = "/".join(str(p) for p in e.absolute_path) or "(root)"
    return f"invalid config at {key}: {e.message}"


def walker_message(cfg):
    try:
        validate_config(cfg)
    except ConfigError as e:
        return str(e)
    return None


WRONG_KIND = st.sampled_from([None, True, False, "x", "", -1, 0, 1.5, 2.0, [], [3], {}, {"bogus": 1}])


def near_schema(schema):
    """Values that meet ``schema`` or break it in one place: bounds, wrong
    kinds (bools where numbers go), bad enum members, unknown keys."""
    if "enum" in schema:
        right = st.sampled_from([*schema["enum"], "bogus"])
    elif schema["type"] == "object":
        props = schema["properties"]
        required = schema.get("required", [])
        unknown = st.dictionaries(st.sampled_from(["bogus", "mass", "d", "zz", 1]), st.integers(0, 2), min_size=1, max_size=2)
        right = st.builds(
            lambda known, extra: {**known, **extra},
            st.fixed_dictionaries(
                {k: near_schema(props[k]) for k in required},
                optional={k: near_schema(v) for k, v in props.items() if k not in required},
            ),
            mostly(st.just({}), unknown),
        )
        if required:
            right = st.one_of(right, right.map(lambda d: {k: v for k, v in d.items() if k not in required}))
    elif schema["type"] == "array":
        right = st.lists(near_schema(schema["items"]), max_size=4)
    elif schema["type"] == "integer":
        lo = schema.get("minimum", 0)
        right = st.integers(lo - 2, lo + 3)
    elif schema["type"] == "number":
        bound = schema.get("exclusiveMinimum", 0)
        right = st.one_of(st.sampled_from([bound, bound - 1, bound + 1, 0.0, -0.0, 1e-300]), st.floats())
    elif schema["type"] == "string":
        right = st.text(max_size=3)
    else:
        right = st.booleans()
    return mostly(right, WRONG_KIND)


def mostly(usual, other):
    """``usual`` five times in six, so configs reach the deeper errors."""
    return st.one_of(*[usual] * 5, other)


@settings(max_examples=200, deadline=None)
@given(near_schema(CONFIG_SCHEMA).filter(lambda cfg: isinstance(cfg, dict)))
def test_walker_agrees_with_jsonschema(cfg):
    got = walker_message(cfg)
    assert got == jsonschema_message(cfg, STRICT_TYPES)
    # integral floats for integer keys, and NaN and +-inf, are the only
    # configs jsonschema passes and the walker rejects
    if jsonschema_message(cfg) is not None:
        assert got is not None


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"seed": "x"}, "seed: 'x' is not of type 'integer'"),
        ({"command": "bogus"}, "command: 'bogus' is not one of ['surface-check', 'scaling', 'figure1', 'rate', 'ratio-sweep']"),
        ({"potential": {"omega": 1.0}}, "potential: 'kind' is a required property"),
        ({"thermo": {"mass": 1, "zz": 1, "bogus": 2}}, "thermo: Additional properties are not allowed ('bogus', 'zz' were unexpected)"),
        ({"schedule": {"rule": "constant", "value": True}}, "schedule/value: True is not of type 'number'"),
        ({"thermo": {"bead_count": 1}}, "thermo/bead_count: 1 is less than the minimum of 2"),
        ({"thermo": {"beta": 0}}, "thermo/beta: 0 is less than or equal to the minimum of 0"),
        ({"p_list": [16, 1]}, "p_list/1: 1 is less than the minimum of 2"),
        ({"p_list": [16]}, "p_list: [16] is too short"),
    ],
    ids=["type", "enum", "required", "additionalProperties", "properties", "minimum", "exclusiveMinimum", "items", "minItems"],
)
def test_single_error_message_matches_jsonschema(cfg, message):
    assert walker_message(cfg) == jsonschema_message(cfg) == f"invalid config at {message}"


def schema_nodes(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    if "items" in schema:
        yield from schema_nodes(schema["items"])


def test_walker_handles_every_schema_keyword():
    for node in schema_nodes(CONFIG_SCHEMA):
        list(cli._schema_errors(node, None))  # every keyword of the node is dispatched
    with pytest.raises(NotImplementedError, match="maxItems"):
        list(cli._schema_errors({"maxItems": 3}, []))


@pytest.mark.parametrize(
    "text, message",
    [
        ("command: rate\nthermo: {bead_count: 8.0}\n", "thermo/bead_count: 8.0 is not of type 'integer'"),
        ("command: rate\nn_samples: 1000.0\n", "n_samples: 1000.0 is not of type 'integer'"),
        ("command: ratio-sweep\np_list: [16.0, 32]\n", "p_list/0: 16.0 is not of type 'integer'"),
    ],
    ids=["bead_count", "n_samples", "p_list"],
)
def test_integral_float_for_integer_key_rejected(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: invalid config at {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize(
    "text, key",
    [
        ("command: rate\nthermo: {{beta: {}}}\n", "thermo/beta"),
        ("command: rate\nd: {}\n", "d"),
        ("command: rate\nsurface: {{kind: fourier_norm, mode: 1, phi: {}}}\n", "surface/phi"),
    ],
    ids=["beta", "d", "phi"],
)
def test_non_finite_number_rejected(tmp_path, capsys, text, key, value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text.format(value))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    number = {".nan": "nan", ".inf": "inf", "-.inf": "-inf"}[value]
    assert capsys.readouterr().err == f"error: invalid config at {key}: {number} is not of type 'number'\n"
    assert not out.exists()


RATE_CONFIGS = [
    {"command": "rate", "thermo": {"beta": 1.0, "bead_count": 3}, "potential": {"kind": "harmonic", "omega": 1.0},
     "surface": {"kind": "centroid"}, "n_samples": 200_000, "grid_oracle": True},
    {"command": "rate", "thermo": {"beta": 1.0, "bead_count": 8}, "potential": {"kind": "eckart", "v0": 1.0, "a": 1.0},
     "surface": {"kind": "quad_diff", "offset": 1}, "n_samples": 20_000},
    {"command": "rate", "thermo": {"beta": 1.0, "bead_count": 8}, "potential": {"kind": "double_well", "v0": 1.0, "q0": 1.0},
     "surface": {"kind": "fourier_norm", "mode": 1}, "n_samples": 20_000},
    {"command": "rate", "thermo": {"beta": 1.0, "bead_count": 8}, "potential": {"kind": "free"},
     "surface": {"kind": "centroid"}, "d": 0.3, "n_samples": 20_000},
]


@pytest.mark.parametrize(
    "text",
    [
        re.search(r"```yaml\n(.*?)```", README.read_text(), re.DOTALL).group(1),
        *(yaml.safe_dump(c) for c in RATE_CONFIGS),
        "a: 1e-3\nb: .inf\nc: 0x10\nd: yes\ne: ~\nf: 2001-12-14\ng: 1_000\nh: '8'\ni: [1.0, -.5]\n",
    ],
    ids=["readme", "harmonic_P3", "eckart_P8", "doublewell_P8", "free_P8", "scalars"],
)
def test_load_config_matches_safe_load(tmp_path, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    data = load_config(str(cfg))
    assert data == yaml.safe_load(text)
    assert repr(data) == repr(yaml.safe_load(text))  # same types, not only equal values


def test_cli_import_skips_jsonschema():
    src = README.parent / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import ringtst.cli, sys; print('jsonschema' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert all(f in err[0] for f in fragments), err[0]


@pytest.mark.parametrize(
    "exc",
    [
        rates.WindowExtrapolationError("window estimates non-monotone"),
        rates.GridConvergenceError("refinement changed the result by 3.00%"),
        OverflowError("harmonic-analysis weight overflows on grid"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_numerical_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(rates, "rate_estimates", fail)
    out = tmp_path / "out"
    assert main(["--command", "rate", "--out", str(out)]) == 2
    assert_one_error_line(capsys, type(exc).__name__, str(exc))
    assert not (out / "rate.json").exists()


def test_oracle_overflow_exits_2_before_any_path(tmp_path, capsys, monkeypatch):
    """Both estimators read divergence from an infinite F_ha: with every
    log-weight past the guard, rate_estimates flags divergence, and the grid
    oracle raises OverflowError before any path is drawn or any directory
    is made."""
    monkeypatch.setattr(rates, "OVERFLOW_GUARD", -1.0)
    spec = QuadDiffSurface(offset=1, phi=0.7)
    assert rates.rate_estimates(Eckart(), spec, 0.1, ThermoParams(bead_count=3), n_samples=1000).divergence_flag
    draws = []
    monkeypatch.setattr(rates, "map_free_ring_paths", lambda *a, **k: draws.append(a))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {bead_count: 3}\n"
        "potential: {kind: eckart}\n"
        "surface: {kind: quad_diff, offset: 1, phi: 0.7}\n"
        "d: 0.1\n"
        "n_samples: 1000\n"
        "grid_oracle: true\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert_one_error_line(capsys, "OverflowError")
    assert draws == []
    assert not out.exists()


def test_window_extrapolation_failure_exits_2(tmp_path, capsys):
    # deep tunnelling (beta V0 = 32): a few paths carry the whole weight, so
    # the window means of 200 paths zig-zag (at about one seed in four)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {beta: 8.0, bead_count: 8}\n"
        "potential: {kind: double_well, v0: 4.0, q0: 1.0}\n"
        "surface: {kind: centroid}\n"
        "d: 0.5\n"
        "n_samples: 200\n"
        "seed: 0\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert_one_error_line(capsys, "WindowExtrapolationError")
