import json
import re
from pathlib import Path

import jsonschema
import pytest

import ringtst
from ringtst import cli, rates
from ringtst.cli import CONFIG_SCHEMA, ConfigError, main, validate_config


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), *argv])


def test_exports_resolve():
    missing = [name for name in ringtst.__all__ if not hasattr(ringtst, name)]
    assert missing == []


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
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


def test_malformed_yaml_rejected(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: [unclosed\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2


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


def test_scaling_command(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: scaling\nschedule: {rule: constant, value: 1}\np_list: [16, 32, 64, 128]\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "scaling_summary.json").read_text())
    names = {s["quantity"] for s in doc["series"]}
    assert any("gp[" in n for n in names)
    assert (tmp_path / "scaling.csv").exists()


def test_scaling_half_mode_schedule(tmp_path):
    # the half-mode path vanishes at alpha = 0, so every series moves to pi/4
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: scaling\nschedule: {rule: fracP, value: 0.5}\np_list: [16, 32, 64, 128]\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "scaling_summary.json").read_text())
    assert len(doc["series"]) == 4


def test_surface_check_command(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("command: surface-check\nsurface: {kind: fourier_norm, mode: 3, phi: 0.7}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "surface_check.json").read_text())
    assert doc["max_rel_gp_form_mismatch"] < 1e-10
    assert doc["max_unit_norm_deviation"] < 1e-12
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
    doc = json.loads((tmp_path / "rate" / "rate.json").read_text())
    assert doc["rate_report"]["divergence_flag"] is True
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
    assert_one_error_line(capsys, "mode 0", "depends on the centroid")
    assert not (out / "rate.json").exists()


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


def test_meta_schema_checked_once(tmp_path, monkeypatch):
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    check = cls.check_schema
    calls = []

    def counted(schema, *args, **kwargs):
        calls.append(schema)
        return check(schema, *args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", staticmethod(counted))
    cli._validator.cache_clear()
    for i in range(3):
        assert run(tmp_path / str(i), "--command", "figure1") == 0
    assert calls == [CONFIG_SCHEMA]


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


def test_window_extrapolation_failure_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "command: rate\n"
        "thermo: {beta: 4.0, bead_count: 8}\n"
        "potential: {kind: eckart}\n"
        "surface: {kind: quad_diff, offset: 1, phi: 1.4}\n"
        "d: 0.5\n"
        "n_samples: 5000\n"
        "seed: 0\n"
    )
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert_one_error_line(capsys, "WindowExtrapolationError")
