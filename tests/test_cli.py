"""Command-line surface: formats, config plumbing, manifests, exits."""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planar_pendulum import (
    InteractionParams,
    make_tau_grid,
    solve_spectrum,
    switch_off_coefficients,
    switch_off_evolution,
    switch_off_populations,
    switch_on_populations,
)
from planar_pendulum.cli import ConfigError, _fmt, _write_csv, main, parse_range


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# --- range grammar ----------------------------------------------------------

def test_parse_range_inclusive_endpoint():
    vals = parse_range("-40:0:0.1")
    assert len(vals) == 401
    assert vals[0] == -40.0
    assert vals[-1] == pytest.approx(0.0, abs=1e-12)


def test_parse_range_endpoint_within_half_step():
    # 0.9999 is within half a step of 0:1:0.25's last point
    assert len(parse_range("0:0.9999:0.25")) == 5
    assert len(parse_range("0:0.874:0.25")) == 4   # 0.874 < 0.875 cutoff
    assert len(parse_range("3:3:1")) == 1


@pytest.mark.parametrize("text", ["1:2", "a:b:c", "0:1:0", "0:1:-0.5", "5:1:1",
                                  "0:1:nan", "nan:1:1", "0:inf:1", "-inf:0:1"])
def test_parse_range_rejects(text):
    with pytest.raises(ConfigError):
        parse_range(text)


# --- commands ---------------------------------------------------------------

def test_spectrum_deterministic_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["spectrum", "--zeta", "25", "--eta-range", "-10:-8:1",
            "--n-states", "3", "--output", "a.csv"]
    assert main(argv) == 0
    assert main(["spectrum", "--zeta", "25", "--eta-range", "-10:-8:1",
                 "--n-states", "3", "--output", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    rows = read_csv(tmp_path / "a.csv")
    assert len(rows) == 9
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 3)
    assert float(rows[0]["energy"]) == pytest.approx(float(spec.energies[0]),
                                                     abs=1e-12)
    assert rows[0]["symmetry"] == "A1"


def test_manifest_lists_checksums(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["spectrum", "--zeta", "25", "--eta", "-10", "--output", "s.csv"])
    manifest = json.loads((tmp_path / "s.manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["version"]
    assert manifest["config"]["zeta"] == 25.0
    entry = manifest["outputs"][0]
    digest = hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest()
    assert entry["sha256"] == digest
    assert entry["bytes"] == (tmp_path / "s.csv").stat().st_size


def test_config_file_mirror_and_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "spectrum", "zeta": 25,
                               "eta": -10, "n-states": 4,
                               "output": "c.csv"}))
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert len(read_csv(tmp_path / "c.csv")) == 4
    # explicit flag wins over the file value
    assert main(["spectrum", "--config", str(cfg), "--n-states", "2",
                 "--output", "d.csv"]) == 0
    assert len(read_csv(tmp_path / "d.csv")) == 2


@pytest.mark.parametrize("command,value", [
    ("spectrum", {"n-states": 2.7}),
    ("spectrum", {"n-states": True}),
    ("spectrum", {"format": "xml"}),
    ("crossings", {"pair": 3}),
])
def test_config_values_are_typed_like_flags(tmp_path, monkeypatch, capsys,
                                            command, value):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"zeta": 16, "eta-range": "-10:-6:0.1",
                               "output": "o.csv", **value}))
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(cfg)])
    assert exit_.value.code == 2
    assert next(iter(value)) in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_config_and_flags_write_equal_manifests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--eta", "-10", "--zeta", "25", "--n-states",
                 "3", "--output", "flags.csv"]) == 0
    cfg = tmp_path / "run.json"
    # null leaves an option at its default
    cfg.write_text(json.dumps({"command": "spectrum", "eta": -10, "zeta": 25,
                               "n-states": 3, "j-max": None,
                               "output": "file.csv"}))
    assert main(["spectrum", "--config", str(cfg)]) == 0

    def config(stem):
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        return {k: v for k, v in manifest["config"].items()
                if k not in ("config", "output")}

    assert config("flags") == config("file")
    assert repr(config("file")["eta"]) == "-10.0"
    assert (tmp_path / "flags.csv").read_bytes() == \
        (tmp_path / "file.csv").read_bytes()


def test_config_unknown_key_is_line_referenced(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n  "zeta": 25,\n  "ewa": -10\n}\n')
    assert main(["spectrum", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:3" in err
    assert "ewa" in err


def test_config_value_error_is_line_referenced(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n  "eta": -1,\n  "n-states": 2.7\n}\n')
    with pytest.raises(SystemExit) as exit_:
        main(["spectrum", "--zeta", "1", "--config", str(cfg)])
    assert exit_.value.code == 2
    assert f"{cfg}:3: argument --n-states" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()


def test_manifest_diagnostics(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def diagnostics(stem):
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        return manifest.get("diagnostics")

    assert main(["switch-on", "--eta", "-10", "--zeta", "25", "--j0", "1",
                 "--output", "on.csv"]) == 0
    on = diagnostics("on")
    assert sorted(on) == ["basis_tail", "cut_gap", "j_max",
                          "population_deficit"]
    assert 0 < on["basis_tail"] <= 1e-12 and on["j_max"] % 8 == 0
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 20)
    deficit = 1.0 - sum(r.probability for r in switch_on_populations(spec, 1))
    assert on["population_deficit"] == deficit
    # the cut splits the tunnelling doublet of states 19 and 20
    assert on["cut_gap"] == spec.cut_gap
    assert 0 < on["cut_gap"] < 1e-8

    assert main(["topology-map", "--eta-range", "-30:0:2", "--zeta-range",
                 "5:35:2", "--n-states", "8", "--output", "map.csv"]) == 0
    assert sorted(diagnostics("map")) == sorted(on)
    assert main(["spectrum", "--eta", "-10", "--zeta", "25",
                 "--output", "s.csv"]) == 0
    assert sorted(diagnostics("s")) == ["basis_tail", "cut_gap", "j_max"]

    assert main(["propagate", "--n0", "1", "--eta-from", "-4",
                 "--zeta-from", "9", "--eta-to", "-10", "--zeta-to", "25",
                 "--ramp-duration", "0.1", "--hold-duration", "0.2",
                 "--output", "p.csv"]) == 0
    assert main(["propagate", "--j0", "1", "--eta-to", "-10",
                 "--zeta-to", "25", "--ramp-duration", "0.1",
                 "--output", "r.csv"]) == 0
    held = diagnostics("p")
    assert sorted(held) == ["basis_tail", "cut_gap", "grid_tail", "hold_j_max",
                            "hold_tail", "j_max", "norm_drift"]
    assert held["hold_j_max"] % 8 == 0 and 0 < held["hold_tail"] <= 1e-12
    assert 0 <= held["norm_drift"] <= 1e-10
    assert sorted(diagnostics("r")) == ["grid_tail", "norm_drift"]


def test_a_near_doublet_at_the_state_cut_shows_in_the_cut_gap(tmp_path,
                                                              monkeypatch):
    # states 20 and 21 are an A1/A2 pair 1.4e-11 apart: which one is kept
    # depends on the cutoff's rounding, so the manifest reports the gap
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--eta", "-28.494148325036885", "--zeta", "0",
                 "--n-states", "20", "--output", "s.csv"]) == 0
    manifest = json.loads((tmp_path / "s.manifest.json").read_text())
    assert abs(manifest["diagnostics"]["cut_gap"]) < 1e-10


def test_invalid_params_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--zeta", "-4", "--eta", "-1"]) == 1
    assert "zeta" in capsys.readouterr().err


def test_crossings_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["crossings", "--zeta", "16", "--eta-range", "-6:-2:0.5",
                 "--pair", "1", "2", "--resolution", "41",
                 "--output", "x.csv"]) == 0
    rows = read_csv(tmp_path / "x.csv")
    assert len(rows) == 1
    assert rows[0]["kind"] == "genuine"
    assert float(rows[0]["eta_cross"]) == pytest.approx(-4.0, abs=1e-5)


def test_crossings_window_without_a_crossing_has_diagnostics(tmp_path,
                                                             monkeypatch):
    # the (1, 2) crossing at zeta = 16 is at eta = -4, outside the window
    monkeypatch.chdir(tmp_path)
    assert main(["crossings", "--zeta", "16", "--eta-range", "-10:-6:0.1",
                 "--pair", "1", "2", "--output", "x.csv"]) == 0
    assert read_csv(tmp_path / "x.csv") == []
    manifest = json.loads((tmp_path / "x.manifest.json").read_text())
    diag = manifest["diagnostics"]
    assert sorted(diag) == ["basis_tail", "cut_gap", "j_max", "tail_bound"]
    assert diag["j_max"] == solve_spectrum(InteractionParams(-10.0, 16.0),
                                           3).j_max
    assert 0 < diag["basis_tail"] <= 1e-12
    assert 0 < diag["tail_bound"] <= 0.5e-12


def test_switch_on_populations_match_library(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["switch-on", "--zeta", "25", "--eta", "-10", "--j0", "1",
                 "--n-states", "6", "--output", "on.csv"]) == 0
    rows = read_csv(tmp_path / "on.csv")
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 6)
    pops = switch_on_populations(spec, 1)
    for row, rec in zip(rows, pops):
        assert float(row["probability"]) == pytest.approx(rec.probability,
                                                          abs=1e-12)


def test_switch_off_series_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["switch-off", "--zeta", "25", "--eta", "-5", "--n0", "0",
                 "--tau-max", "6.2832", "--output", "off.csv"]) == 0
    series = read_csv(tmp_path / "off_series.csv")
    assert float(series[0]["tau"]) == 0.0
    j2 = np.array([float(r["J2"]) for r in series])
    assert j2.max() - j2.min() < 1e-10
    manifest = json.loads((tmp_path / "off.manifest.json").read_text())
    listed = {o["path"] for o in manifest["outputs"]}
    assert listed == {"off.csv", "off_series.csv"}


def test_propagate_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "--j0", "0", "--eta-to", "-10",
                 "--zeta-to", "25", "--ramp-duration", "0.1",
                 "--hold-duration", "0.2", "--dtau", "1e-3",
                 "--output", "p.csv"]) == 0
    rows = read_csv(tmp_path / "p.csv")
    assert float(rows[0]["tau"]) == 0.0
    assert float(rows[-1]["tau"]) == pytest.approx(0.3, abs=1e-9)
    assert float(rows[-1]["eta"]) == -10.0
    for r in rows:
        assert abs(float(r["norm"]) - 1.0) < 1e-9


def test_propagate_schedule_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sched.json"
    cfg.write_text(json.dumps({
        "command": "propagate", "j0": 0, "dtau": 1e-3, "output": "sp.csv",
        "schedule": {"segments": [
            {"duration": 0.25,
             "eta": {"profile": "linear", "from": 0, "to": -7},
             "zeta": {"profile": "constant", "value": 25}},
        ]},
    }))
    assert main(["propagate", "--config", str(cfg)]) == 0
    rows = read_csv(tmp_path / "sp.csv")
    assert float(rows[0]["zeta"]) == 25.0
    assert float(rows[-1]["eta"]) == pytest.approx(-7.0)


def test_propagate_needs_a_schedule(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "--j0", "0"]) == 2
    assert "schedule" in capsys.readouterr().err


def test_topology_map_resolution_floor(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["topology-map", "--eta-range", "-10:0:1",
                 "--zeta-range", "5:40:1"]) == 2
    assert "16" in capsys.readouterr().err


def test_topology_map_outputs_and_env_threads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["topology-map", "--eta-range", "-32:-2:2", "--zeta-range",
            "5:35:2", "--tau-tilde", "12.566", "--n-states", "8",
            "--j-max", "32"]
    monkeypatch.setenv("PLANAR_PENDULUM_THREADS", "2")
    assert main(argv + ["--output", "t1.csv"]) == 0
    monkeypatch.delenv("PLANAR_PENDULUM_THREADS")
    assert main(argv + ["--output", "t2.csv", "--threads", "1"]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    overlays = json.loads((tmp_path / "t1_overlays.json").read_text())
    assert "2" in overlays["kappa_loci"]
    assert overlays["kappa_loci"]["3"]["parity"] == "odd"
    boundary = overlays["well_boundary"]
    assert boundary["eta"][0] == pytest.approx(-2.0 * boundary["zeta"][0])


def test_json_format(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--zeta", "25", "--eta", "-10",
                 "--n-states", "2", "--format", "json",
                 "--output", "s.json"]) == 0
    body = json.loads((tmp_path / "s.json").read_text())
    assert body["columns"][:2] == ["eta", "zeta"]
    assert body["rows"][0][2] == 0          # state index stays an integer
    assert isinstance(body["rows"][0][4], float)


def test_json_tables_load_back_to_the_library_floats(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["switch-off", "--eta", "-10", "--zeta", "25", "--n0", "1",
                 "--tau-max", "6.2832", "--format", "json",
                 "--output", "off.json"]) == 0
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 4)
    pops = json.loads((tmp_path / "off.json").read_text())
    assert pops["columns"] == ["eta", "zeta", "n0", "J", "probability"]
    assert [row[4] for row in pops["rows"]] == [
        rec.probability for rec in switch_off_populations(spec, 1)]
    body = json.loads((tmp_path / "off_series.json").read_text())
    assert body["columns"] == ["eta", "zeta", "n0", "tau", "cos", "cos2", "J2"]
    tau = make_tau_grid(6.2832)
    series = switch_off_evolution(switch_off_coefficients(spec, 1), tau)
    columns = list(zip(*body["rows"]))
    assert list(columns[3]) == tau.tolist()
    for k, name in enumerate(("cos", "cos2", "J2"), start=4):
        assert list(columns[k]) == series[name].values.tolist()


def test_validate_subset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "--checks",
                 "free-rotor-spectrum,potential-topology"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    assert "2/2" in out


@pytest.mark.parametrize("flags", [["--j-max", "3"], ["--output", "x"],
                                   ["--format", "json"]])
def test_validate_takes_only_its_options(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["validate", "--checks", "free-rotor-spectrum", *flags])
    assert exit_.value.code == 2


NAN_SCHEDULE = Path(__file__).parent / "data" / "nan_schedule.json"

_RAMP = ["propagate", "--j0", "0", "--eta-to", "-10", "--zeta-to", "25",
         "--ramp-duration", "0.1"]


@pytest.mark.parametrize("argv,message", [
    (["switch-off", "--eta", "-10", "--zeta", "25", "--n0", "-1"], "n0"),
    (["switch-on", "--eta", "-10", "--zeta", "25", "--tau-max", "6.3",
      "--samples-per-period", "0"], "samples_per_period"),
    (["switch-off", "--eta", "-10", "--zeta", "25", "--tau-max", "6.3",
      "--samples-per-period", "-5"], "samples_per_period"),
    (_RAMP + ["--hold-duration", "-5"], "hold_duration"),
    *(pytest.param(argv,
                   f"{name} must be finite and > 0, got {argv[-1]}",
                   id=f"{argv[-2][2:]}-{argv[-1]}")
      for name, argv in [
          ("tau_max", ["switch-off", "--eta", "-10", "--zeta", "25",
                       "--tau-max", "inf"]),
          ("tau_max", ["switch-on", "--eta", "-10", "--zeta", "25",
                       "--tau-max", "nan"]),
          ("dtau", _RAMP + ["--dtau", "inf"]),
          ("dtau", _RAMP + ["--dtau", "nan"]),
          ("propagation window", _RAMP + ["--tau-end", "inf"]),
          *(("tau_tilde", ["topology-map", "--eta-range", "-30:0:2",
                           "--zeta-range", "0:30:2", "--tau-tilde", bad])
            for bad in ("nan", "inf"))]),
    pytest.param(["propagate", "--j0", "0", "--eta-to", "inf", "--zeta-to",
                  "25", "--ramp-duration", "0.1"],
                 "profile end must be finite, got inf", id="eta-to-inf"),
    pytest.param(_RAMP + ["--zeta-from", "nan"],
                 "profile start must be finite, got nan", id="zeta-from-nan"),
    pytest.param(["propagate", "--config", str(NAN_SCHEDULE)],
                 "constant profile start must be finite, got nan",
                 id="config-schedule-nan"),
])
def test_out_of_range_inputs_exit_one(tmp_path, monkeypatch, capsys, argv,
                                      message):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "r.csv"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


# one column per kind of cell, and one that mixes ints and floats
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
                    st.floats())
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
_ROW = st.tuples(st.booleans(), st.integers(),
                 st.integers(-2**63, 2**63 - 1).map(np.int64), _FLOATS,
                 _FLOATS.map(np.float64), _TEXT,
                 st.one_of(st.integers(), _FLOATS))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_ROW, max_size=12))
def test_csv_cells_are_written_as_fmt(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    columns = ["b", "i", "i64", "f", "f64", "s", "mixed"]
    _write_csv(str(path), columns, [list(r) for r in rows])
    with open(path, newline="") as fh:
        text = fh.read()
    assert text == "".join(",".join(_fmt(v) for v in row) + "\n"
                           for row in [columns, *rows])


def test_negative_values_after_flags(tmp_path, monkeypatch):
    # argparse alone would treat "-10:-8:1" as an option string
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--eta-range", "-10:-8:1", "--zeta", "25",
                 "--n-states", "1", "--output", "neg.csv"]) == 0
    assert len(read_csv(tmp_path / "neg.csv")) == 3


@pytest.mark.parametrize("flags,env", [(["--threads", "0"], None),
                                       ([], "0"), ([], "many")])
def test_thread_count_ignored_outside_topology_map(tmp_path, monkeypatch,
                                                   flags, env):
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("PLANAR_PENDULUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("PLANAR_PENDULUM_THREADS", env)
    assert main(["spectrum", "--eta", "-10", "--zeta", "25", "--n-states",
                 "2", "--output", "s.csv"] + flags) == 0
    assert len(read_csv(tmp_path / "s.csv")) == 2
