"""Command-line surface: formats, config plumbing, manifests, exits."""

import csv
import hashlib
import json
import math
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from planar_pendulum import (
    InteractionParams,
    make_tau_grid,
    solve_spectrum,
    solve_stacks,
    switch_off_coefficients,
    switch_off_evolution,
    switch_off_populations,
    switch_on_coefficients,
    switch_on_evolution,
    switch_on_populations,
)
import planar_pendulum.cli as cli
from planar_pendulum.cli import (BLOCK_ROWS, OPTIONS, Block, Blocks,
                                 ConfigError, _fmt, _write_csv,
                                 _write_json_table, main, parse_range)


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


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["bogus"], ["bogus", "--zeta", "16"],
    *([command, "--help"] for command in OPTIONS),
    ["crossings", "--zeta", "16", "--bogus"],
    ["spectrum", "--eta"],
    ["crossings", "--zeta", "16", "--pair", "2"],
    ["spectrum", "--config", "unknown.json"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_subparser_parses_as_all_of_them(tmp_path, monkeypatch, capsys,
                                             argv):
    """main adds only the options of the command argv names, and prints,
    refuses and exits exactly as with every command's options."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "unknown.json").write_text('{\n  "zeta": 25,\n  "ewa": -10\n}\n')
    built, full = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command)
                        or full(command))
    lean = _outcome(argv, capsys)
    assert built == [argv[0] if argv and argv[0] in OPTIONS else None]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert _outcome(argv, capsys) == lean
    assert lean[0] in (0, 2) and (lean[1] or lean[2])


def test_crossings_take_no_eta_tol(tmp_path, monkeypatch, capsys):
    # both kinds of crossing are roots placed at the float spacing of eta:
    # there is no refinement tolerance, as a flag or as a config key
    monkeypatch.chdir(tmp_path)
    argv = ["crossings", "--zeta", "16", "--eta-range", "-10:-6:0.1",
            "--pair", "2", "3", "--resolution", "41"]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--eta-tol", "1e-9"])
    assert exit_.value.code == 2
    assert "--eta-tol" in capsys.readouterr().err
    cfg = tmp_path / "tol.json"
    cfg.write_text('{\n  "zeta": 16,\n  "eta-tol": 1e-9\n}\n')
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "tol.json:3" in err and "eta-tol" in err
    assert not (tmp_path / "crossings.csv").exists()


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
    assert sorted(on) == ["basis_tail", "cut_gap", "cutoff_misses", "j_max",
                          "population_deficit"]
    spec = solve_spectrum(InteractionParams(-10.0, 25.0), 20)
    assert 0 < on["basis_tail"] <= 1e-12 and on["j_max"] == spec.j_max
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
    assert sorted(diagnostics("s")) == ["basis_tail", "cut_gap",
                                        "cutoff_misses", "j_max"]

    # scans whose points span several automatic cutoffs fold each key over
    # the points as their own solves give it; (0, 7) at 6 states misses its
    # first cutoff guess
    scan = ["--eta-range", "-30:0:3.75", "--zeta-range", "7:62:11",
            "--n-states", "6"]
    specs = [solve_spectrum(InteractionParams(float(eta), float(zeta)), 6)
             for zeta in parse_range("7:62:11")
             for eta in parse_range("-30:0:3.75")]
    assert len({spec.j_max for spec in specs}) > 1
    assert any(spec.grown for spec in specs)
    folded = {"j_max": max(spec.j_max for spec in specs),
              "basis_tail": max(spec.basis_tail for spec in specs),
              "cut_gap": min(spec.cut_gap for spec in specs),
              "cutoff_misses": sum(spec.grown for spec in specs)}
    assert main(["spectrum", *scan, "--output", "ss.csv"]) == 0
    assert diagnostics("ss") == folded
    assert main(["switch-on", *scan, "--j0", "1", "--output", "son.csv"]) == 0
    folded["population_deficit"] = max(
        1.0 - sum(r.probability for r in switch_on_populations(spec, 1))
        for spec in specs)
    assert diagnostics("son") == folded

    assert main(["propagate", "--n0", "1", "--eta-from", "-4",
                 "--zeta-from", "9", "--eta-to", "-10", "--zeta-to", "25",
                 "--ramp-duration", "0.1", "--hold-duration", "0.2",
                 "--output", "p.csv"]) == 0
    assert main(["propagate", "--j0", "1", "--eta-to", "-10",
                 "--zeta-to", "25", "--ramp-duration", "0.1",
                 "--output", "r.csv"]) == 0
    held = diagnostics("p")
    assert sorted(held) == ["basis_tail", "cut_gap", "cutoff_misses",
                            "grid_tail", "hold_j_max", "hold_tail", "j_max",
                            "norm_drift", "ramp_j_max", "ramp_tail"]
    assert held["hold_j_max"] % 8 == 0 and 0 < held["hold_tail"] <= 1e-12
    assert 0 <= held["norm_drift"] <= 1e-10
    ramped = diagnostics("r")
    assert sorted(ramped) == ["grid_tail", "norm_drift", "ramp_j_max",
                              "ramp_tail"]
    for run in (held, ramped):
        assert run["ramp_j_max"] % 8 == 0 and 0 < run["ramp_tail"] <= 1e-12


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
    # the end point passes at 24; the window's certificate, taken before
    # the scan up to the end point's top level plus the window width, first
    # holds one row above it, at 25
    assert solve_spectrum(InteractionParams(-10.0, 16.0), 3).j_max == 24
    assert diag["j_max"] == 25
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


def test_outputs_with_another_extension_keep_their_own_manifests(
        tmp_path, monkeypatch):
    # an output not ending in .{format} is its own stem whole: run.1 and
    # run.2 must not share run.manifest.json, which the second run would
    # overwrite
    monkeypatch.chdir(tmp_path)
    argv = ["switch-off", "--zeta", "25", "--eta", "-5", "--n0", "0",
            "--tau-max", "6.2832", "--output"]
    for name in ("run.1", "run.2"):
        assert main([*argv, name]) == 0
    for name in ("run.1", "run.2"):
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        listed = [o["path"] for o in manifest["outputs"]]
        assert listed == [name, f"{name}_series.csv"]
        for o in manifest["outputs"]:
            assert o["bytes"] == (tmp_path / o["path"]).stat().st_size
    assert not (tmp_path / "run.manifest.json").exists()
    assert main([*argv, "run", "--format", "json"]) == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert [o["path"] for o in manifest["outputs"]] == ["run",
                                                        "run_series.json"]


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


@pytest.mark.parametrize("flags,keys", [
    pytest.param(["--eta-to", "-10", "--zeta-to", "25", "--ramp-duration",
                  "0.1"], {}, id="ramp-flags"),
    pytest.param(["--ramp-duration", "0.1"], {}, id="one-flag"),
    pytest.param([], {"eta-to": -10, "zeta-to": 25, "ramp-duration": 0.1},
                 id="ramp-keys"),
    pytest.param([], {"zeta-to": 25}, id="one-key"),
    # flags with defaults, given at their default or not
    pytest.param(["--hold-duration", "5"], {}, id="hold-flag"),
    pytest.param(["--shape", "smooth_cosine"], {}, id="default-shape-flag"),
    pytest.param([], {"eta-from": -3, "zeta-from": 5}, id="from-keys"),
    pytest.param([], {"shape": "linear"}, id="shape-key"),
])
def test_schedule_and_ramp_flags_are_refused(tmp_path, monkeypatch, capsys,
                                             flags, keys):
    # beside a constant (-3, 5) schedule, the ramp flags used to replace it
    # or be ignored, with exit 0 and the schedule in the manifest
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sched.json"
    cfg.write_text(json.dumps({
        "command": "propagate", "j0": 0, **keys,
        "schedule": {"segments": [
            {"duration": 0.3, "eta": {"profile": "constant", "value": -3},
             "zeta": {"profile": "constant", "value": 5}}]},
    }, indent=1))
    line = 1 + next(i for i, text in enumerate(cfg.read_text().splitlines())
                    if '"schedule":' in text)
    assert main(["propagate", "--config", str(cfg), *flags,
                 "--output", "r.csv"]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:{line}: " in err and "not both" in err
    given = [*flags[::2], *("--" + key for key in keys)]
    assert all(flag in err for flag in given)
    assert [p.name for p in tmp_path.iterdir()] == ["sched.json"]


def test_propagate_needs_a_schedule(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["propagate", "--j0", "0"]) == 2
    assert "schedule" in capsys.readouterr().err


_SEGMENT = {"duration": 0.1, "eta": {"profile": "constant", "value": -10},
            "zeta": {"profile": "constant", "value": 25}}


@pytest.mark.parametrize("schedule,message", [
    pytest.param({"segments": 5},
                 "schedule must be an object with a list of 'segments'",
                 id="segments-5"),
    pytest.param({"segments": [5]},
                 "schedule.segments[0]: segment must be an object",
                 id="segment-5"),
    pytest.param({"segments": [dict(_SEGMENT, duration=None)]},
                 "schedule.segments[0].duration must be a number, got null",
                 id="duration-null"),
    pytest.param({"segments": [dict(_SEGMENT, duration="abc")]},
                 "schedule.segments[0].duration must be a number, got abc",
                 id="duration-text"),
    pytest.param({"segments": [dict(_SEGMENT, eta={"profile": "constant",
                                                   "value": "abc"})]},
                 "schedule.segments[0].eta.value must be a number, got abc",
                 id="value-text"),
    pytest.param({"segments": [dict(_SEGMENT, eta=None)]},
                 "schedule.segments[0].eta: profile must be an object with "
                 "a 'profile' kind", id="profile-null"),
    pytest.param({"segments": [dict(_SEGMENT, eta={"profile": "constant"})]},
                 "schedule.segments[0].eta: constant profile needs 'value'",
                 id="constant-without-value"),
    pytest.param({"segments": [dict(_SEGMENT, zeta={"profile": "linear",
                                                    "from": 0})]},
                 "schedule.segments[0].zeta: linear profile needs 'from' "
                 "and 'to'", id="linear-without-to"),
    pytest.param({"segments": [dict(_SEGMENT, eta={"profile": "cubic",
                                                   "value": 1})]},
                 "schedule.segments[0].eta: unknown profile kind 'cubic'",
                 id="unknown-kind"),
    pytest.param({"segments": [{k: v for k, v in _SEGMENT.items()
                                if k != "duration"}]},
                 "schedule.segments[0]: missing 'duration'",
                 id="no-duration"),
])
def test_malformed_schedule_is_a_config_error(tmp_path, monkeypatch, capsys,
                                              schedule, message):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sched.json"
    cfg.write_text(json.dumps({"command": "propagate", "j0": 0,
                               "schedule": schedule}, indent=1))
    line = 1 + next(i for i, text in enumerate(cfg.read_text().splitlines())
                    if '"schedule":' in text)
    assert main(["propagate", "--config", str(cfg), "--output", "r.csv"]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sched.json"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["spectrum", "--eta", "-10", "--eta-range", "-10:0:1",
                  "--zeta", "25"],
                 "give either --eta or --eta-range, not both",
                 id="eta-and-eta-range"),
    pytest.param(["spectrum", "--zeta", "25"], "missing --eta or --eta-range",
                 id="no-eta"),
    pytest.param(["spectrum", "--eta", "-10", "--zeta", "25", "--j-max", "x"],
                 "argument --j-max: expected an integer or 'auto', got 'x'",
                 id="j-max-x"),
    pytest.param(["crossings", "--zeta", "16", "--pair", "2", "3"],
                 "crossings needs --eta-range as the search window",
                 id="crossings-without-a-window"),
    pytest.param(["crossings", "--zeta", "16", "--eta-range", "-10:-6:0.1"],
                 "crossings needs --pair N M (adjacent states)",
                 id="crossings-without-a-pair"),
    pytest.param(["propagate", "--j0", "1", "--eta-to", "-10", "--zeta-to",
                  "25"],
                 "a ramp needs --eta-to, --zeta-to and --ramp-duration "
                 "together", id="partial-ramp"),
    pytest.param(["propagate", "--j0", "1", "--n0", "0", "--eta-to", "-10",
                  "--zeta-to", "25", "--ramp-duration", "0.1"],
                 "give either --j0 or --n0, not both", id="j0-and-n0"),
    pytest.param(["topology-map", "--eta-range", "-10:0:0.5"],
                 "topology-map needs --eta-range and --zeta-range",
                 id="topology-map-without-a-zeta-range"),
])
def test_usage_refusals_exit_two(tmp_path, monkeypatch, capsys, argv,
                                 message):
    monkeypatch.chdir(tmp_path)
    code, out, err = _outcome(argv, capsys)
    assert (code, out) == (2, "") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text,line,message", [
    pytest.param(None, None, "cannot read config: [Errno 2]",
                 id="unreadable"),
    pytest.param('{\n  "zeta": 25,\n  "eta": \n}\n', 4,
                 "invalid JSON: Expecting value", id="invalid-json"),
    pytest.param('[\n  "zeta", 25\n]\n', None,
                 "config root must be an object", id="root-not-an-object"),
    pytest.param('{\n  "zeta": 25,\n  "command": "crossings"\n}\n', 3,
                 "config is for command 'crossings', invoked 'spectrum'",
                 id="another-command"),
    pytest.param('{\n  "zeta": 25,\n  "eta": [-10, -5]\n}\n', 3,
                 "argument --eta: unexpected values ['-5']",
                 id="list-for-a-scalar"),
])
def test_config_refusals_name_the_file(tmp_path, monkeypatch, capsys, text,
                                       line, message):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    where = str(cfg) if line is None else f"{cfg}:{line}"
    code, out, err = _outcome(["spectrum", "--config", str(cfg),
                               "--output", "o.csv"], capsys)
    assert (code, out) == (2, "") and f"{where}: {message}" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv,config,plain", [
    pytest.param(["spectrum", "--eta", "-10", "--zeta", "25", "--j-max",
                  "auto"], None, ["spectrum", "--eta", "-10", "--zeta", "25"],
                 id="j-max-auto"),
    pytest.param(["crossings", "--config", "run.json"],
                 {"command": "crossings", "zeta": 16, "eta-range":
                  "-10:-6:0.1", "resolution": 41, "pair": [2, 3]},
                 ["crossings", "--zeta", "16", "--eta-range", "-10:-6:0.1",
                  "--resolution", "41", "--pair", "2", "3"],
                 id="config-pair-list"),
])
def test_accepted_forms_write_what_the_plain_flags_write(
        tmp_path, monkeypatch, argv, config, plain):
    """--j-max auto is the default cutoff, and a config list gives the
    values of one flag."""
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config, indent=1))
    assert main([*argv, "--output", "a.csv"]) == 0
    assert main([*plain, "--output", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()


def test_topology_map_resolution_floor(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["topology-map", "--eta-range", "-10:0:1",
                 "--zeta-range", "5:40:1"]) == 2
    assert "16" in capsys.readouterr().err


def test_topology_map_outputs_and_ignored_threads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["topology-map", "--eta-range", "-32:-2:2", "--zeta-range",
            "5:35:2", "--tau-tilde", "12.566", "--n-states", "8",
            "--j-max", "32"]
    assert main(argv + ["--output", "t1.csv", "--threads", "2"]) == 0
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
    pytest.param(["crossings", "--zeta", "16", "--eta-range", "-6:1:0.1",
                  "--pair", "1", "2"], "eta must be <= 0 by convention",
                 id="crossings-window-past-eta-0"),
    # a record's kappa = |eta|/sqrt(zeta) has no value at zeta = 0; both
    # windows hold a record
    *(pytest.param(["crossings", *zeta, "--eta-range", "-5:0:0.5",
                    "--pair", *pair], "error: crossings: zeta must be > 0",
                   id=f"crossings-zeta-0-pair-{'-'.join(pair)}-{zeta[0][2:]}")
      for zeta in (["--zeta", "0"], ["--zeta-range", "0:16:16"])
      for pair in (["1", "2"], ["2", "3"])),
    # the propagate start states: a negative eigenstate index, and a start
    # past the grid_tail limit n/4 of --grid-points
    pytest.param(["propagate", "--n0", "-1", *_RAMP[3:]], "n0",
                 id="propagate-n0-negative"),
    pytest.param(_RAMP[:1] + ["--j0", "20", "--grid-points", "64",
                              *_RAMP[3:]],
                 "exceeds the grid band limit 16", id="propagate-j0-past-n/4"),
    pytest.param(["propagate", "--n0", "3", "--eta-from", "-10",
                  "--zeta-from", "25", "--grid-points", "32", *_RAMP[3:]],
                 "grid too coarse for this basis size",
                 id="propagate-eigenstate-past-n/4"),
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
_ROW = st.tuples(st.booleans(), st.booleans().map(np.bool_), st.integers(),
                 st.integers(-2**63, 2**63 - 1).map(np.int64), _FLOATS,
                 _FLOATS.map(np.float64), _TEXT,
                 st.one_of(st.integers(), _FLOATS))


def _cell_text(value):
    """The text of a CSV cell by an isinstance walk over the cell kinds."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.15g" % float(value)
    return str(value)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_ROW, max_size=12))
def test_csv_cells_are_written_as_fmt(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    columns = ["b", "np_b", "i", "i64", "f", "f64", "s", "mixed"]
    _write_csv(str(path), columns, [list(r) for r in rows])
    with open(path, newline="") as fh:
        text = fh.read()
    want = [[_cell_text(v) for v in row] for row in [columns, *rows]]
    assert [[_fmt(v) for v in row] for row in [columns, *rows]] == want
    assert text == "".join(",".join(row) + "\n" for row in want)


def _written(writer, path, columns, body):
    """The bytes writer writes for body, or the type of the error it
    raises (json refuses an np.int64 cell on either path)."""
    try:
        writer(str(path), columns, body)
    except TypeError as exc:
        return type(exc)
    return path.read_bytes()


_PREFIX = st.lists(st.one_of(st.integers(),
                             st.integers(-2**63, 2**63 - 1).map(np.int64),
                             _FLOATS, _FLOATS.map(np.float64)), max_size=3)
_SPECIAL = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf])


@st.composite
def _block(draw):
    """A Block whose columns are constant, NaN-constant, mixed 0.0/-0.0 or
    varying (with signed zeros, NaNs and infinities among them), at lengths
    on both sides of the run edges."""
    n = draw(st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                              2 * BLOCK_ROWS + 37]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(
            ["constant", "nan", "zeros", "varying"]), min_size=1,
            max_size=5)):
        if kind == "constant":
            col = np.full(n, draw(_FLOATS))
        elif kind == "nan":
            col = np.full(n, math.nan)
        elif kind == "zeros":
            col = rng.choice(_SPECIAL[:2], n)
        else:
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            special = rng.random(n) < 0.05
            col[special] = rng.choice(_SPECIAL, special.sum())
        columns.append(col)
    return Block(tuple(draw(_PREFIX)), tuple(columns))


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(_block(), min_size=1, max_size=3))
def test_blocks_write_what_their_rows_write(tmp_path_factory, blocks):
    # the rows hold the cells as the row path gets them: prefix values as
    # given, column values from .tolist()
    rows = [[*b.prefix, *cells] for b in blocks
            for cells in zip(*(c.tolist() for c in b.columns))]
    columns = ["c%d" % k for k in range(max(map(len, rows)))]
    tmp = tmp_path_factory.mktemp("blocks")
    for writer in (_write_csv, _write_json_table):
        want = _written(writer, tmp / "rows", columns, rows)
        assert _written(writer, tmp / "blocks", columns,
                        Blocks(blocks)) == want


def test_scan_series_are_written_in_scan_order(tmp_path, monkeypatch):
    # eta = -30 takes cutoff 32 at zeta = 10 while its neighbours take 24,
    # so the switch-on stacks come out of scan order
    monkeypatch.chdir(tmp_path)
    etas, zetas, tau_max = (-30.0, -20.0, -10.0), (10.0, 25.0), 12.6
    points = [InteractionParams(e, z) for z in zetas for e in etas]
    order = [i for s in solve_stacks(points, 6) for i in s.index.tolist()]
    assert order != sorted(order)
    scan = ["--eta-range", "-30:-10:10", "--zeta-range", "10:25:15",
            "--tau-max", str(tau_max)]
    assert main(["switch-on", *scan, "--j0", "2", "--n-states", "6",
                 "--output", "on.csv"]) == 0
    assert main(["switch-off", *scan, "--n0", "1", "--output", "off.csv"]) == 0
    tau = make_tau_grid(tau_max)
    assert len(tau) > 2 * BLOCK_ROWS
    on, off = [], []
    for p in points:
        spec = solve_spectrum(p, 6)
        ser, _ = switch_on_evolution(spec, switch_on_coefficients(spec, 2),
                                     tau)
        on += zip(repeat(p.eta), repeat(p.zeta), repeat(2), tau,
                  *(ser[k].values for k in ("cos", "cos2", "J2", "energy")))
        ser = switch_off_evolution(
            switch_off_coefficients(solve_spectrum(p, 4), 1), tau)
        off += zip(repeat(p.eta), repeat(p.zeta), repeat(1), tau,
                   *(ser[k].values for k in ("cos", "cos2", "J2")))
    for path, head, rows in [
            ("on_series.csv", "eta,zeta,j0,tau,cos,cos2,J2,energy", on),
            ("off_series.csv", "eta,zeta,n0,tau,cos,cos2,J2", off)]:
        text = (tmp_path / path).read_text()
        assert text == "".join(",".join(map(_fmt, row)) + "\n"
                               for row in [head.split(","), *rows])


def test_negative_values_after_flags(tmp_path, monkeypatch):
    # argparse alone would treat "-10:-8:1" as an option string
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "--eta-range", "-10:-8:1", "--zeta", "25",
                 "--n-states", "1", "--output", "neg.csv"]) == 0
    assert len(read_csv(tmp_path / "neg.csv")) == 3


# the thread count is accepted and ignored from the command line or from a
# config file's "threads" key (threads: that key's value, None for no file)
@pytest.mark.parametrize("flags,threads", [(["--threads", "0"], None),
                                           ([], 0), ([], 64)],
                         ids=["flags0-None", "flags1-0", "flags2-many"])
def test_thread_count_ignored_outside_topology_map(tmp_path, monkeypatch,
                                                   flags, threads):
    monkeypatch.chdir(tmp_path)
    if threads is not None:
        (tmp_path / "c.json").write_text(json.dumps({"threads": threads}))
        flags = flags + ["--config", "c.json"]
    assert main(["spectrum", "--eta", "-10", "--zeta", "25", "--n-states",
                 "2", "--output", "s.csv"] + flags) == 0
    assert len(read_csv(tmp_path / "s.csv")) == 2
