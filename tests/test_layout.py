"""The primary path and its twins stay apart, and the bench tracer still
hooks the package.

Only validation and the tests import planar_pendulum.twins, so no command
but validate loads a twin, and the package root exports none of them.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import planar_pendulum
from planar_pendulum import twins

PACKAGE = Path(planar_pendulum.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

MOVED = (
    # from elements
    "BesselTable", "exp_cos_integral", "ansatz_norm_integral",
    "analytic_cos_element", "quadrature_element_matrix",
    "hellmann_feynman_residual", "kinetic_identity_residual",
    # from cqes
    "AnsatzCoefficients", "algebraic_sector_size", "algebraic_ansatz",
    "reconstruct_ansatz", "analytic_switch_off_coefficients",
    "analytic_switch_on_coefficient", "quadrature_switch_off_coefficients",
    "quadrature_switch_on_coefficients", "reconstruct_from_free_rotor",
    # from spectrum and propagate
    "classify_symmetry", "AccuracyReport", "second_order_accuracy_check",
)


def _imports_twins(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any("twins" in name.split(".") for name in names):
            return True
    return False


def test_twins_are_imported_only_by_validation():
    importers = {path.name for path in PACKAGE.glob("*.py")
                 if _imports_twins(path)}
    assert importers == {"validation.py"}


def test_primary_commands_load_no_twin(tmp_path):
    code = ("import sys\n"
            "import planar_pendulum.cli as cli\n"
            "assert cli.main(['spectrum', '--eta', '-10', '--zeta', '25', "
            "'--n-states', '2', '--output', 's.csv']) == 0\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('planar_pendulum')))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert "planar_pendulum.cli" in out
    assert "planar_pendulum.twins" not in out
    assert "planar_pendulum.validation" not in out


def test_package_root_exports_no_twin():
    exported = set(planar_pendulum.__all__)
    assert len(planar_pendulum.__all__) == len(exported) == 40
    assert not exported & set(MOVED)
    assert not exported & {"ALL_CHECKS", "CheckResult", "run_all"}
    for name in MOVED:
        assert getattr(twins, name).__module__ == "planar_pendulum.twins"
        assert not hasattr(planar_pendulum, name)


def test_bench_tracer_installs_and_uninstalls(monkeypatch):
    # bench/run.py --trace 1 wraps every public function of the layer
    # modules and chains the positional on_step hook of propagate._run
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    solve = planar_pendulum.solve_spectrum
    tracer = tracing.Tracer(planar_pendulum)
    tracer.install()
    try:
        planar_pendulum.solve_spectrum(planar_pendulum.InteractionParams(
            -10.0, 25.0), 2)
    finally:
        tracer.uninstall()
    assert planar_pendulum.solve_spectrum is solve
    assert "spectrum.solve_spectrum" in {span[0] for span in tracer.spans}
    # the package rebinds the name "propagate" to the function
    stepper = importlib.import_module("planar_pendulum.propagate")._run
    assert list(inspect.signature(stepper).parameters) == [
        "amps", "grid", "schedule", "duration", "nsteps", "on_step"]


def test_propagate_never_calls_the_grid_twin(monkeypatch):
    # _run is the twin that validate and the tests check propagate's
    # ramps against; propagate itself takes them in the basis, and
    # measures every snapshot there, with no grid and no inverse FFT
    module = importlib.import_module("planar_pendulum.propagate")
    core = importlib.import_module("planar_pendulum.core")

    def refuse(name):
        def called(*args, **kwargs):
            raise AssertionError(f"propagate called {name}")
        return called

    monkeypatch.setattr(module, "_run", refuse("its grid twin _run"))
    ramp_hold_ramp = planar_pendulum.PulseSchedule([
        planar_pendulum.Segment(0.1, module.linear(0.0, -8.0),
                                module.linear(0.0, 16.0)),
        planar_pendulum.Segment(0.1, module.constant(-8.0),
                                module.constant(16.0)),
        planar_pendulum.Segment(0.1, module.smooth_cosine(-8.0, -12.0),
                                module.smooth_cosine(16.0, 30.0))])
    grid = planar_pendulum.make_grid(128)
    with monkeypatch.context() as patch:
        patch.setattr(core, "grid_moments", refuse("core.grid_moments"))
        patch.setattr(module, "_grid_amplitudes",
                      refuse("the per-snapshot inverse FFT"))
        traj = planar_pendulum.propagate(
            planar_pendulum.free_rotor_wavefunction(1, grid), ramp_hold_ramp,
            duration=0.4)
        assert len(traj.ramp_limits) == 2 and len(traj.hold_limits) == 2
        assert len(traj.observables["cos"].values) == len(traj.norms) == 401
        assert traj.norm_drift <= 1e-10 and traj.grid_tail <= 1e-12
    # restored, the snapshots go to the grid when they are read
    states = traj.states
    assert len(states) == 401 and states[-1].grid is grid
    assert all(isinstance(w, planar_pendulum.Wavefunction) for w in states)
    assert isinstance(traj.final_state, planar_pendulum.Wavefunction)
    assert np.array_equal(traj.final_state.amplitudes, states[-1].amplitudes)
    assert abs(traj.final_state.norm() - traj.norms[-1]) <= 1e-15
