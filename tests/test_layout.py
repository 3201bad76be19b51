"""The primary path and its twins stay apart, each command loads only
its own modules, and the bench tracer still hooks the package.

Only validation and the tests import planar_pendulum.twins, so no command
but validate loads a twin, and the package root exports none of them.
The root resolves its names on first use, so importing it loads no module
and building the CLI parser loads cli and core alone.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def _fresh(tmp_path, code: str) -> str:
    """The standard output of code run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True).stdout


def _loaded(tmp_path, code: str) -> set:
    """The package's modules that code loads in a fresh interpreter, by
    their names in the package; the package itself is not listed."""
    out = _fresh(tmp_path, code + "\nimport sys\nprint(*sorted(m for m in "
                 "sys.modules if m.startswith('planar_pendulum.')))\n")
    return {name.split(".", 1)[1] for name in out.splitlines()[-1].split()}


SCAN = ["--eta", "-10", "--zeta", "25"]
PRIMARY = {"cli", "core", "spectrum", "elements", "cqes", "dynamics"}
# each command's argv and the modules it loads
COMMANDS = [
    (["spectrum", *SCAN, "--n-states", "2"], {"cli", "core", "spectrum"}),
    (["crossings", "--zeta", "16", "--eta-range", "-6:-2:0.5",
      "--pair", "2", "3"], {"cli", "core", "spectrum"}),
    (["switch-off", *SCAN, "--tau-max", "1"], PRIMARY),
    (["switch-on", *SCAN, "--n-states", "4", "--tau-max", "1"], PRIMARY),
    (["topology-map", "--eta-range", "-32:-2:2", "--zeta-range", "5:35:2",
      "--n-states", "4", "--j-max", "32"], PRIMARY),
    (["propagate", "--eta-to", "-10", "--zeta-to", "25", "--ramp-duration",
      "0.01", "--grid-points", "64"], PRIMARY | {"propagate"}),
]


def test_importing_the_root_loads_no_module(tmp_path):
    assert _loaded(tmp_path, "import planar_pendulum") == set()
    # the bench's set-up child (bench/run.py SETUP_CODE)
    assert _loaded(tmp_path, "import planar_pendulum.cli as cli\n"
                   "cli.build_parser()") == {"cli", "core"}


def test_primary_commands_load_no_twin(tmp_path):
    # each command loads its own modules: none but validate loads a twin
    # or the check battery
    for argv, modules in COMMANDS:
        assert _loaded(tmp_path, "import planar_pendulum.cli as cli\n"
                       f"assert cli.main({argv!r}) == 0") == modules, argv[0]


def test_root_propagate_stays_the_function(tmp_path):
    # importing the submodule binds it on the package by its own name;
    # the root drops that binding, whichever import comes first
    out = _fresh(tmp_path, """
import importlib
import numpy as np
import planar_pendulum.propagate
import planar_pendulum as pp
module = importlib.import_module("planar_pendulum.propagate")
from planar_pendulum import propagate
assert pp.propagate is propagate is module.propagate
traj = pp.propagate(np.eye(1, 63, 32)[0],       # J = 1 over the band 31
                    pp.PulseSchedule.switch(0.0, 0.0, -4.0, 9.0, 0.01, 0.0))
print(len(traj.norms))
""")
    assert out.split() == ["11"]


def test_root_names_resolve_on_first_use():
    names = [name for name in planar_pendulum.__all__ if name != "__version__"]
    for name in names:
        obj = getattr(planar_pendulum, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(planar_pendulum.__all__) <= set(dir(planar_pendulum))
    star = {}
    exec("from planar_pendulum import *", star)
    assert set(star) - {"__builtins__"} == set(planar_pendulum.__all__)
    # read through to the defining module every time, never kept
    assert not set(vars(planar_pendulum)) & set(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        planar_pendulum.no_such_name


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


def test_root_names_read_under_the_tracer_are_not_kept(tmp_path):
    # a name first read at the root while the tracer is installed is the
    # tracer's wrapper then, and the original once it is uninstalled
    _fresh(tmp_path, f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import tracing
import planar_pendulum
from planar_pendulum.dynamics import topology_map
tracer = tracing.Tracer(planar_pendulum)
tracer.install()
traced = planar_pendulum.topology_map
tracer.uninstall()
assert traced is not topology_map and traced.__wrapped__ is topology_map
assert planar_pendulum.topology_map is topology_map
""")


def test_propagate_never_calls_the_grid_twin(monkeypatch):
    # _run is the twin that validate and the tests check propagate's
    # ramps against; propagate itself takes them in the basis, and
    # measures every snapshot there, with no grid and no FFT
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
    with monkeypatch.context() as patch:
        patch.setattr(core, "grid_moments", refuse("core.grid_moments"))
        for name in ("fft", "ifft"):
            patch.setattr(np.fft, name, refuse(f"numpy.fft.{name}"))
        traj = planar_pendulum.propagate(np.eye(1, 127, 64)[0],
                                         ramp_hold_ramp, duration=0.4)
        assert len(traj.ramp_limits) == 2 and len(traj.hold_limits) == 2
        assert len(traj.observables["cos"].values) == len(traj.norms) == 401
        assert traj.norm_drift <= 1e-10 and traj.grid_tail <= 1e-12


@pytest.mark.parametrize("start", [["--j0", "2"], ["--n0", "1"]])
def test_the_cli_propagate_start_is_no_grid_state(tmp_path, monkeypatch,
                                                  start):
    # the start is a signed-J row built as such: a unit entry at J0, or an
    # eigenstate's signed expansion; no grid state and no FFT
    from planar_pendulum.cli import main
    core = importlib.import_module("planar_pendulum.core")

    def refuse(*args, **kwargs):
        raise AssertionError("the propagate command built a grid state")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(core.Wavefunction, "__init__", refuse)
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert main(["propagate", *start, "--eta-from", "-2", "--zeta-from", "4",
                 "--eta-to", "-4", "--zeta-to", "9", "--ramp-duration",
                 "0.05", "--hold-duration", "0.05", "--grid-points", "128",
                 "--output", "p.csv"]) == 0
