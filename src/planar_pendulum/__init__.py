"""Planar pendular rotor: spectra, switch dynamics, and validation tools.

A planar rigid rotor in combined orienting and aligning interactions,
in reduced units (rotational constant = 1, period = 2 pi). The package
covers the stationary problem (parity-adapted spectra, level crossings),
sudden switch-on/switch-off wavepacket dynamics with closed-form
observable evolution, and propagation through pulse schedules. The
independent twins of these routes (planar_pendulum.twins) and the check
battery (planar_pendulum.validation) are not exported here.

Importing the package loads none of its modules: each exported name
resolves on first use to the attribute of the module that defines it
(PEP 562), so a command pays only for the modules it runs. The name is
read again from that module on every use, never kept here, so a wrapper
set on the module (bench/tracing.py) is seen here while it is installed
and gone once it is removed.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "AngularGrid",
        "InteractionParams",
        "PotentialShape",
        "SymmetryLabel",
        "TopologicalIndexReport",
        "Wavefunction",
        "free_rotor_wavefunction",
        "make_grid",
        "potential_shape",
        "topological_index",
    ),
    "spectrum": (
        "CrossingRecord",
        "CrossingScan",
        "PendularSpectrum",
        "SpectrumStack",
        "crossing_scan",
        "solve_spectrum",
        "solve_stacks",
    ),
    "elements": ("sector_element_matrix",),
    "cqes": (
        "SwitchCoefficients",
        "switch_off_coefficients",
        "switch_on_coefficients",
    ),
    "dynamics": (
        "ExpectationSeries",
        "PopulationRecord",
        "TopologyMap",
        "dominant_coherence_period",
        "make_tau_grid",
        "switch_off_evolution",
        "switch_off_populations",
        "switch_on_evolution",
        "switch_on_populations",
        "time_averaged_orientation",
        "topology_map",
        "total_population",
    ),
    "propagate": (
        "Profile",
        "PulseSchedule",
        "Segment",
        "Trajectory",
        "propagate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The package module. Importing a submodule binds it here under its
    own name; for planar_pendulum.propagate that binding is dropped, so
    the name stays the function whichever is loaded first."""

    def __setattr__(self, name, value):
        if name == "propagate" and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
