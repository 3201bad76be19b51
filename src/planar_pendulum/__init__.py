"""Planar pendular rotor: spectra, switch dynamics, and validation tools.

A planar rigid rotor in combined orienting and aligning interactions,
in reduced units (rotational constant = 1, period = 2 pi). The package
covers the stationary problem (parity-adapted spectra, level crossings),
sudden switch-on/switch-off wavepacket dynamics with closed-form
observable evolution, and propagation through pulse schedules. The
independent twins of these routes (planar_pendulum.twins) and the check
battery (planar_pendulum.validation) are not imported here.
"""

from .core import (
    AngularGrid,
    InteractionParams,
    PotentialShape,
    SymmetryLabel,
    TopologicalIndexReport,
    Wavefunction,
    free_rotor_wavefunction,
    make_grid,
    potential_shape,
    topological_index,
)
from .spectrum import (
    CrossingRecord,
    CrossingScan,
    PendularSpectrum,
    SpectrumStack,
    crossing_scan,
    solve_spectrum,
    solve_stacks,
)
from .elements import sector_element_matrix
from .cqes import (
    SwitchCoefficients,
    switch_off_coefficients,
    switch_on_coefficients,
)
from .dynamics import (
    CoherenceDecomposition,
    ExpectationSeries,
    PopulationRecord,
    TopologyMap,
    dominant_coherence_period,
    make_tau_grid,
    switch_off_evolution,
    switch_off_populations,
    switch_on_evolution,
    switch_on_populations,
    time_averaged_orientation,
    topology_map,
    total_population,
)
from .propagate import (
    Profile,
    PulseSchedule,
    Segment,
    Trajectory,
    propagate,
)

__version__ = "0.1.0"

__all__ = [
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
    "CrossingRecord",
    "CrossingScan",
    "PendularSpectrum",
    "SpectrumStack",
    "crossing_scan",
    "solve_spectrum",
    "solve_stacks",
    "sector_element_matrix",
    "SwitchCoefficients",
    "switch_off_coefficients",
    "switch_on_coefficients",
    "CoherenceDecomposition",
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
    "Profile",
    "PulseSchedule",
    "Segment",
    "Trajectory",
    "propagate",
    "__version__",
]
