"""Spectral 1D Schrodinger propagation with quantum-fluid diagnostics.

The package splits into a numerical substrate (grid, states, potentials,
propagator), the Madelung-fluid diagnostics that turn snapshots into
hydrodynamic and thermodynamic-analog fields, parcel trajectories, and a
verification harness binding them into named, reproducible identity checks.
"""

from .grid import (
    ComplexField,
    Grid,
    NonFiniteFieldError,
    RealField,
    integrate,
    make_grid,
    spectral_derivative,
)
from .special import airy_ai, airy_ai_first_zero
from .states import (
    PhysicalConstants,
    PolarDecomposition,
    WaveFunction,
    airy_packet,
    bouncer_eigenstate,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
    polar_decompose,
)
from .potentials import PotentialSpec, evaluate_potential, load_potential_table
from .propagator import PropagatorConfig, evolve, step
from .diagnostics import (
    ExpectationReport,
    MadelungFields,
    bernoulli_residual,
    expectations,
    madelung_fields,
    nonspreading_residual,
    phase_gradient_velocity,
    velocity,
)
from .trajectories import (
    BranchMismatchError,
    DensityCdf,
    ParcelEnsemble,
    TrackFlow,
    action_check,
    continuity_residual,
    seed_parcels,
    track,
    write_trajectory_csv,
)
from .harness import (
    CheckSpec,
    Scenario,
    VerificationReport,
    builtin_scenarios,
    run_scenario,
    scenario_by_name,
)

__version__ = "0.1.0"
