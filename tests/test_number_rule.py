"""The number rule at every spec boundary.

Each scalar a caller or a run config hands the library is a real number
that is not a bool, and finite, finite and > 0, or an integer >= its least
value, as its field asks; anything else is a ValueError that names the field
and the value, raised before any numpy arithmetic could warn about it.
"""

from dataclasses import replace

import numpy as np
import pytest

from madelung.grid import make_grid
from madelung.harness import CheckSpec, RegionSpec, TrajectoryConfig, scenario_by_name
from madelung.potentials import PotentialSpec
from madelung.propagator import PropagatorConfig
from madelung.states import (
    PhysicalConstants,
    airy_packet,
    bouncer_eigenstate,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
)

GRID = make_grid(512, -20.0, 20.0)
UNITS = PhysicalConstants()
FREE = scenario_by_name("free_gaussian")

# field: (the name its error gives, its kind, a valid whole value, a build
# that sets the field to a value); an integer kind is ("integer", least),
# least None where only a relation bounds it
FIELDS = {
    "make_grid.n": ("grid.n", ("integer", None), 512, lambda v: make_grid(v, -20.0, 20.0)),
    "make_grid.x_min": ("grid.x_min", "finite", -20, lambda v: make_grid(512, v, 20.0)),
    "make_grid.x_max": ("grid.x_max", "finite", 20, lambda v: make_grid(512, -20.0, v)),
    "PhysicalConstants.hbar": ("hbar", "positive", 1, lambda v: PhysicalConstants(hbar=v)),
    "PhysicalConstants.mass": ("mass", "positive", 1, lambda v: PhysicalConstants(mass=v)),
    "PropagatorConfig.dt": ("dt", "positive", 1, lambda v: PropagatorConfig(v, 10)),
    "PropagatorConfig.n_steps": (
        "n_steps", ("integer", 0), 10, lambda v: PropagatorConfig(1e-3, v)),
    "PropagatorConfig.snapshot_every": (
        "snapshot_every", ("integer", 1), 2, lambda v: PropagatorConfig(1e-3, 10, v)),
    "gaussian_packet.x0": (
        "x0", "finite", 0, lambda v: gaussian_packet(GRID, UNITS, v, 1.0, 0.0)),
    "gaussian_packet.sigma0": (
        "sigma0", "positive", 1, lambda v: gaussian_packet(GRID, UNITS, 0.0, v, 0.0)),
    "gaussian_packet.k0": (
        "k0", "finite", 2, lambda v: gaussian_packet(GRID, UNITS, 0.0, 1.0, v)),
    "plane_wave.mode_index": (
        "mode_index", ("integer", None), 4, lambda v: plane_wave(GRID, UNITS, v)),
    "harmonic_ground_state.omega": (
        "omega", "positive", 1, lambda v: harmonic_ground_state(GRID, UNITS, v)),
    "airy_packet.scale_B": ("scale_B", "positive", 1, lambda v: airy_packet(GRID, UNITS, v)),
    "airy_packet.t": ("t", "finite", 0, lambda v: airy_packet(GRID, UNITS, 1.0, v)),
    "bouncer_eigenstate.g": ("g", "positive", 1, lambda v: bouncer_eigenstate(GRID, UNITS, v)),
    "PotentialSpec.g": ("potential.g", "finite", 1, lambda v: PotentialSpec("linear", g=v)),
    "PotentialSpec.omega": (
        "potential.omega", "positive", 1, lambda v: PotentialSpec("harmonic", omega=v)),
    "RegionSpec.lo": ("region bounds", "finite", -1, lambda v: RegionSpec("window", v, 1.0)),
    "RegionSpec.hi": ("region bounds", "finite", 1, lambda v: RegionSpec("window", -1.0, v)),
    "TrajectoryConfig.n_parcels": (
        "trajectories.n_parcels", ("integer", 1), 4, lambda v: TrajectoryConfig(n_parcels=v)),
    "TrajectoryConfig.duration": (
        "trajectories.duration", "positive", 1, lambda v: TrajectoryConfig(duration=v)),
    "TrajectoryConfig.seed_lo": (
        "trajectories.seed_lo", "finite", -1, lambda v: TrajectoryConfig(seed_lo=v, seed_hi=1.0)),
    "TrajectoryConfig.seed_hi": (
        "trajectories.seed_hi", "finite", 1,
        lambda v: TrajectoryConfig(seed_lo=-1.0, seed_hi=v)),
    "Scenario.floor_rel": ("floor_rel", "positive", 1, lambda v: replace(FREE, floor_rel=v)),
    "Scenario.pointwise_floor_rel": (
        "pointwise_floor_rel", "positive", 1, lambda v: replace(FREE, pointwise_floor_rel=v)),
    "CheckSpec.tolerance": (
        "tolerance bounds", "finite", 1, lambda v: CheckSpec("norm_drift", v)),
    "CheckSpec.tolerance.lo": (
        "tolerance bounds", "finite", 3,
        lambda v: CheckSpec("propagator_order", (v, 4.5), mode="range")),
    "CheckSpec.tolerance.hi": (
        "tolerance bounds", "finite", 4,
        lambda v: CheckSpec("propagator_order", (3.5, v), mode="range")),
    "CheckSpec.times": (
        "times", "finite", 1, lambda v: CheckSpec("norm_drift", 1e-10, times=(0.0, v))),
}


def _refused(kind):
    values = [True, False, float("nan"), float("inf"), -float("inf")]
    if kind == "positive":
        values += [0, 0.0, -1, -1.0]
    elif kind != "finite":  # an integer field
        values += [2.5, np.float64(8.0)] + ([] if kind[1] is None else [kind[1] - 1])
    return values


def _accepted(kind, whole):
    values = [whole, np.int64(whole)]
    return values + [np.float64(whole)] if kind in ("finite", "positive") else values


REFUSED = [(field, value) for field, (_, kind, _, _) in FIELDS.items()
           for value in _refused(kind)]
ACCEPTED = [(field, value) for field, (_, kind, whole, _) in FIELDS.items()
            for value in _accepted(kind, whole)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, value", REFUSED, ids=[f"{f}={v!r}" for f, v in REFUSED])
def test_a_value_off_the_rule_is_refused_naming_the_field(field, value):
    name, _, _, build = FIELDS[field]
    with pytest.raises(ValueError) as info:
        build(value)
    message = str(info.value)
    assert name in message and repr(value) in message, message


@pytest.mark.parametrize("field, value", ACCEPTED,
                         ids=[f"{f}={type(v).__name__}" for f, v in ACCEPTED])
def test_numpy_and_python_numbers_are_accepted(field, value):
    FIELDS[field][3](value)


# the region bounds, tolerance bounds and times share one message per spec
OWN_MESSAGE = [f for f, (name, *_) in FIELDS.items()
               if name not in ("region bounds", "tolerance bounds", "times")]


@pytest.mark.parametrize("field", OWN_MESSAGE)
def test_the_rule_states_the_limit_of_the_field(field):
    name, kind, _, build = FIELDS[field]
    want = ("finite" if kind == "finite" else "finite and > 0" if kind == "positive"
            else "an integer" if kind[1] is None else f"an integer >= {kind[1]}")
    with pytest.raises(ValueError, match=f"^{name} must be {want}, got nan$"):
        build(float("nan"))
