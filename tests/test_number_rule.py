"""The number rule at every spec boundary and every public library entry.

Each scalar a caller or a run config hands the library is a real number
that is not a bool, and finite, finite and > 0, or an integer >= its least
value, as its field asks; anything else is a ValueError that names the field
and the value, raised before any numpy arithmetic could warn about it.

The rule covers the specs and factories (`make_grid`, `PhysicalConstants`,
`PropagatorConfig`, the state factories, `PotentialSpec`, `RegionSpec`,
`TrajectoryConfig`, `Scenario`'s floors, `CheckSpec`) and the library
arguments: `spectral_derivative`'s `order`; the density floor of
`madelung_fields`, `velocity`, `phase_gradient_velocity`, `expectations`,
`bernoulli_residual`, `polar_decompose`, `track` and `collect_flow`, which
the field kernel judges; `expectations`' `t`; the `dt` of `step` (>= 0) and
of `bernoulli_residual`; `seed_parcels`' `n_parcels`; and the `dt` and
`n_steps` of `track`, `collect_flow` and `advect`.  A guard reads the
`float` and `int` annotations of every function in each module's `__all__`
and asks for a row here for each.
"""

import importlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from madelung.diagnostics import (
    bernoulli_residual,
    expectations,
    madelung_fields,
    phase_gradient_velocity,
    velocity,
)
from madelung.grid import RealField, make_grid, spectral_derivative
from madelung.harness import CheckSpec, RegionSpec, TrajectoryConfig, scenario_by_name
from madelung.potentials import PotentialSpec
from madelung.propagator import PropagatorConfig, step
from madelung.states import (
    PhysicalConstants,
    airy_packet,
    bouncer_eigenstate,
    gaussian_packet,
    harmonic_ground_state,
    plane_wave,
    polar_decompose,
)
from madelung.trajectories import advect, collect_flow, seed_parcels, track

GRID = make_grid(512, -20.0, 20.0)
UNITS = PhysicalConstants()
FREE = scenario_by_name("free_gaussian")
WF = gaussian_packet(GRID, UNITS, 0.0, 1.0, 0.5)
U = RealField(np.zeros(GRID.n), GRID)
ENS = seed_parcels(WF.density(), 4)
FLOW = collect_flow(WF, U, 1e-3, 2)

# field: (the name its error gives, its kind, a valid value, a build that
# sets the field to a value); a kind is "finite", "positive" or a pair
# (kind, least), such as ("integer", None) where only a relation bounds it
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
    "spectral_derivative.order": (
        "order", ("integer", 1), 1, lambda v: spectral_derivative(WF.psi, v)),
    "polar_decompose.density_floor_rel": (
        "floor_rel", "positive", 1e-12, lambda v: polar_decompose(WF, v)),
    "step.dt": ("dt", ("finite", 0), 1e-3, lambda v: step(WF, U, v)),
    "madelung_fields.floor_rel": (
        "floor_rel", "positive", 1e-12, lambda v: madelung_fields(WF, v)),
    "velocity.floor_rel": ("floor_rel", "positive", 1e-12, lambda v: velocity(WF, v)),
    "phase_gradient_velocity.floor_rel": (
        "floor_rel", "positive", 1e-12, lambda v: phase_gradient_velocity(WF, v)),
    "expectations.floor_rel": (
        "floor_rel", "positive", 1e-12, lambda v: expectations(WF, U, v)),
    "expectations.t": ("t", "finite", 1, lambda v: expectations(WF, U, t=v)),
    "bernoulli_residual.dt": (
        "dt", "positive", 1e-3, lambda v: bernoulli_residual(WF, WF, U, v)),
    "bernoulli_residual.floor_rel": (
        "floor_rel", "positive", 1e-12, lambda v: bernoulli_residual(WF, WF, U, 1e-3, v)),
    "seed_parcels.n_parcels": (
        "n_parcels", ("integer", 1), 4, lambda v: seed_parcels(WF.density(), v)),
    "track.dt": ("dt", "positive", 1e-3, lambda v: track(WF, U, v, 2, ENS)),
    "track.n_steps": ("n_steps", ("integer", 0), 2, lambda v: track(WF, U, 1e-3, v, ENS)),
    "track.floor_rel": (
        "floor_rel", "positive", 1e-12, lambda v: track(WF, U, 1e-3, 2, ENS, v)),
    "collect_flow.dt": ("dt", "positive", 1e-3, lambda v: collect_flow(WF, U, v, 2)),
    "collect_flow.n_steps": (
        "n_steps", ("integer", 0), 2, lambda v: collect_flow(WF, U, 1e-3, v)),
    "collect_flow.floor_rel": (
        "floor_rel", "positive", 1e-12, lambda v: collect_flow(WF, U, 1e-3, 2, v)),
    "advect.dt": ("dt", "positive", 1e-3, lambda v: advect(ENS, FLOW, v, 2)),
    "advect.n_steps": ("n_steps", ("integer", 0), 2, lambda v: advect(ENS, FLOW, 1e-3, v)),
}


def _kind(kind):
    """(finite, positive or integer; its least value or None)"""
    return (kind, None) if isinstance(kind, str) else kind


def _refused(kind):
    base, least = _kind(kind)
    values = [True, False, float("nan"), float("inf"), -float("inf")]
    if base == "positive":
        values += [0, 0.0, -1, -1.0]
    if base == "integer":
        values += [2.5, np.float64(8.0)]
    return values + ([] if least is None else [least - 1])


def _accepted(kind, valid):
    values = [valid, np.int64(valid)] if valid == int(valid) else [valid]
    return values + [np.float64(valid)] if _kind(kind)[0] != "integer" else values


def _limit(kind):
    base, least = _kind(kind)
    want = {"finite": "finite", "positive": "finite and > 0", "integer": "an integer"}[base]
    if least is None:
        return want
    return want + (f" >= {least}" if base == "integer" else f" and >= {least}")


REFUSED = [(field, value) for field, (_, kind, _, _) in FIELDS.items()
           for value in _refused(kind)]
ACCEPTED = [(field, value) for field, (_, kind, valid, _) in FIELDS.items()
            for value in _accepted(kind, valid)]


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
    with pytest.raises(ValueError, match=f"^{name} must be {_limit(kind)}, got nan$"):
        build(float("nan"))


MODULES = ("grid", "states", "potentials", "propagator", "diagnostics", "trajectories",
           "harness", "special", "cli")


def _number_parameters():
    """"function.parameter" for each parameter annotated float or int (alone
    or in a union) of each function in a module's __all__."""
    for module in MODULES:
        mod = importlib.import_module(f"madelung.{module}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue
            for p in inspect.signature(fn).parameters.values():
                ann = p.annotation
                text = ann if isinstance(ann, str) else getattr(ann, "__name__", str(ann))
                if {"float", "int"} & {part.strip() for part in text.split("|")}:
                    yield f"{name}.{p.name}"


def test_every_number_argument_of_a_public_function_has_a_row():
    found = list(_number_parameters())
    assert "step.dt" in found and "spectral_derivative.order" in found, found
    missing = [f for f in found if f not in FIELDS]
    assert not missing, f"public number arguments without a FIELDS row: {missing}"
