"""External potentials: free, linear, |x|-linear, harmonic, or tabulated."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, RealField
from .states import PhysicalConstants

__all__ = ["PotentialSpec", "evaluate_potential", "load_potential_table"]

KINDS = ("free", "linear", "abs_linear", "harmonic", "tabulated")
# each parameter and the kinds that read it; off them it stays unset (0 or None)
_READ_BY = {"g": ("linear", "abs_linear"), "omega": ("harmonic",), "table": ("tabulated",)}


@dataclass(frozen=True)
class PotentialSpec:
    """Which potential to apply; a parameter its kind does not read stays unset."""

    kind: str
    g: float = 0.0          # linear slope, U = m g x (abs_linear: U = m g |x|)
    omega: float = 0.0      # harmonic frequency, U = m omega^2 x^2 / 2
    table: RealField | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}, expected one of {KINDS}")
        for name, kinds in _READ_BY.items():
            if self.kind not in kinds and getattr(self, name) not in (0.0, None):
                raise ValueError(f"potential kind {self.kind!r} does not read potential.{name}")


def evaluate_potential(
    spec: PotentialSpec, grid: Grid, constants: PhysicalConstants
) -> RealField:
    if spec.kind == "free":
        return RealField(np.zeros(grid.n), grid)
    if spec.kind == "linear":
        return RealField(constants.mass * spec.g * grid.x, grid)
    if spec.kind == "abs_linear":
        return RealField(constants.mass * spec.g * np.abs(grid.x), grid)
    if spec.kind == "harmonic":
        if not spec.omega > 0.0:
            raise ValueError("harmonic potential requires omega > 0")
        return RealField(0.5 * constants.mass * spec.omega**2 * grid.x**2, grid)
    # tabulated
    if spec.table is None:
        raise ValueError("tabulated potential requires a table")
    if spec.table.grid.n != grid.n or not np.allclose(
        spec.table.grid.x, grid.x, rtol=0.0, atol=1e-9
    ):
        raise ValueError("tabulated potential does not match the grid")
    return RealField(spec.table.values.copy(), grid)


def load_potential_table(path, grid: Grid) -> PotentialSpec:
    """Read a two-column text file (x, U); x must match the grid within 1e-9."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (x, U)")
    x, u = data[:, 0], data[:, 1]
    if x.shape != grid.x.shape or not np.allclose(x, grid.x, rtol=0.0, atol=1e-9):
        raise ValueError(f"{path}: x column does not match the grid within 1e-9")
    return PotentialSpec(kind="tabulated", table=RealField(u, grid))
