"""Output checks made apart from the program: numpy, the standard library and
closed forms only.  Nothing here imports madelung.

Each check returns (problems, errors): a list of failed conditions, empty
when the outputs are correct, and the measured errors behind them, which
the result file keeps so a reader can see how close each check came.
"""

import csv
import json
import math
import os
from statistics import NormalDist

import numpy as np

# Units: hbar = m = 1 throughout the builtin scenarios and these workloads.
TOL_PSI_L2 = 1e-10        # final wavefunction against the exact free Gaussian
TOL_SCALAR_REL = 1e-9     # E, FI and <Q> against their closed forms
TOL_NORM = 1e-10
TOL_PATH = 1e-9           # parcel path against the exact Bohmian path
TOL_SEED_POSITION = 1e-6  # first parcel positions against Gaussian quantiles
TOL_TIME = 1e-12

VERIFY_SCENARIOS = {"plane_wave", "free_gaussian", "moving_gaussian", "harmonic_ground",
                    "airy_packet", "quantum_bouncer", "spreading_negative_control"}
VERIFY_CHECKS = 80
TRAJECTORY_COLUMNS = ["parcel_id", "t", "x", "u", "ln_rho", "div_u", "action", "S_sampled"]


def sigma_t(sigma0, t):
    """Density width of a free Gaussian: sigma0 sqrt(1 + (t / 2 sigma0^2)^2)."""
    return sigma0 * np.sqrt(1.0 + (np.asarray(t) / (2.0 * sigma0**2)) ** 2)


def free_gaussian(x, t, x0, sigma0, k0):
    """Exact free evolution of gaussian_packet's initial state, whose phase
    is exp(i k0 x) (not exp(i k0 (x - x0)))."""
    a = 1.0 + 1j * t / (2.0 * sigma0**2)
    return ((2.0 * math.pi * sigma0**2) ** -0.25 / np.sqrt(a)
            * np.exp(-(x - x0 - k0 * t) ** 2 / (4.0 * sigma0**2 * a)
                     + 1j * (k0 * x - 0.5 * k0**2 * t)))


def _scalar_errors(t, E, FI, Q, norm, sigma0, k0):
    fi_exact = 1.0 / sigma_t(sigma0, t) ** 2
    e_exact = 0.5 * k0**2 + 1.0 / (8.0 * sigma0**2)
    return {
        "E_rel": float(np.max(np.abs(E - e_exact)) / e_exact),
        "FI_rel": float(np.max(np.abs(FI / fi_exact - 1.0))),
        "Q_rel": float(np.max(np.abs(Q / (fi_exact / 8.0) - 1.0))),
        "norm": float(np.max(np.abs(norm - 1.0))),
    }


def _judge(errors, limits):
    return [f"{k} = {errors[k]:.3e} exceeds {limit:g}"
            for k, limit in limits.items() if not errors[k] <= limit]


SCALAR_LIMITS = {"E_rel": TOL_SCALAR_REL, "FI_rel": TOL_SCALAR_REL,
                 "Q_rel": TOL_SCALAR_REL, "norm": TOL_NORM}


def check_wide_domain(out, params, grid, sigma0, dt, steps, every):
    data = np.load(os.path.join(out, "wide_domain.npz"))
    n, x_min, x_max = grid
    x = x_min + (x_max - x_min) / n * np.arange(n)
    t_end = steps * dt
    exact = free_gaussian(x, t_end, params["x0"], sigma0, params["k0"])
    errors = {"psi_l2": float(np.sqrt(np.sum(np.abs(data["psi"] - exact) ** 2)
                                      * (x_max - x_min) / n))}
    problems = _judge(errors, {"psi_l2": TOL_PSI_L2})
    times = np.arange(0, steps + 1, every) * dt
    if data["t"].shape != times.shape or np.max(np.abs(data["t"] - times)) > TOL_TIME:
        return problems + [f"observer times {data['t'].tolist()} are not "
                           f"{times.tolist()}"], errors
    errors.update(_scalar_errors(times, data["E"], data["FI"], data["Q"], data["norm"],
                                 sigma0, params["k0"]))
    return problems + _judge(errors, SCALAR_LIMITS), errors


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.float64)


def check_trajectory_artifacts(out, result, params, sigma0, dt):
    problems = []
    if result.get("rc") != 0:
        problems.append(f"exit code {result.get('rc')}, expected 0")
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    if not report["passed"] or not all(c["pass"] for c in report["checks"]):
        failing = [c["id"] for c in report["checks"] if not c["pass"]]
        problems.append(f"report.json does not pass: {failing}")

    x0, k0, n_parcels = params["x0"], params["k0"], params["n_parcels"]
    steps = int(round(params["duration"] / dt))
    header, rows = _read_csv(os.path.join(out, "trajectories.csv"))
    if header != TRAJECTORY_COLUMNS:
        return problems + [f"trajectories.csv columns {header}"], {}
    if rows.shape[0] != n_parcels * (steps + 1):
        return problems + [f"trajectories.csv has {rows.shape[0]} rows, expected "
                           f"{n_parcels} x {steps + 1}"], {}
    ids = rows[:, 0].reshape(n_parcels, steps + 1)
    t = rows[:, 1].reshape(n_parcels, steps + 1)
    x = rows[:, 2].reshape(n_parcels, steps + 1)
    if not np.array_equal(ids, np.repeat(np.arange(n_parcels)[:, None], steps + 1, axis=1)):
        return problems + ["trajectories.csv rows are not grouped by parcel id"], {}
    errors = {"t": float(np.max(np.abs(t - np.arange(steps + 1) * dt)))}
    quantiles = np.array([NormalDist().inv_cdf((p + 0.5) / n_parcels)
                          for p in range(n_parcels)])
    errors["seed_position"] = float(np.max(np.abs(x[:, 0] - (x0 + sigma0 * quantiles))))
    path = x0 + k0 * t + (x[:, :1] - x0) * sigma_t(sigma0, t) / sigma0
    errors["path"] = float(np.max(np.abs(x - path)))

    header, ts = _read_csv(os.path.join(out, "timeseries.csv"))
    col = {name: ts[:, i] for i, name in enumerate(header[:10])}
    errors.update(_scalar_errors(col["t"], col["E"], col["FI"], col["Q"], col["norm"],
                                 sigma0, k0))
    limits = {"t": TOL_TIME, "seed_position": TOL_SEED_POSITION, "path": TOL_PATH}
    return problems + _judge(errors, {**limits, **SCALAR_LIMITS}), errors


def check_verify_suite(out, result):
    problems = []
    if result.get("rc") != 0:
        problems.append(f"exit code {result.get('rc')}, expected 0")
    with open(os.path.join(out, "verify.json")) as fh:
        reports = json.load(fh)
    names = {r["scenario"] for r in reports}
    if names != VERIFY_SCENARIOS:
        problems.append(f"scenarios {sorted(names)}")
    checks = [c for r in reports for c in r["checks"]]
    if len(checks) != VERIFY_CHECKS:
        problems.append(f"{len(checks)} checks, expected {VERIFY_CHECKS}")
    failing = [f"{r['scenario']}/{c['id']}" for r in reports for c in r["checks"]
               if not c["pass"]]
    if failing:
        problems.append(f"failing checks {failing}")
    controls = [c for c in checks if c["id"] == "nonspreading_violated"]
    fired = [c for c in controls if c["mode"] == "above" and c["measured"] > c["tolerance"]]
    if len(controls) != 2 or len(fired) != 2:
        problems.append(f"negative controls fired {len(fired)} of {len(controls)}, expected 2")
    margin = min((c["measured"] / c["tolerance"] for c in controls), default=0.0)
    return problems, {"checks": len(checks), "controls_min_ratio": margin}
