"""The row-format CSV writers against csv.writer with format(v, ".17g") per value."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

from madelung import cli
from madelung.harness import ScenarioRun, apply_overrides, scenario_by_name
from madelung.trajectories import (
    _CSV_BLOCK_ROWS,
    ParcelEnsemble,
    _write_csv,
    write_trajectory_csv,
)

SPECIALS = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0, -3.0, 1e16, 2.0**53, 0.1, 1.0 / 3.0,
    np.nan, np.inf, -np.inf, 2.5e-8, 123456789.125, -7.0e-310,
])


def specials(n, shift=0):
    return np.roll(np.resize(SPECIALS, n), shift)


def reference_csv(path, header, rows):
    """Rows of already formatted strings, written the way the writers once did."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def fmt(v):
    return format(float(v), ".17g")


def test_trajectory_csv(tmp_path, desk_grid):
    n_times, n_parcels = 7, 5
    records = [specials(n_times * n_parcels, k).reshape(n_times, n_parcels) for k in range(6)]
    ens = ParcelEnsemble(
        grid=desk_grid, positions=records[0][-1], quantiles=np.full(n_parcels, 0.5),
        times=specials(n_times, 3), x_records=records[0], u_records=records[1],
        ln_rho_records=records[2], div_u_records=records[3], action_records=records[4],
        S_records=records[5],
    )
    write_trajectory_csv(ens, tmp_path / "new.csv")
    reference_csv(
        tmp_path / "ref.csv",
        ["parcel_id", "t", "x", "u", "ln_rho", "div_u", "action", "S_sampled"],
        [[p] + [fmt(v) for v in (ens.times[i], ens.x_records[i, p], ens.u_records[i, p],
                                 ens.ln_rho_records[i, p], ens.div_u_records[i, p],
                                 ens.action_records[i, p], ens.S_records[i, p])]
         for p in range(n_parcels) for i in range(n_times)],
    )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("diagnostic_only", [False, True])
def test_timeseries_csv(tmp_path, diagnostic_only):
    names = ["t", "norm", "K", "Q", "U", "I", "E", "FI", "accel", "vi_mean"]
    values = specials(12 * len(names), 5).reshape(12, len(names))
    bern, nonspread = specials(12, 1), specials(12, 9)
    reports = [SimpleNamespace(**dict(zip(names, row))) for row in values]
    run = SimpleNamespace(
        scenario=SimpleNamespace(propagation=None if diagnostic_only else object()),
        snapshots=lambda: [(i, None) for i in range(12)],
        report_at=lambda t: reports[t],
        bernoulli_max=lambda t: bern[t],
        pointwise=lambda quantity, t: nonspread[t],
    )
    cli._write_timeseries(run, str(tmp_path / "new.csv"))
    reference_csv(
        tmp_path / "ref.csv", cli.TIMESERIES_COLUMNS,
        [[fmt(v) for v in row] + ["" if diagnostic_only else fmt(bern[i]), fmt(nonspread[i])]
         for i, row in enumerate(values)],
    )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_fields_csv(tmp_path, monkeypatch, desk_grid):
    n = desk_grid.n
    names = ["rho", "S", "u", "div_u", "Q_tilde", "Pi", "internal_density", "v_i"]
    fields = SimpleNamespace(**{name: SimpleNamespace(values=specials(n, 2 * k + 1))
                                for k, name in enumerate(names)})
    monkeypatch.setattr(cli, "madelung_fields", lambda *args, **kwargs: fields)
    psi = np.empty(n, dtype=complex)
    psi.real, psi.imag = specials(n, 4), specials(n, 11)
    run = SimpleNamespace(
        scenario=SimpleNamespace(floor_rel=1e-12, bohm_form="amplitude"),
        grid=desk_grid,
        snapshots=lambda: [(0.0, SimpleNamespace(psi=SimpleNamespace(values=psi)))],
    )
    cli._write_fields(run, str(tmp_path))
    cols = [desk_grid.x, psi.real, psi.imag] + [getattr(fields, k).values for k in names]
    reference_csv(tmp_path / "ref.csv", cli.FIELD_COLUMNS,
                  [[fmt(c[j]) for c in cols] for j in range(n)])
    assert (tmp_path / "fields_t0.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_blocks_longer_than_one_write(tmp_path):
    rows = specials(3 * (2 * _CSV_BLOCK_ROWS + 5), 7).reshape(-1, 3)
    _write_csv(tmp_path / "new.csv", ["a", "b", "c"], "%.17g,%.17g,%.17g\r\n",
               [rows[:10], rows[10:]])
    reference_csv(tmp_path / "ref.csv", ["a", "b", "c"], [[fmt(v) for v in r] for r in rows])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("name", ["free_gaussian", "quantum_bouncer"])
def test_run_timeseries_against_fresh_evaluation(tmp_path, name):
    """The timeseries written from the memoised values equals one computed
    afresh per snapshot; the bouncer is diagnostic-only (empty Bernoulli column)."""
    from madelung.diagnostics import bernoulli_residual, madelung_fields, nonspreading_residual
    from madelung.propagator import step

    scenario = scenario_by_name(name)
    if scenario.propagation is not None:
        scenario = apply_overrides(scenario, {"propagation.n_steps": 20,
                                              "propagation.snapshot_every": 10})
    run = ScenarioRun(scenario)
    run.verify()
    cli._write_timeseries(run, str(tmp_path / "new.csv"))
    rows = []
    for (t, w), rep in zip(run.snapshots(), run.reports()):
        if scenario.propagation is not None:
            dt = scenario.propagation.dt
            r = bernoulli_residual(w, step(w, run.U, dt), run.U, dt, scenario.floor_rel,
                                   bohm_form=scenario.bohm_form)
            bern = fmt(np.max(np.abs(r.values)))
        else:
            bern = ""
        f = madelung_fields(w, scenario.pointwise_floor_rel, bohm_form=scenario.bohm_form,
                            region_mask=run.region_mask)
        rows.append([fmt(v) for v in (rep.t, rep.norm, rep.K, rep.Q, rep.U, rep.I, rep.E,
                                      rep.FI, rep.accel, rep.vi_mean)]
                    + [bern, fmt(nonspreading_residual(f, run.U))])
    reference_csv(tmp_path / "ref.csv", cli.TIMESERIES_COLUMNS, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
