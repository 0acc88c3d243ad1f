"""Command-line interface: run scenarios, verify the builtin suite, list it.

Exit codes: 0 success, 1 check failure under `verify`, 2 unknown scenario or
bad usage, 3 I/O failure, 4 numerical failure (a non-finite field), 5 a
`verify` worker process died.
Artifacts are CSV/JSON with full 17-significant-digit floats so re-reading
reproduces the arrays bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .diagnostics import madelung_fields
from .grid import NonFiniteFieldError
from .harness import (
    ScenarioRun,
    WorkerDiedError,
    apply_overrides,
    builtin_scenarios,
    format_report,
    run_scenarios,
    scenario_by_name,
)
from .trajectories import _write_csv, write_trajectory_csv

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
EXIT_WORKER = 5

TIMESERIES_COLUMNS = [
    "t", "norm", "K", "Q", "U", "I", "E", "FI", "accel", "vi_mean",
    "bernoulli_residual_max", "nonspread_residual",
]

FIELD_COLUMNS = [
    "x", "re_psi", "im_psi", "rho", "S", "u", "div_u", "Q_tilde", "Pi",
    "internal_density", "v_i",
]


# the JSON type of each run-config key but the snapshot cadence, which is
# cast as an override
_CONFIG_TYPES = {
    "scenario": (str, "a string"), "output_dir": (str, "a string"),
    "emit_fields": (bool, "a boolean"), "emit_trajectories": (bool, "a boolean"),
    "overrides": (dict, "an object"),
}


def _write_timeseries(run: ScenarioRun, path: str) -> None:
    # the Bernoulli and non-spreading columns are the values the checks judged
    bern = run.scenario.propagation is not None
    rows = [
        [rep.t, rep.norm, rep.K, rep.Q, rep.U, rep.I, rep.E, rep.FI, rep.accel,
         rep.vi_mean] + ([run.bernoulli_max(t)] if bern else []) + [run.pointwise("nonspreading", t)]
        for (t, _), rep in zip(run.snapshots(), run.reports())
    ]
    # a diagnostic-only run leaves the Bernoulli column empty
    row_format = ",".join(["%.17g"] * 10 + ["%.17g" if bern else ""] + ["%.17g"]) + "\r\n"
    _write_csv(path, TIMESERIES_COLUMNS, row_format, [np.array(rows, dtype=float)])


def _write_fields(run: ScenarioRun, out_dir: str) -> None:
    scenario = run.scenario
    for index, (t, w) in enumerate(run.snapshots()):
        f = madelung_fields(w, scenario.floor_rel, bohm_form=scenario.bohm_form)
        psi = w.psi.values
        cols = [run.grid.x, psi.real, psi.imag, f.rho.values, f.S.values,
                f.u.values, f.div_u.values, f.Q_tilde.values, f.Pi.values,
                f.internal_density.values, f.v_i.values]
        _write_csv(os.path.join(out_dir, f"fields_t{index}.csv"), FIELD_COLUMNS,
                   ",".join(["%.17g"] * len(cols)) + "\r\n", [np.column_stack(cols)])


def _cmd_run(args) -> int:
    path, config = args.scenario, {"scenario": args.scenario}
    if path.endswith(".json") or os.path.isfile(path):
        with open(path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{path}: a run config is a JSON object, not {json.dumps(config)}")
        unknown = set(config) - set(_CONFIG_TYPES) - {"snapshot_every"}
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        if "scenario" not in config:
            raise ValueError(f"{path}: config must name a scenario")
        for key, (kind, name) in _CONFIG_TYPES.items():
            if key in config and not isinstance(config[key], kind):
                raise ValueError(f"{path}: config key {key!r} takes {name}, "
                                 f"not {json.dumps(config[key])}")

    # each setting once: a flag that was given, else the file's value, else
    # the default; --set beats the file's overrides
    overrides = dict(config.get("overrides", {}))
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"override {item!r} is not of the form key=value")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    snapshot_every = (args.snapshot_every if args.snapshot_every is not None
                      else config.get("snapshot_every"))
    if snapshot_every is not None:
        # the dedicated setting (file or flag) beats a generic override key
        overrides["propagation.snapshot_every"] = snapshot_every
    out_dir = args.out if args.out is not None else config.get(
        "output_dir", os.environ.get("MADELUNG_OUT", "./madelung_out"))
    emit_fields = not args.no_fields and config.get("emit_fields", True)
    emit_trajectories = args.trajectories or config.get("emit_trajectories", False)
    scenario = apply_overrides(scenario_by_name(config["scenario"]), overrides)

    # one run serves the report and every artifact
    run = ScenarioRun(scenario)
    os.makedirs(out_dir, exist_ok=True)
    report = run.verify()
    # the report goes first: if an artifact writer hits the error a check
    # already recorded as a verdict, the verdicts are still on disk
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    print(format_report(report))
    _write_timeseries(run, os.path.join(out_dir, "timeseries.csv"))
    if emit_fields:
        _write_fields(run, out_dir)
    if emit_trajectories and scenario.trajectories is not None:
        write_trajectory_csv(run.trajectory(),
                             os.path.join(out_dir, "trajectories.csv"))
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.all and args.scenarios:
        raise ValueError(f"--all runs every scenario; drop it to run only {args.scenarios}")
    if args.all or not args.scenarios:
        scenarios = builtin_scenarios()
    else:
        scenarios = [scenario_by_name(name) for name in args.scenarios]
    reports = []
    for report in run_scenarios(scenarios):
        reports.append(report)
        print(format_report(report))
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
    n_fail = sum(0 if r.passed else 1 for r in reports)
    total = sum(len(r.checks) for r in reports)
    print(f"{len(reports)} scenarios, {total} checks, "
          f"{'all passed' if n_fail == 0 else f'{n_fail} scenario(s) FAILED'}")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILURE


def _cmd_list(args) -> int:
    for s in builtin_scenarios():
        tags = []
        if s.propagation is None:
            tags.append("diagnostic-only")
        if not s.state.build(s.grid.build(), s.constants).normalizable:
            tags.append("non-normalizable")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        print(f"{s.name}{suffix}")
        print(f"    checks: {', '.join(c.id for c in s.checks)}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madelung",
        description="1D Schrodinger propagation with quantum-fluid diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and emit artifacts")
    p_run.add_argument("--scenario", required=True,
                       help="builtin scenario name or path to a JSON run config")
    p_run.add_argument("--out", default=None,
                       help="output directory (default $MADELUNG_OUT or ./madelung_out)")
    p_run.add_argument("--snapshot-every", type=int, default=None)
    p_run.add_argument("--no-fields", action="store_true",
                       help="skip per-snapshot field CSVs")
    p_run.add_argument("--trajectories", action="store_true",
                       help="emit the parcel-trajectory CSV")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario value, e.g. grid.n=1024")
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser("verify", help="run identity checks and report pass/fail")
    p_verify.add_argument("scenarios", nargs="*",
                          help="subset of scenario names (default: all)")
    p_verify.add_argument("--all", action="store_true", help="run the full suite")
    p_verify.add_argument("--json", default=None, help="also dump reports to a JSON file")
    p_verify.set_defaults(fn=_cmd_verify)

    p_list = sub.add_parser("list", help="list builtin scenarios and their checks")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteFieldError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WorkerDiedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


def entry() -> None:
    sys.exit(main())
