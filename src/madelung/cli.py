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
from dataclasses import dataclass, field

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

__all__ = ["RunConfig", "main", "entry"]

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


@dataclass
class RunConfig:
    scenario: str
    output_dir: str
    snapshot_every: int | None = None
    emit_fields: bool = True
    emit_trajectories: bool = False
    overrides: dict = field(default_factory=dict)

    @staticmethod
    def from_file(path: str) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        known = {"scenario", "output_dir", "snapshot_every", "emit_fields",
                 "emit_trajectories", "overrides"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        if "scenario" not in raw:
            raise ValueError(f"{path}: config must name a scenario")
        return RunConfig(
            scenario=raw["scenario"],
            output_dir=raw.get("output_dir", _default_out()),
            snapshot_every=raw.get("snapshot_every"),
            emit_fields=raw.get("emit_fields", True),
            emit_trajectories=raw.get("emit_trajectories", False),
            overrides=dict(raw.get("overrides", {})),
        )


def _default_out() -> str:
    return os.environ.get("MADELUNG_OUT", "./madelung_out")


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
    if args.scenario.endswith(".json") or os.path.isfile(args.scenario):
        config = RunConfig.from_file(args.scenario)
    else:
        config = RunConfig(scenario=args.scenario, output_dir=_default_out())
    # CLI flags win over config-file values.
    if args.out is not None:
        config.output_dir = args.out
    if args.snapshot_every is not None:
        config.snapshot_every = args.snapshot_every
    if args.no_fields:
        config.emit_fields = False
    if args.trajectories:
        config.emit_trajectories = True
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"override {item!r} is not of the form key=value")
        try:
            config.overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            config.overrides[key] = value

    scenario = scenario_by_name(config.scenario)
    if config.snapshot_every is not None and scenario.propagation is not None:
        # the dedicated setting (file or flag) beats a generic override key
        config.overrides["propagation.snapshot_every"] = config.snapshot_every
    scenario = apply_overrides(scenario, config.overrides)

    os.makedirs(config.output_dir, exist_ok=True)
    # one run serves the report and every artifact
    run = ScenarioRun(scenario)
    report = run.verify()
    # the report goes first: if an artifact writer hits the error a check
    # already recorded as a verdict, the verdicts are still on disk
    with open(os.path.join(config.output_dir, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    print(format_report(report))
    _write_timeseries(run, os.path.join(config.output_dir, "timeseries.csv"))
    if config.emit_fields:
        _write_fields(run, config.output_dir)
    if config.emit_trajectories and scenario.trajectories is not None:
        write_trajectory_csv(run.trajectory(),
                             os.path.join(config.output_dir, "trajectories.csv"))
    print(f"artifacts written to {config.output_dir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
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
        if s.diagnostic_only:
            tags.append("diagnostic-only")
        if s.non_normalizable:
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
