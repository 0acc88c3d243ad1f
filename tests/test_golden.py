"""Golden record: every builtin measured value stays near its recorded value.

tests/golden_measured.json holds the 80 measured values of the builtin suite
(scenario -> check -> measured).  A refactor may move a value by roundoff,
not by a decade: each value must stay within a factor of ten of its record,
which is tighter than most tolerances.  Records that are exactly zero are
structural (a diagnostic-only scenario has no drift, the bouncer's node sits
on a grid point) and must stay exactly zero.
"""

import json
import math
from pathlib import Path

GOLDEN = json.loads((Path(__file__).with_name("golden_measured.json")).read_text())


def test_golden_record_covers_the_suite(suite_reports):
    assert sum(len(checks) for checks in GOLDEN.values()) == 80
    assert set(GOLDEN) == set(suite_reports)
    for name, report in suite_reports.items():
        assert [c.id for c in report.checks] == list(GOLDEN[name])


def test_measured_values_within_a_decade_of_the_record(suite_reports):
    drifted = []
    for name, report in suite_reports.items():
        for c in report.checks:
            record = GOLDEN[name][c.id]
            if record == 0.0:
                ok = c.measured == 0.0
            else:
                ok = (c.measured is not None and c.measured * record > 0.0
                      and abs(math.log10(c.measured / record)) <= 1.0)
            if not ok:
                drifted.append(f"{name}/{c.id}: {c.measured!r} vs record {record!r}")
    assert not drifted, "\n".join(drifted)
