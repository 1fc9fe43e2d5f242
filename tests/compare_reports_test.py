#!/usr/bin/env python3
"""tools/compare_reports.py, the same-seed a/b gate, on hand-made reports:
a `*_ms` result (a simulated time) that differs fails the gate like any
other result, a difference confined to the wall-clock `metrics.profile`
section passes, `--tolerance KEY=RTOL` loosens only its key, and a file
that is not p2preport/v1 is malformed input.

Usage: compare_reports_test.py path/to/compare_reports.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

BASE = {
    "schema": "p2preport/v1",
    "experiment": "fig8",
    "seed": 11,
    "config": {"runs": "20"},
    "results": {"fig8_single_session.20.AMCast_height_ms": 1006.25,
                "fig8_single_session.20.Critical+adj": 0.3125},
    "metrics": {"counters": {"sessions": 20}, "gauges": {},
                "histograms": {}, "profile": {"plan_ms": {"count": 1}}},
}

failures = []


def compare(tool, tmp, left, right, *flags):
    paths = []
    for name, report in (("a.json", left), ("b.json", right)):
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report, f)
        paths.append(path)
    proc = subprocess.run([sys.executable, tool] + paths + list(flags),
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def expect(tool, tmp, what, want, left, right, *flags):
    rc, out = compare(tool, tmp, left, right, *flags)
    if rc != want:
        failures.append(f"{what}: exit {rc}, want {want}\n{out}")
    return out


def main():
    tool = sys.argv[1]
    key = "fig8_single_session.20.AMCast_height_ms"
    with tempfile.TemporaryDirectory() as tmp:
        expect(tool, tmp, "identical reports", 0, BASE, BASE)

        slower = copy.deepcopy(BASE)
        slower["results"][key] = 1006.5
        out = expect(tool, tmp, "a differing _ms result", 1, BASE, slower)
        if key not in out:
            failures.append(f"the diff does not name {key}\n{out}")
        expect(tool, tmp, "--tolerance on the _ms key", 0, BASE, slower,
               "--tolerance", f"{key}=0.001")
        expect(tool, tmp, "--tolerance on another key", 1, BASE, slower,
               "--tolerance", "fig8_single_session.20.Critical+adj=0.001")

        wall = copy.deepcopy(BASE)
        wall["metrics"]["profile"]["plan_ms"] = {"count": 1, "mean": 3.5}
        expect(tool, tmp, "a differing profile section", 0, BASE, wall)

        other = copy.deepcopy(BASE)
        other["schema"] = "p2preport/v0"
        expect(tool, tmp, "a non-p2preport/v1 file", 2, BASE, other)

    for failure in failures:
        print("FAIL:", failure)
    print(f"{len(failures)} failure(s)" if failures else "compare_reports: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
