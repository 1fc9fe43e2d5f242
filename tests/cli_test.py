#!/usr/bin/env python3
"""The p2ppool_cli end to end: every configurable subcommand once at small
sizes and the fastest figure subcommands at their fixed full size, each
report checked by tools/validate_report.py, then the rejection matrix —
an unknown flag, a malformed number and a bad enum or list value per
subcommand (an unknown flag and a stray argument for the figures, whose
only flag is --report) must exit 2 with the subcommand's flags and without
a single progress line, and --help must print the flags and exit 0
without running.

Usage: cli_test.py path/to/p2ppool_cli path/to/validate_report.py
"""

import os
import subprocess
import sys
import tempfile

PROGRESS = ("building", "generating", "joining", "running", "planning")

# Each subcommand at the small sizes `tools/run_tests.sh --report` uses
# (alert at a shorter horizon).
RUNS = {
    "plan": ["--group", "40"],
    "multi": ["--sessions", "10"],
    "somo": ["--nodes", "32", "--horizon-ms", "20000"],
    "somo-loss": ["--nodes", "24", "--horizon-ms", "20000"],
    "hb-jitter": ["--nodes", "24", "--horizon-ms", "20000"],
    "topo": ["--hosts", "300"],
    "fullstack": ["--preset", "1200", "--shards", "2", "--group", "20",
                  "--horizon-ms", "10000"],
    "compare": ["--preset", "1200", "--group", "20", "--helpers", "100"],
    "observe": ["--nodes", "32", "--horizon-ms", "20000"],
    "alert": ["--preset", "1200", "--oracle", "hier", "--horizon-ms",
              "24000"],
}

# Per subcommand: a malformed number, then its bad enum or list values.
REJECTED = {
    "plan": [["--group", "20x"], ["--strategy", "leafset+bogus"],
             ["--planner", "bogus"], ["--group", "1"]],
    "multi": [["--sessions", "10x"], ["--jobs", "-1"]],
    "somo": [["--interval-ms", "5000ms"]],
    "somo-loss": [["--horizon-ms", "1e4x"], ["--loss", "0.1x"],
                  ["--loss", "0,abc"]],
    "hb-jitter": [["--seed", "1.5"], ["--jitter", "0,abc"],
                  ["--jitter", ","]],
    "topo": [["--hosts", "300x"], ["--preset", "2M"],
             ["--oracle", "flatter"]],
    "fullstack": [["--group", "20x"], ["--preset", "2M"],
                  ["--oracle", "flatter"], ["--strategy", "leafset+adj"],
                  ["--planner", "bogus"], ["--group", "1"],
                  ["--shards", "0"]],
    "compare": [["--fail-frac", "0.1x"], ["--preset", "2M"],
                ["--oracle", "flatter"], ["--planner", "tree,bogus"],
                ["--strategy", "bogus"], ["--group", "1"]],
    "observe": [["--loss", "0.2x"], ["--scenarios", "none,flood"]],
    "alert": [["--hb-timeout-ms", "abc"], ["--preset", "2M"],
              ["--oracle", "flatter"], ["--scenarios", "none,flood"]],
}

# The paper's figures and ablations: fixed sizes, no flag but --report.
# The five that take well under a second at full size also run end to end.
FIGURES = ["fig4", "fig5", "fig8", "fig10", "somo-latency", "somo-repair",
           "ablation-helper", "ablation-adjust", "ablation-staleness",
           "ablation-bandwidth", "qos-metrics"]
RUNS.update({cmd: [] for cmd in ("fig5", "ablation-helper", "ablation-adjust",
                                 "ablation-bandwidth", "qos-metrics")})
REJECTED.update({cmd: [] for cmd in FIGURES})

failures = []


def did_work(out):
    """True when `out` holds a progress line ("building pool ...")."""
    return any(line.startswith(PROGRESS) and line.endswith("...")
               for line in out.splitlines())


def run(cli, args):
    # No per-call timeout: the ctest TIMEOUT bounds the whole test, and
    # under the sanitizers `alert` alone runs for about 100 s.
    proc = subprocess.run([cli] + args, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check(ok, what, out=""):
    if not ok:
        failures.append(what + ("\n" + out if out else ""))


def main():
    cli, validate = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for cmd, args in RUNS.items():
            report = os.path.join(tmp, cmd + ".json")
            rc, out = run(cli, [cmd] + args + ["--report", report])
            check(rc == 0 and os.path.exists(report), f"{cmd} exit {rc}", out)
            reports.append(report)
        proc = subprocess.run([sys.executable, validate] + reports,
                              capture_output=True, text=True)
        check(proc.returncode == 0, "validate_report.py", proc.stdout)

        for cmd in REJECTED:
            report = os.path.join(tmp, cmd + "-rejected.json")
            cases = [["--bogus", "1"]] + REJECTED[cmd] + [["stray"]]
            for case in cases:
                rc, out = run(cli, [cmd] + case + ["--report", report])
                what = f"{cmd} {' '.join(case)}"
                check(rc == 2, f"{what}: exit {rc}, want 2", out)
                check("flags:" in out and "--report" in out,
                      f"{what}: no flag list", out)
                check(not did_work(out), f"{what}: did work first", out)
                check(not os.path.exists(report), f"{what}: wrote a report")
            rc, out = run(cli, [cmd, "--help", "--report", report])
            check(rc == 0 and "flags:" in out, f"{cmd} --help: exit {rc}",
                  out)
            check(not did_work(out) and not os.path.exists(report),
                  f"{cmd} --help ran", out)

    for args, want in (([], 2), (["--help"], 0), (["bogus"], 2)):
        rc, out = run(cli, args)
        check(rc == want and "usage:" in out, f"{args}: exit {rc}", out)

    for f in failures:
        print("FAIL:", f)
    print(f"cli: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
