#!/usr/bin/env python3
"""Diff two p2preport/v1 run reports with per-result tolerances.

Same-seed runs of every experiment are deterministic, so the default
comparison is exact on everything except the wall-clock section: the
`profile` block of a spliced metrics snapshot is skipped. Experiments
keep wall-clock timers there and out of their results, so `*_ms`
results (simulated latencies, staleness, heights) are compared like
every other result. Use --rtol / --atol to loosen the numeric comparison
globally, or --tolerance KEY=RTOL to loosen a single result key (e.g.
cross-platform libm drift in a height statistic).

Compared, in order:
  schema, experiment, seed        exact
  config                          exact string map
  results                         same key set; numbers within tolerance
  metrics.counters/gauges         same key set; numbers within tolerance
  metrics.histograms              count exact; min/max/mean/sum/p* within
                                  tolerance
  alerts                          exact: counts AND the full event log,
                                  including t_ms (virtual time)
  timeseries                      name and total_rows per entry
  metrics.profile                 ignored (wall clock)

Exit 0 when the reports agree, 1 otherwise, 2 on malformed input.

Usage: compare_reports.py A.json B.json
           [--rtol 0.0] [--atol 0.0] [--tolerance KEY=RTOL ...]
"""

import argparse
import json
import math
import sys


class Differ:
    def __init__(self, rtol, atol, per_key):
        self.rtol = rtol
        self.atol = atol
        self.per_key = per_key
        self.diffs = []

    def close(self, a, b, key):
        if a is None or b is None:
            return a is b
        if math.isnan(a) and math.isnan(b):
            return True
        rtol = self.per_key.get(key, self.rtol)
        return abs(a - b) <= self.atol + rtol * max(abs(a), abs(b))

    def report(self, path, a, b):
        self.diffs.append(f"  {path}: {a!r} != {b!r}")

    def exact(self, path, a, b):
        if a != b:
            self.report(path, a, b)

    def numbers(self, path, a, b):
        """Compare two {name: number-or-null} maps."""
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                self.report(f"{path}.{key}", a.get(key, "<absent>"),
                            b.get(key, "<absent>"))
                continue
            if not self.close(a[key], b[key], key):
                self.report(f"{path}.{key}", a[key], b[key])


def compare(left, right, differ):
    for field in ("schema", "experiment", "seed"):
        differ.exact(field, left.get(field), right.get(field))
    differ.exact("config", left.get("config", {}), right.get("config", {}))

    differ.numbers("results", left.get("results", {}),
                   right.get("results", {}))

    ml, mr = left.get("metrics"), right.get("metrics")
    if (ml is None) != (mr is None):
        differ.report("metrics", "present" if ml else None,
                      "present" if mr else None)
    elif ml is not None:
        differ.numbers("metrics.counters", ml.get("counters", {}),
                       mr.get("counters", {}))
        differ.numbers("metrics.gauges", ml.get("gauges", {}),
                       mr.get("gauges", {}))
        hl, hr = ml.get("histograms", {}), mr.get("histograms", {})
        for name in sorted(set(hl) | set(hr)):
            if name not in hl or name not in hr:
                differ.report(f"metrics.histograms.{name}",
                              "present" if name in hl else "<absent>",
                              "present" if name in hr else "<absent>")
                continue
            a, b = hl[name], hr[name]
            differ.exact(f"metrics.histograms.{name}.count",
                         a.get("count"), b.get("count"))
            for stat in ("min", "max", "mean", "sum", "p50", "p90", "p99"):
                if not differ.close(a.get(stat), b.get(stat), name):
                    differ.report(f"metrics.histograms.{name}.{stat}",
                                  a.get(stat), b.get(stat))

    al, ar = left.get("alerts", {}), right.get("alerts", {})
    for name in sorted(set(al) | set(ar)):
        if name not in al or name not in ar:
            differ.report(f"alerts.{name}",
                          "present" if name in al else "<absent>",
                          "present" if name in ar else "<absent>")
            continue
        a, b = al[name], ar[name]
        for field in ("fires", "clears", "dropped", "evaluations"):
            differ.exact(f"alerts.{name}.{field}", a.get(field), b.get(field))
        ea, eb = a.get("events", []), b.get("events", [])
        if len(ea) != len(eb):
            differ.report(f"alerts.{name}.events (length)", len(ea), len(eb))
            continue
        for i, (va, vb) in enumerate(zip(ea, eb)):
            # Alert events are virtual-time transitions: byte-identical
            # across same-seed runs, t_ms included.
            differ.exact(f"alerts.{name}.events[{i}]", va, vb)

    tl = {t["name"]: t for t in left.get("timeseries", [])}
    tr = {t["name"]: t for t in right.get("timeseries", [])}
    for name in sorted(set(tl) | set(tr)):
        if name not in tl or name not in tr:
            differ.report(f"timeseries.{name}",
                          "present" if name in tl else "<absent>",
                          "present" if name in tr else "<absent>")
            continue
        differ.exact(f"timeseries.{name}.total_rows",
                     tl[name].get("total_rows"), tr[name].get("total_rows"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("left")
    parser.add_argument("right")
    parser.add_argument("--rtol", type=float, default=0.0)
    parser.add_argument("--atol", type=float, default=0.0)
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="KEY=RTOL",
                        help="per-result-key relative tolerance override")
    args = parser.parse_args()

    per_key = {}
    for spec in args.tolerance:
        key, _, val = spec.partition("=")
        if not val:
            print(f"bad --tolerance {spec!r} (want KEY=RTOL)",
                  file=sys.stderr)
            return 2
        per_key[key] = float(val)

    reports = []
    for path in (args.left, args.right):
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 2
        if data.get("schema") != "p2preport/v1":
            print(f"{path}: not a p2preport/v1 file", file=sys.stderr)
            return 2
        reports.append(data)

    differ = Differ(args.rtol, args.atol, per_key)
    compare(reports[0], reports[1], differ)

    if differ.diffs:
        print(f"DIFF  {args.left} vs {args.right}:")
        for line in differ.diffs:
            print(line)
        return 1
    print(f"  ok  {args.left} == {args.right}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
