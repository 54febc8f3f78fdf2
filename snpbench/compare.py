#!/usr/bin/env python3
"""Compare two benchmark results files under BENCHMARK.json's bounds.

    python3 snpbench/compare.py A.json B.json
    python3 snpbench/compare.py --self-test

A (the parent) and B (the change) are results files written by
`run.py --suite`. For every workload and every end-to-end metric, gated
(BENCHMARK.json) or not (UNGATED), the report gives the median of B's
untraced runs against the median of A's and one verdict:

  improved    better by more than the metric's bound
  unchanged   within the bound, or within the metric's floor (FLOORS)
  regressed   worse by more than the bound
  unresolved  A's own runs spread wider than the bound, and not every run
              of B reads better than every run of A
  missing     either file lacks the metric

The exit status is 1 when a gated metric regressed or is missing, else 0.
"""

import argparse
import io
import json
import statistics
import sys
from pathlib import Path

# Absolute changes no larger than these count as unchanged whatever their
# share, in the metric's unit. The service workloads set up in well under
# 10 ms, where a change of a few tenths of a millisecond is a large share
# and says nothing a user would notice.
FLOORS = {"setup_s": 0.010}

# End-to-end metrics every untraced run reports that BENCHMARK.json does
# not gate: across ten seeds they spread wider than the 10% bound they
# would carry, because the host's speed drifts over minutes (README.md,
# "Stability"). They are compared for information and never set the exit
# status.
UNGATED = [
    {"name": "lat_p50_ms.lo", "better": "lower", "bound": 0.10},
    {"name": "lat_p90_ms.lo", "better": "lower", "bound": 0.10},
    {"name": "lat_p50_ms.mid", "better": "lower", "bound": 0.10},
    {"name": "lat_p90_ms.mid", "better": "lower", "bound": 0.10},
    {"name": "max_qps", "better": "higher", "bound": 0.10},
]


def spread(values):
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more runs, the full range with two or three."""
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    else:
        width = max(values) - min(values)
    return abs(width / med) if med else float("inf")


def verdict(a, b, better, bound, floor=0.0):
    """Classifies B's values against A's; returns (verdict, change) where
    change > 0 means B is worse, as a share of A's median."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / med_a if med_a else float("inf")
    if abs(med_b - med_a) <= floor:
        return "unchanged", change
    if spread(a) > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("improved" if all_better else "unresolved"), change
    if change > bound:
        return "regressed", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def values(results, workload, metric):
    runs = results.get("workloads", {}).get(workload, {}).get("runs", [])
    out = []
    for run in runs:
        m = run.get("metrics", {}).get(metric)
        if m is None or m.get("value") is None:
            return []
        out.append(m["value"])
    return out


def compare(a, b, bench, out=sys.stdout):
    """Prints one line per (workload, metric); returns the verdicts."""
    verdicts = {}
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':<16} {'metric':<16} {'A':>10} {'B':>10} "
          f"{'change':>8} {'bound':>6}  verdict", file=out)
    for w in workloads:
        for m in bench["end_to_end"] + UNGATED:
            tag = "" if m in bench["end_to_end"] else " (ungated)"
            va, vb = values(a, w, m["name"]), values(b, w, m["name"])
            if not va or not vb:
                verdicts[(w, m["name"])] = "missing"
                print(f"{w:<16} {m['name']:<16} {'':>10} {'':>10} {'':>8} "
                      f"{m['bound']:>6.0%}  missing{tag}", file=out)
                continue
            v, change = verdict(va, vb, m["better"], m["bound"],
                                FLOORS.get(m["name"], 0.0))
            verdicts[(w, m["name"])] = v
            print(f"{w:<16} {m['name']:<16} {statistics.median(va):>10.4g} "
                  f"{statistics.median(vb):>10.4g} {change:>+8.1%} "
                  f"{m['bound']:>6.0%}  {v}{tag}", file=out)
    return verdicts


def failing(verdicts, bench):
    """The gated (workload, metric) pairs that regressed or are missing."""
    gated = {m["name"] for m in bench["end_to_end"]}
    return [k for k, v in verdicts.items()
            if k[1] in gated and v in ("regressed", "missing")]


def self_test():
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
        ],
    }

    def results(**metrics):
        runs = [{"metrics": {}} for _ in range(max(map(len, metrics.values())))]
        for name, vals in metrics.items():
            for run, v in zip(runs, vals):
                run["metrics"][name] = {"value": v, "unit": ""}
        return {"workloads": {"w": {"runs": runs}}}

    base = results(lat=[10.0, 10.2, 9.9], qps=[1000.0, 990.0, 1010.0],
                   setup_s=[0.002, 0.002, 0.002], max_qps=[900.0, 910.0, 905.0])
    # (name, A, B, expected verdicts, the metrics expected to fail)
    cases = [
        ("a 20% slowdown is flagged", base,
         results(lat=[12.0], qps=[800.0], setup_s=[0.0024], max_qps=[905.0]),
         {"lat": "regressed", "qps": "regressed"}, ["lat", "qps"]),
        ("in-bound jitter passes", base,
         results(lat=[10.4], qps=[970.0], setup_s=[0.002], max_qps=[900.0]),
         {"lat": "unchanged", "qps": "unchanged"}, []),
        ("a missing metric fails", base,
         results(qps=[1000.0], setup_s=[0.002], max_qps=[900.0]),
         {"lat": "missing", "qps": "unchanged"}, ["lat"]),
        ("a 20% speed-up is an improvement", base,
         results(lat=[8.0], qps=[1250.0], setup_s=[0.002], max_qps=[900.0]),
         {"lat": "improved", "qps": "improved"}, []),
        ("a parent noisier than the bound is unresolved",
         results(lat=[8.0, 10.0, 12.5]), results(lat=[11.0]),
         {"lat": "unresolved"}, ["qps", "setup_s"]),
        ("set-up 20% slower but within the 10-ms floor is unchanged", base,
         results(lat=[10.0], qps=[1000.0], setup_s=[0.0024], max_qps=[900.0]),
         {"setup_s": "unchanged"}, []),
        ("set-up slower by more than the floor and the bound regresses",
         results(setup_s=[0.100, 0.101, 0.099]), results(setup_s=[0.115]),
         {"setup_s": "regressed"}, ["lat", "qps", "setup_s"]),
        ("an ungated metric is compared but never fails", base,
         results(lat=[10.0], qps=[1000.0], setup_s=[0.002], max_qps=[450.0]),
         {"max_qps": "regressed"}, []),
    ]
    ok = True
    for name, a, b, want, fails in cases:
        got = compare(a, b, bench, out=io.StringIO())
        for metric, expect in want.items():
            if got[("w", metric)] != expect:
                ok = False
                print(f"FAIL {name}: {metric} is {got[('w', metric)]}, "
                      f"expected {expect}")
        failed = sorted(m for _, m in failing(got, bench))
        if failed != fails:
            ok = False
            print(f"FAIL {name}: failing metrics {failed}, expected {fails}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", nargs="?", help="parent results JSON")
    ap.add_argument("b", nargs="?", help="change results JSON")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.a and args.b):
        ap.error("two results files are required")
    bench = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    return 1 if failing(compare(a, b, bench), bench) else 0


if __name__ == "__main__":
    sys.exit(main())
