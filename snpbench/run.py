#!/usr/bin/env python3
"""Run the repository benchmark: one workload, or the whole suite.

One workload (the last line of stdout is the result JSON):

    python3 snpbench/run.py --workload idsearch_small --seed 1 --seconds 24 --trace 0

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json:
three processes run one after another, a third of --seconds each, and
every metric is the median of the three. With --trace 1 one process runs
for --seconds and the result carries the per-layer metrics. Every metric
measured is printed above the result line by name, with its unit and
sample count.

The whole suite (each workload in its own process, untraced and then
traced, into one results JSON; exits 1 if any correctness check failed):

    python3 snpbench/run.py --suite [--seed N] [--repeat K] [--out FILE]

The benchmark builds the framework from source with CMake into
.bench_build (or $CARGO_TARGET_DIR) on first use, and runs it in a fixed
environment: passive OpenMP waits over the usable cores, one malloc arena
with fixed thresholds (see bench_env and README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
# Untraced runs report the median of this many processes: on a shared host
# one process can run well off the others (README.md, "Stability").
PROCESSES = 3


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def fail(msg, code=2):
    sys.stderr.write(f"snpbench: {msg}\n")
    sys.exit(code)


def build():
    """Configures and builds the benchmark (a no-op when up to date);
    returns the binary."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j",
              str(len(os.sched_getaffinity(0)))]]
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "snpbench"


def bench_env():
    env = dict(os.environ)
    # Passive OpenMP waits: with the default (active) policy, kernel
    # threads spinning between parallel regions starve the service's
    # dispatcher and the load generator (see README.md).
    env["OMP_WAIT_POLICY"] = "PASSIVE"
    env["OMP_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    # One malloc arena with fixed thresholds: freed blocks up to 32 MiB are
    # reused and never returned to the kernel. Under glibc's defaults a
    # process switches at an unpredictable point from page-faulting its
    # large per-request buffers afresh to reusing them, and idsearch_large
    # runs up to 5x faster after the switch (see README.md).
    env["MALLOC_ARENA_MAX"] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    env.setdefault("SNPCMP_GIT_SHA", "unknown")
    return env


def run_once(binary, workload, seed, seconds, trace, quick, timeout):
    """Runs one workload in its own process; returns its JSON document."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", str(work)]
    if quick:
        cmd.append("--quick")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout, env=bench_env())
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {timeout:.0f} s")
    if p.returncode != 0:
        fail(f"{workload} exited {p.returncode}: {p.stderr.strip()}")
    return json.loads(p.stdout)


def median_of(docs):
    """One document from the untraced processes of a run: each metric is
    the median of theirs (null if any lacks it), with their samples
    summed; counts and checks add up."""
    out = dict(docs[0])
    out["metrics"] = {}
    for name, m in docs[0]["metrics"].items():
        got = [d["metrics"].get(name, {}).get("value") for d in docs]
        value = None if None in got else statistics.median(got)
        out["metrics"][name] = {
            "value": value, "unit": m["unit"], "of": got,
            "samples": sum(d["metrics"].get(name, {}).get("samples", 0)
                           for d in docs)}
    out["correct"] = all(d["correct"] for d in docs)
    out["attempted"] = sum(d["attempted"] for d in docs)
    out["failed"] = sum(d["failed"] for d in docs)
    out["checks"] = [c for d in docs for c in d["checks"]]
    out["phases"] = [p for d in docs for p in d["phases"]]
    out["seconds"] = sum(d["seconds"] for d in docs)
    out["processes"] = len(docs)
    return out


def measure(binary, workload, seed, seconds, trace, quick=False):
    """One run of a workload: one traced process, or the median of
    PROCESSES untraced ones that share --seconds."""
    if trace:
        return run_once(binary, workload, seed, seconds, True, quick,
                        RUN_TIMEOUT_S)
    return median_of([
        run_once(binary, workload, seed, seconds / PROCESSES, False, quick,
                 RUN_TIMEOUT_S / PROCESSES)
        for _ in range(PROCESSES)])


def print_run(doc):
    tag = f"{doc['workload']} seed={doc['seed']} trace={doc['trace']}"
    for name, m in doc["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        of = ""
        if "of" in m:
            of = ", median of " + " ".join(
                "n/a" if v is None else f"{v:.6g}" for v in m["of"])
        print(f"{tag}  {name} = {value} {m['unit']} (n={m['samples']}{of})")
    for c in doc["checks"]:
        status = "ok" if c["bad"] == 0 else "FAILED"
        print(f"{tag}  check {status}: {c['name']} ({c['checked']} checked, "
              f"{c['bad']} bad)")


def result_line(doc, spec):
    """The result line: exactly the metrics BENCHMARK.json names."""
    metrics = {}
    for want in spec:
        got = doc["metrics"].get(want["name"])
        if got is None or got["value"] is None:
            fail(f"metric {want['name']} missing from {doc['workload']}", 3)
        if got["unit"] != want["unit"]:
            fail(f"metric {want['name']} in {got['unit']}, "
                 f"expected {want['unit']}", 3)
        metrics[want["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def suite(args, bench, binary):
    seconds = args.seconds or bench["run_seconds"]
    results = {"seed": args.seed, "seconds": seconds, "quick": args.quick,
               "workloads": {}}
    correct = True
    for w in (x["name"] for x in bench["workloads"]):
        runs = []
        for r in range(args.repeat):
            doc = measure(binary, w, args.seed + r, seconds, False, args.quick)
            print_run(doc)
            result_line(doc, bench["end_to_end"])
            runs.append(doc)
        traced = measure(binary, w, args.seed, seconds, True, args.quick)
        print_run(traced)
        result_line(traced, bench["per_layer"])
        correct &= traced["correct"] and all(d["correct"] for d in runs)
        results["workloads"][w] = {"runs": runs, "traced": traced}
        results.setdefault("env", runs[0]["env"])
    if args.repeat > 1:
        for w, entry in results["workloads"].items():
            for m in bench["end_to_end"]:
                vals = [d["metrics"][m["name"]]["value"] for d in entry["runs"]]
                print(f"{w}  median {m['name']} = "
                      f"{statistics.median(vals):.6g} {m['unit']} "
                      f"(over {len(vals)} runs)")
    out = Path(args.out) if args.out else build_dir() / "results.json"
    out.write_text(json.dumps(results) + "\n")
    print(f"results: {out}")
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true",
                    help="run every workload, untraced then traced")
    ap.add_argument("--repeat", type=int, default=1,
                    help="suite: untraced runs per workload, at seeds "
                         "S, S+1, ...")
    ap.add_argument("--out", help="suite: results JSON path")
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs for a smoke test")
    ap.add_argument("--bin", help="use this snpbench binary; skip the build")
    args = ap.parse_args()

    bench = load_benchmark()
    binary = Path(args.bin).resolve() if args.bin else build()
    if args.suite:
        return suite(args, bench, binary)
    if not args.workload:
        fail("--workload or --suite is required", 1)
    doc = measure(binary, args.workload, args.seed,
                  args.seconds or bench["run_seconds"], args.trace, args.quick)
    print_run(doc)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps(result_line(doc, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
