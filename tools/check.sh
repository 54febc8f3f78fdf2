#!/usr/bin/env bash
# Full verification sweep:
#   1. Release build + the whole test suite (tier1 + slow labels), plus
#      a telemetry smoke: a real search run with --metrics-out /
#      --trace-out whose outputs are validated as JSON, and a
#      static-analyzer smoke: `snpcmp lint --format json` on two device
#      presets, validated the same way (zero errors, Eq. 5 note present),
#      and a dataflow-verifier smoke: fabricated out-of-bounds launches
#      must be blocked with exit 3 + their SNP-BOUND-*/SNP-OVF-* IDs,
#      and a reduced-seed mutation soak must be failure-free.
#   2. ASan/UBSan build + tier-1 tests.
#   3. TSan build + the concurrency-heavy suites (exec scheduler,
#      async-vs-serial conformance, the obs metrics/span registry, the
#      fault-injection soak, and the multi-client service-engine
#      soak) — OpenMP is compiled out under TSan, so
#      every data race the thread-pool pipeline could introduce is
#      visible to the tool.
#
# The release stage also runs a fault-injection smoke: an injected
# search under --fail-policy degrade must match the clean ranking and
# report its fault events; abort must exit 4 with the SNPRT-* code
# (docs/robustness.md).
#
# Usage: tools/check.sh [--skip-sanitizers | --ci]
#
# --ci is the GitHub Actions profile: release build, the full test
# suite, the telemetry smoke, the bench_compare self-test, a quick
# benchmark-regression smoke (a mini aggregate compared against itself
# must be clean), and the repository benchmark (snpbench/) built as its
# own tree and smoke-run by its ctest — but no sanitizer rebuilds, which
# dominate wall time.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
skip_san=no
[[ "${1:-}" == "--skip-sanitizers" || "${1:-}" == "--ci" ]] && skip_san=yes
ci_mode=no
[[ "${1:-}" == "--ci" ]] && ci_mode=yes

echo "== release build + full test suite =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== telemetry smoke (metrics + merged trace round-trip) =="
if [[ "$ci_mode" == yes ]]; then
  # Persistent scratch dir in CI: the workflow uploads it as a failure
  # artifact (flight dumps, merged traces, cost ledgers).
  smoke=build/diag
  rm -rf "$smoke"
  mkdir -p "$smoke"
else
  smoke=$(mktemp -d)
  trap 'rm -rf "$smoke"' EXIT
fi
./build/tools/snpcmp gendb --out "$smoke/db.sbm" --profiles 200 --snps 256 >/dev/null
./build/tools/snpcmp gendb --out "$smoke/q.sbm" --profiles 4 --snps 256 >/dev/null
./build/tools/snpcmp search --queries "$smoke/q.sbm" --db "$smoke/db.sbm" \
  --threads 4 --metrics-out "$smoke/m.json" --trace-out "$smoke/t.json" >/dev/null
python3 - "$smoke/m.json" "$smoke/t.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
assert metrics["counters"]["core.compare.chunks"] > 0, "no chunk counters"
assert "exec.pool.queue_depth" in metrics["gauge_peaks"], "no pool gauges"
trace = json.load(open(sys.argv[2]))
pids = {ev["pid"] for ev in trace}
assert {1, 2} <= pids, f"merged trace missing host tracks: {pids}"
# Slices + metadata plus the request-flow dialect: instants ("i") and
# flow records ("s"/"t"/"f") chained by id (docs/observability.md).
assert all(ev["ph"] in ("M", "X", "i", "s", "t", "f") for ev in trace)
assert all("id" in ev for ev in trace if ev["ph"] in ("s", "t", "f"))
print(f"telemetry smoke ok: {len(metrics['counters'])} counters, "
      f"{len(trace)} trace events, pids {sorted(pids)}")
EOF

echo "== static-analyzer smoke (snpcmp lint JSON round-trip) =="
# Two presets through the kernel/config analyzer: the JSON must parse,
# carry zero error-severity diagnostics, and surface the Eq. 5
# discrepancy info note (SNP-CFG-006, docs/static-analysis.md).
./build/tools/snpcmp lint --device gtx980 --format json \
  > "$smoke/lint_gtx980.json"
./build/tools/snpcmp lint --device vega64 --workload fastid --format json \
  > "$smoke/lint_vega64.json"
python3 - "$smoke/lint_gtx980.json" "$smoke/lint_vega64.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc["errors"] == 0, f"{doc['device']}: {doc['errors']} errors"
    ids = {d["id"] for d in doc["diagnostics"]}
    assert "SNP-CFG-006" in ids, f"{doc['device']}: Eq. 5 note missing"
    sev = {d["severity"] for d in doc["diagnostics"]}
    assert sev <= {"warn", "info"}, f"{doc['device']}: bad severities {sev}"
    print(f"lint ok: {doc['device']} {doc['workload']} "
          f"{len(doc['diagnostics'])} diagnostic(s), 0 errors")
EOF

echo "== dataflow verifier smoke (blocked launch + mutation soak) =="
# docs/static-analysis.md: a fabricated out-of-bounds tile allocation
# must be refused before launch with exit 3 and the SNP-BOUND-* check ID
# as the first stderr token; a huge trip count must fail the overflow
# proof; and a reduced-seed mutation soak must have no false negatives.
set +e
./build/tools/snpcmp lint --device titanv --lds-words 64 \
  > "$smoke/blocked_tile.txt" 2>&1
rc=$?
set -e
[[ $rc -eq 3 ]] || { echo "undersized tile lint exited $rc, want 3"; exit 1; }
grep -q 'SNP-BOUND-001' "$smoke/blocked_tile.txt" || {
  echo "undersized tile lint lacks SNP-BOUND-001"; exit 1; }
set +e
./build/tools/snpcmp lint --device gtx980 --k-iters 300000000 \
  > "$smoke/overflow_trips.txt" 2>&1
rc=$?
set -e
[[ $rc -eq 3 ]] || { echo "overflow lint exited $rc, want 3"; exit 1; }
grep -q 'SNP-OVF-001' "$smoke/overflow_trips.txt" || {
  echo "overflow lint lacks SNP-OVF-001"; exit 1; }
set +e
./build/tools/snpcmp search --queries "$smoke/q.sbm" --db "$smoke/db.sbm" \
  --lds-words 16 > /dev/null 2> "$smoke/blocked_launch.err"
rc=$?
set -e
[[ $rc -eq 3 ]] || { echo "blocked launch exited $rc, want 3"; exit 1; }
head -1 "$smoke/blocked_launch.err" | grep -q '^SNP-BOUND-001 ' || {
  echo "blocked launch stderr does not lead with the check ID"; exit 1; }
./build/tools/snpcmp lint --soak 2 || {
  echo "mutation soundness soak reported failures"; exit 1; }
echo "dataflow verifier smoke ok: bad launches blocked, soak clean"

echo "== fault-injection smoke (recovery ladder end-to-end) =="
# docs/robustness.md: a heavily injected run under --fail-policy degrade
# must succeed, rank identically to the clean run, and report its fault
# events; abort must exit 4 with the stable SNPRT-* code on stderr.
./build/tools/snpcmp search --queries "$smoke/q.sbm" --db "$smoke/db.sbm" \
  > "$smoke/clean.txt"
./build/tools/snpcmp search --queries "$smoke/q.sbm" --db "$smoke/db.sbm" \
  --inject-faults 'launch:p=0.5:seed=9' --fail-policy degrade \
  > "$smoke/degraded.txt"
grep -q '^faults:' "$smoke/degraded.txt" || {
  echo "degraded run did not report its fault events"; exit 1; }
diff <(grep '^query ' "$smoke/clean.txt") \
     <(grep '^query ' "$smoke/degraded.txt") || {
  echo "degraded run diverged from the clean ranking"; exit 1; }
set +e
./build/tools/snpcmp search --queries "$smoke/q.sbm" --db "$smoke/db.sbm" \
  --inject-faults 'launch:after=1' --fail-policy abort \
  > /dev/null 2> "$smoke/abort.err"
rc=$?
set -e
[[ $rc -eq 4 ]] || { echo "abort policy exited $rc, want 4"; exit 1; }
grep -q 'SNPRT-LAUNCH' "$smoke/abort.err" || {
  echo "abort stderr lacks the stable SNPRT-LAUNCH code"; exit 1; }
echo "fault-injection smoke ok: degrade bit-identical, abort exits 4"

echo "== flight-recorder smoke (fault-path dump golden) =="
# docs/observability.md: a fault-injected serve with --flight-out must
# exit 4 with the SNPRT code leading stderr, note the dump it wrote, and
# the dump must be valid JSON naming the code and the failed request's
# trace id (the same id printed on its `req N:` line).
printf '{"submit": 0}\n{"submit": 1}\n' > "$smoke/req.jsonl"
set +e
./build/tools/snpcmp serve --db "$smoke/db.sbm" --queries "$smoke/q.sbm" \
  --script "$smoke/req.jsonl" --device titanv \
  --inject-faults 'launch:after=1' --fail-policy abort \
  --flight-out "$smoke/flight.json" \
  > "$smoke/serve.out" 2> "$smoke/serve.err"
rc=$?
set -e
[[ $rc -eq 4 ]] || { echo "fault serve exited $rc, want 4"; exit 1; }
head -1 "$smoke/serve.err" | grep -q '^error: \[SNPRT-LAUNCH\]' || {
  echo "SNPRT code does not lead stderr"; exit 1; }
grep -q "flight: wrote $smoke/flight.json" "$smoke/serve.err" || {
  echo "stderr lacks the flight-dump note"; exit 1; }
python3 - "$smoke/flight.json" "$smoke/serve.out" <<'EOF'
import json, re, sys
doc = json.load(open(sys.argv[1]))
assert doc["flight"] == 1, "bad schema marker"
assert doc["reason"] == "fault: SNPRT-LAUNCH", doc["reason"]
kinds = {ev["kind"] for ev in doc["events"]}
assert {"enqueue", "batch", "fault", "resolve"} <= kinds, kinds
faults = [ev for ev in doc["events"] if ev["kind"] == "fault"]
assert any(ev.get("code") == "SNPRT-LAUNCH" for ev in faults), faults
out = open(sys.argv[2]).read()
m = re.search(r"req 0: error \[SNPRT-LAUNCH\].* trace=(\d+)", out)
assert m, f"no traced failure line in:\n{out}"
trace = int(m.group(1))
assert any(ev["trace"] == trace for ev in faults), \
    f"fault events {faults} lack failed request trace {trace}"
print(f"flight dump ok: {len(doc['events'])} events, fault named and "
      f"correlated to request trace {trace}")
EOF

echo "== deadline smoke (shed / met / exit-4 contract end-to-end) =="
# docs/robustness.md "Request lifecycle": a negative deadline sheds at
# admission, a microsecond one is shed at batch formation (never
# launched), a generous one is met — and a formation shed extends the
# exit-4 contract to SNPRT-DEADLINE as the first stderr token.
printf '{"submit": 0, "deadline_ms": -1}\n{"submit": 1, "deadline_ms": 600000}\n{"submit": 2, "deadline_ms": 0.000001}\n' \
  > "$smoke/deadline.jsonl"
set +e
./build/tools/snpcmp serve --db "$smoke/db.sbm" --queries "$smoke/q.sbm" \
  --script "$smoke/deadline.jsonl" --device titanv --cache 0 \
  > "$smoke/deadline.out" 2> "$smoke/deadline.err"
rc=$?
set -e
[[ $rc -eq 4 ]] || { echo "deadline serve exited $rc, want 4"; exit 1; }
head -1 "$smoke/deadline.err" | grep -q '^error: \[SNPRT-DEADLINE\]' || {
  echo "SNPRT-DEADLINE does not lead stderr"; exit 1; }
grep -q 'req 0: rejected \[SNPRT-DEADLINE\]' "$smoke/deadline.out" || {
  echo "negative deadline was not shed at admission"; exit 1; }
grep -q 'req 2: error \[SNPRT-DEADLINE\]' "$smoke/deadline.out" || {
  echo "expired deadline was not shed at formation"; exit 1; }
grep -q 'deadlines:   met=1 expired=0 shed=2' "$smoke/deadline.out" || {
  echo "deadlines report block wrong:"; cat "$smoke/deadline.out"; exit 1; }
grep -q 'service:     batches=1 ' "$smoke/deadline.out" || {
  echo "a shed request reached a launch (batch count != 1)"; exit 1; }
echo "deadline smoke ok: shed at admission + formation, met in time," \
  "exit 4"

echo "== cost-ledger + pipeline-report smoke (serve -> report) =="
# docs/observability.md: the --cost-out shares must sum bit-identically
# to their batch totals on every integer axis, `snpcmp report` must be
# byte-deterministic over the same inputs, and its Little's-law
# consistency check must PASS on a drained scripted run.
printf '{"submit": 0}\n{"submit": 1}\n{"submit": 2, "count": 3}\n{"barrier": true}\n{"submit": 3, "count": 4}\n' \
  > "$smoke/cost.jsonl"
./build/tools/snpcmp serve --db "$smoke/db.sbm" --queries "$smoke/q.sbm" \
  --script "$smoke/cost.jsonl" --device titanv --max-batch 4 \
  --metrics-out "$smoke/cost_m.json" --trace-out "$smoke/cost_t.json" \
  --cost-out "$smoke/cost_c.json" > "$smoke/cost_serve.out"
grep -q '^cost:' "$smoke/cost_serve.out" || {
  echo "serve report lacks the cost: block"; exit 1; }
python3 - "$smoke/cost_c.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["cost"] == 1, "bad schema marker"
axes = ("device_ns", "h2d_ns", "d2h_ns", "h2d_bytes", "d2h_bytes",
        "wordops")
by_batch = {b["batch"]: b for b in doc["batches"]}
sums = {b: {a: 0 for a in axes} for b in by_batch}
for r in doc["requests"]:
    if r["cache_hit"]:
        continue
    for a in axes:
        sums[r["batch"]][a] += r[a]
for bid, batch in by_batch.items():
    for a in axes:
        assert sums[bid][a] == batch[a], \
            f"batch {bid} axis {a}: shares sum {sums[bid][a]} != " \
            f"total {batch[a]}"
print(f"cost ledger ok: {len(doc['requests'])} request shares sum "
      f"bit-identically across {len(by_batch)} batches x {len(axes)} axes")
EOF
./build/tools/snpcmp report --trace "$smoke/cost_t.json" \
  --metrics "$smoke/cost_m.json" --cost "$smoke/cost_c.json" \
  > "$smoke/report1.txt"
./build/tools/snpcmp report --trace "$smoke/cost_t.json" \
  --metrics "$smoke/cost_m.json" --cost "$smoke/cost_c.json" \
  > "$smoke/report2.txt"
cmp -s "$smoke/report1.txt" "$smoke/report2.txt" || {
  echo "snpcmp report is not deterministic over the same inputs"; exit 1; }
grep -q '^pipeline report:' "$smoke/report1.txt" || {
  echo "report lacks the pipeline header"; exit 1; }
grep -Eq 'littles law: .* PASS' "$smoke/report1.txt" || {
  echo "Little's-law consistency check did not PASS:"
  cat "$smoke/report1.txt"; exit 1; }
grep -q 'top requests by device time:' "$smoke/report1.txt" || {
  echo "report lacks the top-requests section"; exit 1; }
echo "pipeline report ok: deterministic bytes, Little's check PASS"

echo "== bench_compare self-test (regression-gate fixtures) =="
tools/bench_compare --self-test

echo "== benchmark regression smoke (mini aggregate vs itself) =="
# Fast subset with tiny workloads; a self-comparison must be clean, and
# the aggregate must carry the env header and per-row CI columns.
SNP_BENCH_MAX_REPS=8 SNP_BENCH_BUDGET_S=0.2 SNP_ABL_ASYNC_PROFILES=20000 \
  SNP_ABL_SERVICE_PROFILES=512 SNP_ABL_SERVICE_QUERIES=64 \
  tools/run_bench.sh "$smoke/bench.json" build >/dev/null
python3 - "$smoke/bench.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert "env" in doc and "cpu_model" in doc["env"], "no env header"
for name, b in doc["benches"].items():
    assert "primary" in b, f"{name}: no primary metric"
    m = b["primary"]["metric"]
    for row in b["rows"]:
        for col in (m, f"{m}_ci_lo", f"{m}_ci_hi", f"{m}_reps"):
            assert col in row, f"{name}: row missing {col}"
print(f"aggregate ok: {len(doc['benches'])} benches carry "
      f"median/ci_lo/ci_hi/reps on their primary metric")
EOF
tools/bench_compare "$smoke/bench.json" "$smoke/bench.json" --quiet
echo "self-comparison clean"

echo "== repository benchmark build + smoke (snpbench) =="
# snpbench/ is its own CMake tree over the same src/ libraries; its ctest
# runs every workload briefly (snpbench_smoke) and the comparison tool's
# fixtures (snpbench_compare_selftest), so a src/ change that breaks the
# benchmark fails here.
cmake -S snpbench -B build/snpbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build/snpbench -j "$jobs"
ctest --test-dir build/snpbench --output-on-failure

if [[ "$skip_san" == yes ]]; then
  if [[ "$ci_mode" == yes ]]; then
    echo "== ci profile complete =="
  else
    echo "== sanitizers skipped =="
  fi
  exit 0
fi

echo "== ASan/UBSan build + tier-1 tests =="
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$jobs"
ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-asan -L tier1 --output-on-failure -j "$jobs"

echo "== TSan build + exec/conformance/obs/fault/service tests =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs" \
  --target test_exec test_async_conformance test_obs test_fault_injection \
           test_service test_chaos test_flight test_tracing
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_exec
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_async_conformance
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_obs
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_fault_injection
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_service
# The chaos feature matrix (deadlines x breaker x retry budget under
# injected faults) and the blocked-submitter teardown race are the
# PR-10 concurrency surface.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_chaos
# The flight-recorder seqlock soak (concurrent writers + dumper) and the
# trace-context propagation suite are the PR-7 concurrency surface.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_flight
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_tracing

echo "== all checks passed =="
