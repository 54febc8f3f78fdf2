#!/usr/bin/env bash
# Full verification sweep:
#   1. Release build with warnings as errors (-DSNP_WERROR=ON) + the whole
#      test suite (tier1 + slow labels), a codegen guard on the CPU
#      engine's two kernels (512-bit vpopcntq where the host has AVX-512
#      VPOPCNTDQ) and on stats::r2_matrix (a packed vdivpd where the host
#      has AVX), short runs of two google-benchmark binaries' rows, the
#      service's engine-teardown race test repeated 500 times, plus
#      a telemetry smoke: a real search run with --metrics-out /
#      --trace-out whose outputs are validated as JSON, and a
#      static-analyzer smoke: `snpcmp lint --format json` on two device
#      presets, validated the same way (zero errors, Eq. 5 note present),
#      and a dataflow-verifier smoke: fabricated out-of-bounds launches
#      must be blocked with exit 3 + their SNP-BOUND-*/SNP-OVF-* IDs,
#      and a reduced-seed mutation soak must be failure-free, and a
#      strict-input smoke: deeply nested JSON and a write to a full disk
#      exit 2, and docs/service.md's annotated script runs.
#   2. ASan/UBSan build + tier-1 tests.
#   3. TSan build + the concurrency-heavy suites (the exec pool, the
#      in-place chunk pipeline, the host engines whose loops run on the
#      exec pool — CPU engine, GPU kernel, LD stats, sparse — the .sbm
#      path loader, whose payload slices are read on the exec pool
#      (formats and format-fuzz suites), a context's pre-launch lint
#      verdicts under concurrent launches, the obs metrics/span
#      registry, the fault-injection soak, the multi-GPU shard fallback,
#      and the multi-client service-engine soak, its teardown race
#      repeated 50 times). Every
#      host thread is an exec pool thread, so TSan sees the parallel code
#      production runs.
#   4. Telemetry compiled out (-DSNPCMP_OBS=OFF) build with warnings as
#      errors + tier-1 tests.
#   5. Portable build (-DSNP_NATIVE=OFF, baseline x86-64 codegen) + the
#      suites that check the host engine's counts against the reference,
#      and the chunk loop's shard fallback and memory pins.
#
# The release stage also runs a fault-injection smoke: an injected
# search under --fail-policy degrade must match the clean ranking and
# report its fault events; abort must exit 4 with the SNPRT-* code
# (docs/robustness.md).
#
# Usage: tools/check.sh [--skip-sanitizers | --ci | --portable]
#
# --ci is the GitHub Actions profile: release build, the full test
# suite, the telemetry smoke, the bench_compare self-test, a quick
# benchmark-regression smoke (a mini aggregate compared against itself
# must be clean), and the repository benchmark (snpbench/) built as its
# own tree and smoke-run by its ctest — but no sanitizer or
# telemetry-off rebuilds, which dominate wall time.
#
# --portable runs stage 5 alone (the GitHub Actions `portable` job).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)
skip_san=no
[[ "${1:-}" == "--skip-sanitizers" || "${1:-}" == "--ci" ]] && skip_san=yes
ci_mode=no
[[ "${1:-}" == "--ci" ]] && ci_mode=yes

portable_stage() {
  echo "== portable build (SNP_NATIVE=OFF) + host engine suites =="
  # The micro-kernel is one portable source: under baseline x86-64
  # codegen its counts must stay bit-exact too.
  local suites=(test_cpu_engine test_cross_engine test_gpu_kernel
                test_chunk_pipeline test_ld_stats test_multi_gpu
                test_device_memory)
  cmake -S . -B build-portable -DCMAKE_BUILD_TYPE=Release -DSNP_NATIVE=OFF \
    >/dev/null
  cmake --build build-portable -j "$jobs" --target "${suites[@]}"
  local t
  for t in "${suites[@]}"; do
    ./build-portable/tests/"$t" --gtest_brief=1
  done
}

if [[ "${1:-}" == "--portable" ]]; then
  portable_stage
  echo "== portable stage passed =="
  exit 0
fi

echo "== release build (warnings as errors) + full test suite =="
# The default preset pins SNP_WERROR=OFF, so the ON given here lasts only
# until the next plain `cmake --preset default` configure of build/.
cmake --preset default -DSNP_WERROR=ON >/dev/null
cmake --build --preset default -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== kernel codegen (512-bit vpopcntq) =="
# The micro-kernel's n_r = 8 lanes of 64-bit counts are one 512-bit
# vector, and the skinny kernel's k loop runs over 512-bit vectors of
# words: where the CPU has AVX-512 VPOPCNTDQ, the -march=native build must
# popcount both with vpopcntq on %zmm registers, not on narrower ones.
if grep -qw avx512_vpopcntdq /proc/cpuinfo; then
  for kernel in micro_kernel skinny_kernel; do
    zmm=$(objdump -d --no-show-raw-insn build/src/cpu/libsnp_cpu.a |
          awk -v k="$kernel" '/^[0-9a-f]+ <.*>:$/ { mk = index($0, k); next }
                              mk && /vpopcntq/ && /%zmm/' | wc -l)
    [[ "$zmm" -gt 0 ]] || {
      echo "$kernel has no vpopcntq on %zmm registers"; exit 1; }
    echo "$kernel: $zmm vpopcntq on %zmm registers"
  done
else
  echo "skipped: this CPU does not list avx512_vpopcntdq"
fi

echo "== r^2 codegen (packed vdivpd) =="
# stats::r2_matrix's guarded division vectorizes only because ld.cpp is
# built with -fno-trapping-math (src/stats/CMakeLists.txt); without it GCC
# leaves the loop scalar, with vdivsd alone. Any packed width counts.
if grep -qw avx /proc/cpuinfo; then
  packed=$(objdump -d --no-show-raw-insn build/src/stats/libsnp_stats.a |
           awk '/^[0-9a-f]+ <.*>:$/ { r2 = index($0, "r2_matrix"); next }
                r2 && /vdivpd/' | wc -l)
  [[ "$packed" -gt 0 ]] || { echo "r2_matrix has no packed vdivpd"; exit 1; }
  echo "r2_matrix: $packed packed vdivpd"
else
  echo "skipped: this CPU does not list avx"
fi

echo "== one thread runtime (no binary links libgomp) =="
for bin in build/tools/snpcmp build/tests/test_*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  if ldd "$bin" | grep -q libgomp; then
    echo "$bin links libgomp: host loops must run on the exec pool"; exit 1
  fi
done
echo "no OpenMP runtime linked"

echo "== CPU engine LD self and FastID rows (cpu_microkernel_gbench) =="
# Short runs of the triangle-only self path's google-benchmark row and of
# the FastID rows on both sides of the skinny path's crossover, so the
# rows keep building and running.
./build/bench/cpu_microkernel_gbench \
  --benchmark_filter='BM_CpuLdSelf|BM_CpuFastId' --benchmark_min_time=0.05

echo "== result-cache row codec rows (svc_cache_gbench) =="
# The packed row's encode and decode rows beside the 16-bit copies they
# are judged against, run briefly so the rows keep building and running.
./build/bench/svc_cache_gbench --benchmark_min_time=0.05

echo "== engine-teardown race (repeated) =="
# A kBlock submitter parked in admission while the engine is destroyed
# must be cancelled, never lost or deadlocked. The race once failed about
# one run in 250 under load, so one ctest pass cannot catch a regression;
# 500 repeats can, and the timeout turns a hang into a failure. Only
# failing repeats are printed.
teardown_test=ServiceDeadline.BlockedSubmittersNeverDeadlockTheDestructor
teardown_log=build/teardown_race.log
timeout 300 ./build/tests/test_service --gtest_filter="$teardown_test" \
  --gtest_repeat=500 --gtest_brief=1 > "$teardown_log" 2>&1 || {
  grep -v -e '^\[==========\]' -e '^\[  PASSED  \]' "$teardown_log" || true
  echo "teardown race test failed or hung (exit 124 = timed out)"; exit 1; }
echo "teardown race ok: 500 repeats"

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
  --metrics-out "$smoke/m.json" --trace-out "$smoke/t.json" >/dev/null
python3 - "$smoke/m.json" "$smoke/t.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))
chunks = metrics["counters"]["core.compare.chunks"]
assert chunks > 0, "no chunk counters"
assert "exec.pool.workers" in metrics["gauge_peaks"], "no pool gauges"
trace = json.load(open(sys.argv[2]))
pids = {ev["pid"] for ev in trace}
assert {1, 2} <= pids, f"merged trace missing host tracks: {pids}"
# Every chunk of the default run carries its host stage slices on pid 2.
pipeline = [ev["name"] for ev in trace if ev["pid"] == 2 and ev["ph"] == "X"]
for stage in ("pack", "exec", "drain"):
    got = sum(name.startswith(stage + " chunk ") for name in pipeline)
    assert got == chunks, f"{got} '{stage} chunk' slices for {chunks} chunks"
# Slices + metadata plus the request-flow dialect: instants ("i") and
# flow records ("s"/"t"/"f") chained by id (docs/observability.md).
assert all(ev["ph"] in ("M", "X", "i", "s", "t", "f") for ev in trace)
assert all("id" in ev for ev in trace if ev["ph"] in ("s", "t", "f"))
# snpbench's per-layer metrics read the three chunk-stage spans; a traced
# suite without one of them fails.
slices = {ev["name"] for ev in trace if ev["ph"] == "X"}
stages = {"core.chunk.pack", "core.chunk.execute", "core.chunk.drain"}
assert stages <= slices, f"chunk stage spans missing: {stages - slices}"
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
python3 - "$smoke/cost_m.json" <<'EOF'
import json, sys
# The cache row format, end to end. A row is cached on its query's second
# miss: of the script's queries 0, 1, 2 (x3) and 3 (x4) only 2 and 3
# repeat, so 2 rows are cached, each as 200 one-byte offsets (the
# 200-profile database is one block), its 5-B block header and 4 query
# words.
doc = json.load(open(sys.argv[1]))
got = doc["gauges"]["svc.cache.bytes"]
assert got == 2 * (200 + 5 + 4 * 8), f"svc.cache.bytes is {got}, want 474"
# Every copy after a query's first is admitted (a row cached again replaces
# its entry): 2 of query 2's copies and 3 of query 3's.
admitted = doc["counters"].get("svc.cache.admitted")
assert admitted == 5, f"svc.cache.admitted is {admitted}, want 5"
print(f"cache bytes ok: {got}; rows admitted: {admitted}")
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

echo "== strict-input and checked-write smoke =="
# A deeply nested JSON document is a runtime error (exit 2), not a stack
# overflow; a write that fails when the last buffer is flushed exits 2
# instead of reporting success (docs/cli.md); and the annotated script
# example of docs/service.md, comments and all, runs as written.
python3 -c 'print("[" * 100000 + "]" * 100000)' > "$smoke/deep.json"
set +e
./build/tools/snpcmp report --trace "$smoke/deep.json" \
  --metrics "$smoke/cost_m.json" > /dev/null 2>&1
rc=$?
set -e
[[ $rc -eq 2 ]] || { echo "report on deeply nested JSON exited $rc, want 2"; exit 1; }
if [[ -e /dev/full ]]; then
  set +e
  ./build/tools/snpcmp kernel-src --out /dev/full > /dev/null 2>&1
  rc=$?
  set -e
  [[ $rc -eq 2 ]] || { echo "kernel-src --out /dev/full exited $rc, want 2"; exit 1; }
fi
awk '/^Script grammar/ { grab = 1; next }
     grab && /^```/ { if (inside) exit; inside = 1; next }
     inside' docs/service.md > "$smoke/annotated.jsonl"
./build/tools/snpcmp gendb --out "$smoke/q6.sbm" --profiles 6 --snps 256 \
  --seed 4 > /dev/null
./build/tools/snpcmp gendb --out "$smoke/db2.sbm" --profiles 200 --snps 256 \
  --seed 5 > /dev/null
snpcmp_bin="$PWD/build/tools/snpcmp"
(cd "$smoke" && "$snpcmp_bin" serve --db db.sbm --queries q6.sbm \
  --script annotated.jsonl > annotated.out) || {
  echo "docs/service.md's annotated script failed"; exit 1; }
grep -q 'service:     requests=8 ' "$smoke/annotated.out" || {
  echo "annotated script report wrong:"; cat "$smoke/annotated.out"; exit 1; }
echo "strict-input smoke ok: deep JSON and a full disk exit 2," \
  "the annotated script runs"

echo "== bench_compare self-test (regression-gate fixtures) =="
tools/bench_compare --self-test

echo "== benchmark regression smoke (mini aggregate vs itself) =="
# Fast subset with tiny workloads; a self-comparison must be clean, and
# the aggregate must carry the env header and per-row CI columns.
SNP_BENCH_MAX_REPS=8 SNP_BENCH_BUDGET_S=0.2 \
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

echo "== TSan build + exec/pipeline/engine/obs/fault/service tests =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs" \
  --target test_exec test_chunk_pipeline test_streaming \
           test_cpu_engine test_gpu_kernel test_ld_stats test_sparse \
           test_formats test_format_fuzz test_context \
           test_obs test_fault_injection test_multi_gpu test_service \
           test_chaos test_flight test_tracing
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_exec
# Each chunk's execute stage spreads its tiles over the host pool, whose
# threads write disjoint parts of one result matrix; the engine's tile
# loop also runs here on a 3-worker pool.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_chunk_pipeline
# The FastID folds run on the calling thread while each chunk's kernel
# spreads its tiles over the pool.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_streaming
# The engine's tiles, r2_matrix's tile rows and the sparse engines' rows
# run on the host pool (hardware_threads() - 1 workers); a
# self-comparison's mirrored adds cross macro-tile boundaries, and the
# GPU kernel's execute reaches the same engine.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_cpu_engine
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_gpu_kernel
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_ld_stats
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_sparse
# A .sbm path load reads its payload in row-aligned slices on the host
# pool, each slice checking its own rows' padding.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_formats
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_format_fuzz
# Concurrent launches on one context share its pre-launch lint verdicts.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_context
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_obs
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_fault_injection
# A lost shard's host fallback runs the host chunk loop, whose engine
# tiles run on the host pool.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_multi_gpu
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_service
TSAN_OPTIONS=halt_on_error=1 timeout 600 ./build-tsan/tests/test_service \
  --gtest_filter="$teardown_test" --gtest_repeat=50 --gtest_brief=1
# The chaos feature matrix (deadlines x breaker x retry budget under
# injected faults) and the blocked-submitter teardown race are the
# PR-10 concurrency surface.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_chaos
# The flight-recorder seqlock soak (concurrent writers + dumper) and the
# trace-context propagation suite are the PR-7 concurrency surface.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_flight
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_tracing

echo "== telemetry-off build (SNPCMP_OBS=OFF) + tier-1 tests =="
# Every SNP_OBS_* call site compiles to a no-op here, while the service
# still records each completion in its SLO monitor (its one latency
# record); tests that need telemetry skip themselves.
cmake -S . -B build-noobs -DCMAKE_BUILD_TYPE=Release -DSNPCMP_OBS=OFF \
  -DSNP_WERROR=ON >/dev/null
cmake --build build-noobs -j "$jobs"
ctest --test-dir build-noobs -L tier1 --output-on-failure -j "$jobs"

portable_stage

echo "== all checks passed =="
