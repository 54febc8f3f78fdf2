#!/usr/bin/env bash
# Runs the figure/ablation benches with --json and aggregates the results
# into one dated document, BENCH_<date>.json, at the repo root (or $1).
#
#   tools/run_bench.sh [output.json] [build-dir]
#
# Build-dir defaults to build/ (the default CMake preset). Benches that
# have not been built are skipped with a note; the aggregate maps bench
# name -> its {"bench": ..., "rows": [...]} document plus a run header.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-${repo_root}/BENCH_$(date +%Y%m%d).json}"
build_dir="${2:-${repo_root}/build}"
bench_dir="${build_dir}/bench"

benches=(
  fig5_ld_kernel
  fig6_ld_end2end
  fig7_scalability
  fig8_fastid
  fig9_andnot
  table1_hwparams
  abl_autotune
  abl_bank_conflicts
  abl_chunk_size
  abl_config_sweep
  abl_double_buffer
  abl_dram_contention
  abl_multigpu
  abl_obs_overhead
  abl_occupancy
  abl_roofline
  abl_service
  abl_sparse_crossover
)

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

ran=()
for b in "${benches[@]}"; do
  bin="${bench_dir}/${b}"
  if [[ ! -x "${bin}" ]]; then
    echo "skip ${b}: not built (${bin})" >&2
    continue
  fi
  echo "running ${b} ..." >&2
  "${bin}" --json "${tmp}/${b}.json" > "${tmp}/${b}.txt"
  ran+=("${b}")
done

if [[ ${#ran[@]} -eq 0 ]]; then
  echo "error: no benches found under ${bench_dir}; build first" >&2
  exit 1
fi

# Environment fingerprint for the run header, so a regression flagged by
# tools/bench_compare can be told apart from a host/compiler change.
snpcmp="${build_dir}/tools/snpcmp"
if [[ -x "${snpcmp}" ]]; then
  "${snpcmp}" env --format json > "${tmp}/env.json"
else
  echo '{}' > "${tmp}/env.json"
fi

python3 - "${out}" "${tmp}" "${ran[@]}" <<'EOF'
import datetime
import json
import sys

out, tmp, names = sys.argv[1], sys.argv[2], sys.argv[3:]
with open(f"{tmp}/env.json") as f:
    env = json.load(f)
doc = {
    "date": datetime.date.today().isoformat(),
    "env": env,
    "benches": {},
}
for name in names:
    with open(f"{tmp}/{name}.json") as f:
        doc["benches"][name] = json.load(f)
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
rows = sum(len(b["rows"]) for b in doc["benches"].values())
print(f"wrote {out}: {len(names)} benches, {rows} rows")
EOF
