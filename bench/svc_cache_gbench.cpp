// google-benchmark rows for the service's result-cache row format: a
// FastID gamma row encoded into an svc::PackedRow (what a cache miss
// stores) and decoded back into a QueryResult row (what a hit returns),
// beside the 16-bit narrowing and widening copies the cache made before,
// at 16,384 and 65,536 database profiles x 1,024 SNPs. Every row is
// single-threaded and, like the service, builds a fresh row each
// iteration.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <vector>

#include "bits/compare.hpp"
#include "io/datagen.hpp"
#include "svc/packed_row.hpp"

namespace {

/// The gamma row of a planted FastID query, a database row with two SNPs
/// flipped, against `profiles` generated profiles x 1,024 SNPs under XOR.
/// Built once per size.
const std::vector<std::uint32_t>& fastid_row(std::size_t profiles) {
  static std::map<std::size_t, std::vector<std::uint32_t>> rows;
  auto& row = rows[profiles];
  if (row.empty()) {
    const auto db = snp::io::generate_profile_db(profiles, 1024,
                                                 snp::io::ProfileDbParams{});
    const std::size_t src = profiles / 3;
    auto query = db.row_slice(src, src + 1);
    for (const std::size_t bit : {17UL, 600UL}) {
      query.set(0, bit, !query.get(0, bit));
    }
    const auto gamma =
        snp::bits::compare_reference(query, db, snp::bits::Comparison::kXor);
    row.assign(gamma.raw().begin(), gamma.raw().end());
  }
  return row;
}

/// Counts per second, and the bytes one row takes in the row's format.
void count_rows(benchmark::State& state, std::size_t row_bytes) {
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["row_bytes"] = static_cast<double>(row_bytes);
}

void BM_PackedRowEncode(benchmark::State& state) {
  const auto& row = fastid_row(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const snp::svc::PackedRow packed(row);
    benchmark::DoNotOptimize(&packed);
    benchmark::ClobberMemory();
  }
  count_rows(state, snp::svc::PackedRow(row).size_bytes());
}

void BM_PackedRowDecode(benchmark::State& state) {
  const auto& row = fastid_row(static_cast<std::size_t>(state.range(0)));
  const snp::svc::PackedRow packed(row);
  for (auto _ : state) {
    std::vector<std::uint32_t> out;
    packed.decode(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  count_rows(state, packed.size_bytes());
}

void BM_Row16Narrow(benchmark::State& state) {
  // Reference: the 16-bit copy a miss stored before the packed rows.
  const auto& row = fastid_row(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const std::vector<std::uint16_t> narrow(row.begin(), row.end());
    benchmark::DoNotOptimize(narrow.data());
    benchmark::ClobberMemory();
  }
  count_rows(state, row.size() * sizeof(std::uint16_t));
}

void BM_Row16Widen(benchmark::State& state) {
  // Reference: the widening copy a hit made from a 16-bit row.
  const auto& row = fastid_row(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::uint16_t> narrow(row.begin(), row.end());
  for (auto _ : state) {
    std::vector<std::uint32_t> out;
    out.assign(narrow.begin(), narrow.end());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  count_rows(state, narrow.size() * sizeof(std::uint16_t));
}

BENCHMARK(BM_PackedRowEncode)->Arg(16384)->Arg(65536);
BENCHMARK(BM_Row16Narrow)->Arg(16384)->Arg(65536);
BENCHMARK(BM_PackedRowDecode)->Arg(16384)->Arg(65536);
BENCHMARK(BM_Row16Widen)->Arg(16384)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
