// Ablation for §4.1 / Figure 3: 2-D projection allocation vs contiguous
// allocation under redistribution-style re-extents.
//
// The workload mimics what redistribution does to a node's local block: the
// held row window repeatedly grows and shifts.  The projection scheme only
// touches rows that change hands; the contiguous scheme reallocates and
// copies the whole surviving block every time (the shaded cells of
// Figure 3).  Reported counters: bytes copied by the allocator per
// re-extent.
#include <benchmark/benchmark.h>

#include "bench/contiguous_dense_array.hpp"
#include "dynmpi/dense_array.hpp"

namespace dynmpi {
namespace {

constexpr int kRows = 512;
constexpr int kRowElems = 1024; // 8 KB rows
constexpr int kWindow = 128;

template <typename ArrayT>
void shifting_window(benchmark::State& state) {
    ArrayT a("A", kRows, kRowElems, sizeof(double));
    a.ensure_rows(RowSet(0, kWindow));
    int lo = 0;
    for (auto _ : state) {
        int next_lo = (lo + 16) % (kRows - kWindow);
        RowSet next(next_lo, next_lo + kWindow);
        a.retain_only(next);
        a.ensure_rows(next);
        benchmark::DoNotOptimize(a.held().count());
        lo = next_lo;
    }
    state.counters["bytes_copied_per_iter"] = benchmark::Counter(
        static_cast<double>(a.stats().bytes_copied),
        benchmark::Counter::kAvgIterations);
    state.counters["rows_allocated_per_iter"] = benchmark::Counter(
        static_cast<double>(a.stats().rows_allocated),
        benchmark::Counter::kAvgIterations);
}

void BM_Projection_ShiftingWindow(benchmark::State& state) {
    shifting_window<DenseArray>(state);
}
BENCHMARK(BM_Projection_ShiftingWindow);

void BM_Contiguous_ShiftingWindow(benchmark::State& state) {
    shifting_window<ContiguousDenseArray>(state);
}
BENCHMARK(BM_Contiguous_ShiftingWindow);

template <typename ArrayT>
void grow_then_shrink(benchmark::State& state) {
    for (auto _ : state) {
        ArrayT a("A", kRows, kRowElems, sizeof(double));
        for (int hi = 64; hi <= kRows; hi += 64) a.ensure_rows(RowSet(0, hi));
        for (int hi = kRows; hi >= 64; hi -= 64)
            a.retain_only(RowSet(0, hi));
        benchmark::DoNotOptimize(a.stats().bytes_copied);
        state.counters["bytes_copied"] = static_cast<double>(
            a.stats().bytes_copied);
    }
}

void BM_Projection_GrowShrink(benchmark::State& state) {
    grow_then_shrink<DenseArray>(state);
}
BENCHMARK(BM_Projection_GrowShrink);

void BM_Contiguous_GrowShrink(benchmark::State& state) {
    grow_then_shrink<ContiguousDenseArray>(state);
}
BENCHMARK(BM_Contiguous_GrowShrink);

/// Receiving a block of rows from a peer: unpack into existing storage.
template <typename ArrayT>
void unpack_block(benchmark::State& state) {
    ArrayT src("S", kRows, kRowElems, sizeof(double));
    src.ensure_rows(RowSet(0, kWindow));
    auto packed = src.pack_rows(RowSet(0, kWindow));
    ArrayT dst("D", kRows, kRowElems, sizeof(double));
    for (auto _ : state) {
        dst.unpack_rows(packed);
        benchmark::DoNotOptimize(dst.held().count());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(packed.size()));
}

void BM_Projection_Unpack(benchmark::State& state) {
    unpack_block<DenseArray>(state);
}
BENCHMARK(BM_Projection_Unpack);

void BM_Contiguous_Unpack(benchmark::State& state) {
    unpack_block<ContiguousDenseArray>(state);
}
BENCHMARK(BM_Contiguous_Unpack);

}  // namespace
}  // namespace dynmpi

BENCHMARK_MAIN();
