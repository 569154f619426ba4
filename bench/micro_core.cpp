// Micro-benchmarks for the substrate hot paths: event queue, CPU model,
// rank fiber switches, row-set algebra, and sparse pack/unpack.
#include <benchmark/benchmark.h>

#include "dynmpi/row_set.hpp"
#include "dynmpi/sparse_matrix.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/rank.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

void BM_EventQueue_ScheduleFire(benchmark::State& state) {
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Engine e;
        for (int i = 0; i < batch; ++i)
            e.at(i, [] {});
        e.run();
        benchmark::DoNotOptimize(e.events_fired());
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueue_ScheduleFire)->Arg(1000)->Arg(10000);

void BM_Cpu_BatchWithLoadChanges(benchmark::State& state) {
    for (auto _ : state) {
        sim::Engine e;
        sim::Cpu cpu(e, 0, sim::CpuParams{}, 1);
        cpu.start_batch(10.0, [] {});
        for (int i = 1; i <= 20; ++i)
            e.at(sim::from_seconds(0.1 * i),
                 [&cpu, i] { cpu.set_runnable_competitors(i % 3); });
        e.run();
        benchmark::DoNotOptimize(cpu.app_cpu_seconds());
    }
}
BENCHMARK(BM_Cpu_BatchWithLoadChanges);

void BM_Cpu_ReconstructRows(benchmark::State& state) {
    const int rows = static_cast<int>(state.range(0));
    sim::Engine e;
    sim::Cpu cpu(e, 0, sim::CpuParams{}, 1);
    cpu.set_runnable_competitors(1);
    std::vector<double> costs(static_cast<size_t>(rows), 1e-4);
    cpu.start_batch(rows * 1e-4, [] {});
    e.run();
    for (auto _ : state) {
        auto rt = cpu.reconstruct_rows(costs, 0, 7);
        benchmark::DoNotOptimize(rt.wall.data());
    }
    state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_Cpu_ReconstructRows)->Arg(256)->Arg(2048);

/// Host cost of one Rank::sleep yield on an N-rank machine: the switch from
/// the rank to the engine, the wake event, and the switch back.  Advisory
/// wall time (so a handoff between threads would count its wake-up latency
/// too); the `per_yield` counter is the figure in docs/PERF.md.
void BM_Baton_Yield(benchmark::State& state) {
    const int nodes = static_cast<int>(state.range(0));
    const int per_rank = 4096 / nodes;
    std::int64_t yields = 0;
    for (auto _ : state) {
        sim::ClusterConfig c;
        c.num_nodes = nodes;
        msg::Machine m(c);
        m.run([&](msg::Rank& r) {
            for (int k = 0; k < per_rank; ++k) r.sleep(1e-3);
        });
        benchmark::DoNotOptimize(m.elapsed_seconds());
        yields += static_cast<std::int64_t>(per_rank) * nodes;
    }
    // An inverted rate counter: seconds per yield.
    state.counters["per_yield"] = benchmark::Counter(
        static_cast<double>(yields),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Baton_Yield)->Arg(2)->Arg(8)->Arg(32)->UseRealTime();

void BM_RowSet_Algebra(benchmark::State& state) {
    Rng rng(5);
    std::vector<RowSet> sets;
    for (int i = 0; i < 64; ++i) {
        RowSet s;
        for (int k = 0; k < 8; ++k) {
            int lo = static_cast<int>(rng.next_below(10000));
            s.add(lo, lo + static_cast<int>(rng.next_below(300)));
        }
        sets.push_back(std::move(s));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const RowSet& a = sets[i % sets.size()];
        const RowSet& b = sets[(i + 17) % sets.size()];
        benchmark::DoNotOptimize(a.intersect(b).count());
        benchmark::DoNotOptimize(a.subtract(b).count());
        benchmark::DoNotOptimize(a.unite(b).count());
        ++i;
    }
}
BENCHMARK(BM_RowSet_Algebra);

void BM_Sparse_PackUnpack(benchmark::State& state) {
    const int rows = static_cast<int>(state.range(0));
    SparseMatrix src("S", rows, 4096);
    src.ensure_rows(RowSet(0, rows));
    Rng rng(3);
    for (int r = 0; r < rows; ++r)
        for (int k = 0; k < 16; ++k)
            src.set(r, static_cast<int>(rng.next_below(4096)),
                    rng.next_double());
    SparseMatrix dst("D", rows, 4096);
    std::int64_t bytes = 0;
    for (auto _ : state) {
        auto packed = src.pack_rows(src.held());
        bytes += static_cast<std::int64_t>(packed.size());
        dst.unpack_rows(packed);
        benchmark::DoNotOptimize(dst.nnz());
    }
    state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_Sparse_PackUnpack)->Arg(64)->Arg(512);

void BM_Sparse_CursorTraversal(benchmark::State& state) {
    SparseMatrix m("S", 256, 1024);
    m.ensure_rows(RowSet(0, 256));
    Rng rng(9);
    for (int r = 0; r < 256; ++r)
        for (int k = 0; k < 12; ++k)
            m.set(r, static_cast<int>(rng.next_below(1024)),
                  rng.next_double());
    for (auto _ : state) {
        double sum = 0;
        for (auto c = m.cursor(); !c.at_end();) sum += c.next().value;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_Sparse_CursorTraversal);

}  // namespace
}  // namespace dynmpi

BENCHMARK_MAIN();
