// Micro-benchmarks for redistribution planning: the pure functions executed
// by every node at each adaptation.  Advisory wall-clock numbers only; the
// planner's gate is the exact allocation count in
// tests/dynmpi/redist_plan_cost_test.cpp.
#include <benchmark/benchmark.h>

#include <numeric>

#include "dynmpi/redistributor.hpp"
#include "support/rng.hpp"

namespace dynmpi {
namespace {

std::vector<Drsd> halo(const std::string& name) {
    return {
        Drsd{name, AccessMode::Write, 0, 1, 0},
        Drsd{name, AccessMode::Read, 0, 1, -1},
        Drsd{name, AccessMode::Read, 0, 1, +1},
    };
}

void BM_NeededRows_WithGhosts(benchmark::State& state) {
    const int rows = 16384;
    std::vector<int> members{0, 1, 2, 3, 4, 5, 6, 7};
    msg::Group g(members);
    auto d = Distribution::even_block(0, rows, 8);
    auto acc = halo("A");
    for (auto _ : state) {
        for (int w = 0; w < 8; ++w)
            benchmark::DoNotOptimize(needed_rows(g, d, w, acc, rows).count());
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_NeededRows_WithGhosts);

void BM_CyclicToBlockPlan(benchmark::State& state) {
    // The worst case for RowSet machinery: cyclic ownership makes every
    // transfer set highly fragmented.
    const int rows = 2048;
    std::vector<int> members{0, 1, 2, 3};
    msg::Group g(members);
    auto oldd = Distribution::cyclic(0, rows, 4);
    auto newd = Distribution::even_block(0, rows, 4);
    RedistContext ctx{rows, &g, &oldd, &g, &newd};
    std::vector<ArrayInfo> arrays(1);
    arrays[0].accesses = {Drsd{"A", AccessMode::Write, 0, 1, 0}};
    for (auto _ : state) {
        int total = 0;
        for (int me = 0; me < 4; ++me) {
            const RedistPlan plan = build_redist_plan(ctx, arrays, me);
            for (const RowSet& s : plan.per_array[0].send_to)
                total += s.count();
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_CyclicToBlockPlan);

void BM_RowSetBuild(benchmark::State& state) {
    // One party's share of Distribution::cyclic(0, 14000, 8, 4): 438
    // disjoint 4-row intervals, appended in ascending (arg 0) or shuffled
    // (arg 1) order.  Advisory: wall-clock only, no gate reads it.
    std::vector<RowInterval> ivs;
    for (int base = 0; base < 14000; base += 32)
        ivs.push_back({base, std::min(base + 4, 14000)});
    if (state.range(0) == 1) {
        Rng rng(438);
        for (std::size_t i = ivs.size() - 1; i > 0; --i)
            std::swap(ivs[i], ivs[rng.next_below(i + 1)]);
    }
    for (auto _ : state) {
        RowSet s;
        for (const RowInterval& iv : ivs) s.add(iv.lo, iv.hi);
        benchmark::DoNotOptimize(s.intervals().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(ivs.size()));
}
BENCHMARK(BM_RowSetBuild)->Arg(0)->Arg(1);

void BM_RedistSchedule_PlanOnce(benchmark::State& state) {
    // One rank's complete schedule (send sets, receive sets, and the cleanup
    // target) for a many-party, four-array adaptation: the mid-grid rank of
    // an even block layout that moves rows/(4·nodes) rows from the first
    // node to the last.  tests/dynmpi/redist_plan_cost_test.cpp pins this
    // shape's exact allocation count.
    const int nodes = static_cast<int>(state.range(0));
    const int rows = 4096;
    std::vector<int> members(static_cast<size_t>(nodes));
    std::iota(members.begin(), members.end(), 0);
    msg::Group g(members);
    auto oldd = Distribution::even_block(0, rows, nodes);
    std::vector<int> counts(static_cast<size_t>(nodes), rows / nodes);
    counts.front() -= rows / (4 * nodes);
    counts.back() += rows / (4 * nodes);
    auto newd = Distribution::block(0, rows, counts);
    RedistContext ctx{rows, &g, &oldd, &g, &newd};
    std::vector<ArrayInfo> arrays(4);
    for (std::size_t k = 0; k < arrays.size(); ++k)
        arrays[k].accesses = halo(std::string(1, static_cast<char>('A' + k)));

    for (auto _ : state) {
        RedistPlan plan = build_redist_plan(ctx, arrays, nodes / 2);
        int total = 0;
        for (const auto& ap : plan.per_array) {
            for (const auto& s : ap.send_to) total += s.count();
            for (const auto& r : ap.recv_from) total += r.count();
            total += ap.my_needed.count();
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() * nodes *
                            static_cast<std::int64_t>(arrays.size()));
}
BENCHMARK(BM_RedistSchedule_PlanOnce)->Arg(16)->Arg(64);

}  // namespace
}  // namespace dynmpi

BENCHMARK_MAIN();
