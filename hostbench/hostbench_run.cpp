// hostbench_run: one repetition of one host-time workload.
//
//   hostbench_run --workload NAME --seed N [--trace FILE] [--probes]
//
// Builds the simulated cluster, scripts its load through the app cycle hook
// and Cluster::spawn_competing / install_faults, runs the public apps::run_*
// entry point on every rank, and prints one JSON object of raw host-time
// measurements, exact work counters and correctness facts on stdout.  The
// Python front end (run.py) repeats it, checks it and aggregates it.
//
// setup_s, run_s and cycle_ms are process CPU time (all threads, user +
// system) over their windows; wall_setup_s and wall_run_s are the same
// windows in wall time.  The baton lets one thread run at a time and run.py
// keeps the process on one CPU, so the two agree unless another process
// shares that CPU, which inflates only the wall figures.
//
// --trace FILE  also records spans around Machine::run, every rank's
//               apps::run_* call, each rank-0 cycle and the probes, and
//               writes them to FILE as a Chrome trace.  The program's own
//               deterministic trace (support/trace.hpp) stays disabled.
// --probes      after the timed run, time build_redist_plan on the run's own
//               transition and Rank::sleep yields on 2/8/32-rank machines.
//
// After the timed run it also times two benchmark-owned calibration kernels
// (see "Host-speed calibration" below), which run.py uses to scale the
// run's times to the reference host speed.
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cg.hpp"
#include "apps/jacobi.hpp"
#include "apps/sor.hpp"
#include "dynmpi/redistributor.hpp"
#include "mpisim/rank.hpp"
#include "sim/fault_plan.hpp"

namespace dynmpi::hostbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double seconds_of(const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
}

/// CPU clock of the calling thread, readable from any thread.
clockid_t own_cpu_clock() {
    clockid_t id{};
    if (pthread_getcpuclockid(pthread_self(), &id) != 0)
        throw std::runtime_error("pthread_getcpuclockid failed");
    return id;
}

/// CPU seconds (user + system) consumed so far by the thread of `clock`.
double cpu_s(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Usage {
    double sys_s = 0.0;
    long ctx_switches = 0;
    long max_rss_kb = 0;
};

Usage process_usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.sys_s = seconds_of(ru.ru_stime);
    u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
    u.max_rss_kb = ru.ru_maxrss;
    return u;
}

// ---------------------------------------------------------------------------
// Spans (benchmark-side tracing)
// ---------------------------------------------------------------------------

struct Span {
    std::string name;
    std::string parent;
    int tid = 0; ///< 0 = engine (caller) thread, r + 1 = rank r
    Clock::time_point start;
    Clock::time_point end;
};

/// In-memory span log.  Rank threads append to their own slot; the baton
/// lets one thread run at a time and Machine::run joins them before the
/// slots are merged.
class Tracer {
public:
    Tracer(bool enabled, Clock::time_point origin)
        : enabled_(enabled), origin_(origin) {}

    bool enabled() const { return enabled_; }
    void set_ranks(int n) { per_rank_.resize(static_cast<std::size_t>(n)); }

    void add(Span s) {
        if (!enabled_) return;
        if (s.tid == 0)
            main_.push_back(std::move(s));
        else
            per_rank_[static_cast<std::size_t>(s.tid - 1)].push_back(
                std::move(s));
    }

    std::size_t records() const {
        std::size_t n = main_.size();
        for (const auto& v : per_rank_) n += v.size();
        return n;
    }

    bool write_chrome(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
        bool first = true;
        auto emit = [&](const Span& s) {
            out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
                << ",\"ts\":" << us_from_origin(s.start)
                << ",\"dur\":" << seconds_between(s.start, s.end) * 1e6
                << ",\"args\":{\"parent\":\"" << s.parent << "\"}}";
            first = false;
        };
        for (const auto& s : main_) emit(s);
        for (const auto& v : per_rank_)
            for (const auto& s : v) emit(s);
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

private:
    double us_from_origin(Clock::time_point t) const {
        return seconds_between(origin_, t) * 1e6;
    }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> main_;
    std::vector<std::vector<Span>> per_rank_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class App { Jacobi, Sor, Cg, CgRecoverable };

struct Workload {
    std::string name;
    App app = App::Jacobi;
    int nodes = 4;
    double cpu_speed = 1.0; ///< 1.0 Xeon, 0.65 Ultra-Sparc (bench_common)
    int rows = 0;
    int cycles = 0;
    int removed_node = -1; ///< node the scenario drops or crashes, if any
};

// Cycle counts are sized so one repetition takes a few host seconds at the
// seed commit while keeping each scenario's adaptation story intact.
const std::vector<Workload>& workloads() {
    static const std::vector<Workload> w = {
        {"jacobi4-cp-twice", App::Jacobi, 4, 1.0, 2048, 75, -1},
        {"sor32-drop", App::Sor, 32, 0.65, 1024, 150, 16},
        {"cg8-cyclic", App::Cg, 8, 1.0, 14000, 60, -1},
        {"cg8-crash-replica", App::CgRecoverable, 8, 1.0, 14000, 80, 5},
    };
    return w;
}

const Workload* find_workload(const std::string& name) {
    for (const auto& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

constexpr int kJacobiCpNode = 2;
constexpr int kSorCpNode = 16;
constexpr int kSorCps = 3;
constexpr int kSorCpCycle = 5;
constexpr int kCgCpNode = 4;
constexpr int kCgCpCycle = 10;
constexpr int kCgCyclicBlock = 4;
constexpr const char* kCrashScript = "crash node=5 t=8.0\n";

sim::ClusterConfig cluster_for(const Workload& w, std::uint64_t seed) {
    sim::ClusterConfig c;
    c.num_nodes = w.nodes;
    c.seed = seed;
    c.cpu.speed = w.cpu_speed;
    return c;
}

apps::CgConfig cg_config(const Workload& w, std::uint64_t seed) {
    apps::CgConfig c;
    c.n = w.rows;
    c.cycles = w.cycles;
    c.sec_per_nnz = 2.0e-5;
    c.seed = seed;
    if (w.app == App::Cg) {
        c.runtime.initial_dist = Distribution::Kind::Cyclic;
        c.runtime.cyclic_block_size = kCgCyclicBlock;
        c.runtime.enable_removal = false;
    } else {
        c.runtime.replicate = true;
    }
    return c;
}

/// The arrays' access descriptors as each app registers them, for the
/// redistribution-plan probe.
std::vector<ArrayInfo> app_arrays(const Workload& w) {
    std::vector<ArrayInfo> arrays;
    auto add = [&](std::vector<Drsd> acc) {
        ArrayInfo info;
        info.accesses = std::move(acc);
        arrays.push_back(std::move(info));
    };
    auto stencil = [](const std::string& name, int phase) {
        return std::vector<Drsd>{{name, AccessMode::Write, phase, 1, 0},
                                 {name, AccessMode::Read, phase, 1, -1},
                                 {name, AccessMode::Read, phase, 1, +1}};
    };
    switch (w.app) {
    case App::Jacobi:
        for (const char* name : {"A", "B"}) add(stencil(name, 0));
        break;
    case App::Sor: {
        auto acc = stencil("U", 0);
        for (const Drsd& d : stencil("U", 1)) acc.push_back(d);
        add(acc);
        break;
    }
    case App::Cg:
    case App::CgRecoverable:
        for (const char* name : {"A", "x", "r", "p", "q"})
            add({{name, AccessMode::Write, 0, 1, 0}});
        break;
    }
    return arrays;
}

Distribution initial_distribution(const Workload& w) {
    if (w.app == App::Cg)
        return Distribution::cyclic(0, w.rows, w.nodes, kCgCyclicBlock);
    return Distribution::even_block(0, w.rows, w.nodes);
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct RankOutcome {
    bool returned = false;
    clockid_t clock{};            ///< the rank thread's CPU clock
    bool clock_set = false;
    double cpu_at_cycle0 = 0.0;   ///< its CPU seconds at rank 0's cycle-0 hook
    double cpu_s = 0.0; ///< CPU (user + system) from the cycle-0 hook to return
    apps::AppResult result;
    std::vector<double> residuals; ///< CG only
    bool matrix_intact = true;     ///< recoverable CG only
    int redo_cycles = 0;
};

struct RunOutcome {
    double setup_s = 0.0; ///< process CPU seconds
    double run_s = 0.0;   ///< process CPU seconds
    double wall_setup_s = 0.0;
    double wall_run_s = 0.0;
    std::vector<Clock::time_point> hooks; ///< rank-0 cycle hooks
    std::vector<double> hook_cpu_s;       ///< process CPU at each hook
    Clock::time_point run_end;
    double engine_cpu_s = 0.0; ///< from the cycle-0 hook to run's return
    Usage usage_delta;         ///< from the cycle-0 hook to run's return
    std::uint64_t events = 0;
    std::size_t peak_pending = 0;
    msg::Machine::TrafficStats traffic;
    double virtual_s = 0.0;
    std::vector<RankOutcome> ranks;
};

/// Publishes the rank thread's CPU clock for the cycle-0 snapshot, and on
/// scope exit closes its CPU account and apps::run_* span, so a rank
/// unwinding from its own node's crash is still counted.
class RankScope {
public:
    RankScope(Tracer& tracer, RankOutcome& out, int rank, const char* name)
        : tracer_(tracer), out_(out), rank_(rank), name_(name),
          t0_(Clock::now()) {
        out_.clock = own_cpu_clock();
        out_.clock_set = true;
    }
    ~RankScope() {
        out_.cpu_s = cpu_s(out_.clock) - out_.cpu_at_cycle0;
        tracer_.add({name_, "Machine::run", rank_ + 1, t0_, Clock::now()});
    }
    RankScope(const RankScope&) = delete;
    RankScope& operator=(const RankScope&) = delete;

private:
    Tracer& tracer_;
    RankOutcome& out_;
    int rank_;
    const char* name_;
    Clock::time_point t0_;
};

RunOutcome run_workload(const Workload& w, std::uint64_t seed,
                        Tracer& tracer) {
    RunOutcome out;
    out.ranks.resize(static_cast<std::size_t>(w.nodes));
    tracer.set_ranks(w.nodes);

    const Clock::time_point t0 = Clock::now();
    const double cpu_t0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    msg::Machine m(cluster_for(w, seed));

    // CPU and usage snapshot at the cycle-0 hook, so that every CPU figure
    // covers the same window as run_s.  Every rank has entered apps::run_*
    // by then: set-up ends in collectives over all ranks.  The baton's
    // handoffs order these reads after each RankScope's writes.
    const clockid_t engine_clock = own_cpu_clock();
    double engine_cpu0 = 0.0;
    Usage u0;
    auto snapshot_cpu = [&] {
        for (RankOutcome& ro : out.ranks) {
            if (!ro.clock_set)
                throw std::runtime_error("a rank had not started by cycle 0");
            ro.cpu_at_cycle0 = cpu_s(ro.clock);
        }
        engine_cpu0 = cpu_s(engine_clock);
        u0 = process_usage();
    };

    // Load script, fired on rank 0 at the top of every cycle.
    std::vector<int> pids;
    apps::CycleHook hook = [&](msg::Rank&, int cycle) {
        if (out.hooks.empty()) snapshot_cpu();
        out.hooks.push_back(Clock::now());
        out.hook_cpu_s.push_back(cpu_s(CLOCK_PROCESS_CPUTIME_ID));
        switch (w.app) {
        case App::Jacobi: {
            const int period = w.cycles / 3;
            if (cycle == period)
                pids.push_back(m.cluster().spawn_competing(kJacobiCpNode));
            if (cycle == 2 * period) {
                for (int pid : pids)
                    m.cluster().kill_competing(kJacobiCpNode, pid);
                pids.clear();
            }
            break;
        }
        case App::Sor:
            if (cycle == kSorCpCycle)
                for (int i = 0; i < kSorCps; ++i)
                    m.cluster().spawn_competing(kSorCpNode);
            break;
        case App::Cg:
            if (cycle == kCgCpCycle) m.cluster().spawn_competing(kCgCpNode);
            break;
        case App::CgRecoverable:
            break;
        }
    };
    if (w.app == App::CgRecoverable)
        m.cluster().install_faults(sim::FaultPlan::parse(kCrashScript));

    const Clock::time_point run0 = Clock::now();
    m.run([&](msg::Rank& r) {
        RankOutcome& ro = out.ranks[static_cast<std::size_t>(r.id())];
        switch (w.app) {
        case App::Jacobi: {
            apps::JacobiConfig cfg;
            cfg.rows = w.rows;
            cfg.cols_stored = 2048;
            cfg.cols_math = 32;
            cfg.cycles = w.cycles;
            cfg.sec_per_row = 1.25e-4;
            cfg.runtime.enable_removal = false;
            cfg.on_cycle = hook;
            RankScope scope(tracer, ro, r.id(), "apps::run_jacobi");
            ro.result = apps::run_jacobi(r, cfg);
            break;
        }
        case App::Sor: {
            apps::SorConfig cfg;
            cfg.rows = w.rows;
            cfg.cols_stored = 1024;
            cfg.cols_math = 16;
            cfg.cycles = w.cycles;
            cfg.sec_per_row = 3.0e-4;
            cfg.runtime.enable_removal = true;
            cfg.runtime.force_drop_loaded = true;
            cfg.runtime.max_redistributions = 2;
            cfg.on_cycle = hook;
            RankScope scope(tracer, ro, r.id(), "apps::run_sor");
            ro.result = apps::run_sor(r, cfg);
            break;
        }
        case App::Cg: {
            apps::CgConfig cfg = cg_config(w, seed);
            cfg.on_cycle = hook;
            RankScope scope(tracer, ro, r.id(), "apps::run_cg");
            apps::CgResult res = apps::run_cg(r, cfg);
            ro.residuals = res.residual_history;
            ro.result = res;
            break;
        }
        case App::CgRecoverable: {
            apps::CgConfig cfg = cg_config(w, seed);
            cfg.on_cycle = hook;
            RankScope scope(tracer, ro, r.id(), "apps::run_cg_recoverable");
            apps::CgRecoverResult res = apps::run_cg_recoverable(r, cfg);
            ro.residuals = res.residual_history;
            ro.matrix_intact = res.matrix_intact;
            ro.redo_cycles = res.redo_cycles;
            ro.result = res;
            break;
        }
        }
        ro.returned = true;
    });
    out.run_end = Clock::now();
    const double cpu_end = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    out.engine_cpu_s = cpu_s(engine_clock) - engine_cpu0;
    const Usage u1 = process_usage();
    tracer.add({"Machine::run", "", 0, run0, out.run_end});

    if (out.hooks.empty()) throw std::runtime_error("no cycle hook fired");
    out.setup_s = out.hook_cpu_s.front() - cpu_t0;
    out.run_s = cpu_end - out.hook_cpu_s.front();
    out.wall_setup_s = seconds_between(t0, out.hooks.front());
    out.wall_run_s = seconds_between(out.hooks.front(), out.run_end);
    out.usage_delta.sys_s = u1.sys_s - u0.sys_s;
    out.usage_delta.ctx_switches = u1.ctx_switches - u0.ctx_switches;
    out.events = m.cluster().engine().events_fired();
    out.peak_pending = m.cluster().engine().peak_pending_events();
    out.traffic = m.traffic();
    out.virtual_s = m.elapsed_seconds();
    for (std::size_t c = 0; c + 1 < out.hooks.size(); ++c)
        tracer.add({"cycle " + std::to_string(c), "apps::run (rank 0)", 1,
                    out.hooks[c], out.hooks[c + 1]});
    return out;
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host µs to build every party's plan for the run's own transition: the
/// initial distribution over all nodes to the final block counts over the
/// final active set.  Median of repeated builds.
double plan_probe_us(const Workload& w, const std::vector<int>& final_counts,
                     int final_active, Tracer& tracer) {
    std::vector<int> world(static_cast<std::size_t>(w.nodes));
    for (int i = 0; i < w.nodes; ++i) world[static_cast<std::size_t>(i)] = i;
    std::vector<int> survivors;
    for (int i : world)
        if (final_active == w.nodes || i != w.removed_node)
            survivors.push_back(i);
    if (static_cast<int>(survivors.size()) != final_active ||
        final_counts.size() != survivors.size())
        throw std::runtime_error("final active set does not match scenario");

    const msg::Group old_active(world);
    const msg::Group new_active(survivors);
    const Distribution old_dist = initial_distribution(w);
    const Distribution new_dist = Distribution::block(0, w.rows, final_counts);
    const RedistContext ctx{w.rows, &old_active, &old_dist, &new_active,
                            &new_dist};
    const std::vector<ArrayInfo> arrays = app_arrays(w);

    std::vector<double> samples;
    std::size_t sink = 0;
    const Clock::time_point start = Clock::now();
    while (samples.size() < 5 ||
           (samples.size() < 200 && seconds_between(start, Clock::now()) < 0.5)) {
        const Clock::time_point t0 = Clock::now();
        for (int me : world) {
            RedistPlan plan = build_redist_plan(ctx, arrays, me);
            sink += plan.parties.size() + plan.per_array.size();
        }
        samples.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    tracer.add({"probe build_redist_plan", "", 0, start, Clock::now()});
    if (sink == 0) throw std::runtime_error("empty redistribution plans");
    return median(samples);
}

/// Host µs per Rank::sleep yield from a benchmark-owned SPMD loop.
double yield_probe_us(int nodes, std::uint64_t seed, Tracer& tracer) {
    const int total_yields = 16384;
    const int per_rank = total_yields / nodes;
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.seed = seed;
    msg::Machine m(c);
    const Clock::time_point t0 = Clock::now();
    m.run([&](msg::Rank& r) {
        for (int k = 0; k < per_rank; ++k) r.sleep(1e-3);
    });
    const Clock::time_point t1 = Clock::now();
    tracer.add({"probe Rank::sleep x" + std::to_string(nodes), "", 0, t0, t1});
    return seconds_between(t0, t1) * 1e6 / (per_rank * nodes);
}

// ---------------------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------------------
//
// The host is shared with other virtual machines, and its speed for this
// program changes by up to 2x within minutes, on every CPU at once.  Two
// fixed kernels of benchmark-owned code, run in each repetition's process
// right after the workload and on the same CPU, time the simulator's two
// kinds of work at the host's current speed.  Neither calls the library, so
// a change to the program cannot move them.

/// Process CPU seconds of Jacobi sweeps over a 2048 x 2048 grid: two 32 MB
/// arrays, the size of the jacobi4-cp-twice grid.
double stencil_kernel_s() {
    constexpr std::size_t n = 2048;
    std::vector<double> a(n * n, 1.0);
    std::vector<double> b(n * n, 0.0);
    for (std::size_t i = 0; i < a.size(); i += 97)
        a[i] = static_cast<double>(i % 13);
    const double t0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    for (int sweep = 0; sweep < 6; ++sweep) {
        for (std::size_t i = 1; i + 1 < n; ++i)
            for (std::size_t j = 1; j + 1 < n; ++j)
                b[i * n + j] = 0.25 * (a[(i - 1) * n + j] + a[(i + 1) * n + j] +
                                       a[i * n + j - 1] + a[i * n + j + 1]);
        std::swap(a, b);
    }
    const double t = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - t0;
    if (!(a[n + 1] >= 0.0)) throw std::runtime_error("stencil kernel diverged");
    return t;
}

/// Process CPU seconds of baton handoffs between an engine thread and eight
/// rank threads, each waiting on its own condition variable under one
/// mutex, as msg::Machine passes its baton.
double baton_kernel_s() {
    constexpr int kRanks = 8;
    constexpr int kHandoffs = 8000;
    std::mutex mu;
    std::condition_variable engine_cv;
    std::vector<std::condition_variable> rank_cv(kRanks);
    int active = -1; // -1 while the engine holds the baton
    bool done = false;
    const double t0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    std::vector<std::thread> threads;
    for (int r = 0; r < kRanks; ++r)
        threads.emplace_back([&, r] {
            std::unique_lock<std::mutex> lock(mu);
            for (;;) {
                rank_cv[static_cast<std::size_t>(r)].wait(
                    lock, [&] { return active == r || done; });
                if (done) return;
                active = -1;
                engine_cv.notify_one();
            }
        });
    {
        std::unique_lock<std::mutex> lock(mu);
        for (int k = 0; k < kHandoffs; ++k) {
            active = k % kRanks;
            rank_cv[static_cast<std::size_t>(active)].notify_one();
            engine_cv.wait(lock, [&] { return active == -1; });
        }
        done = true;
    }
    for (auto& cv : rank_cv) cv.notify_all();
    for (auto& t : threads) t.join();
    return cpu_s(CLOCK_PROCESS_CPUTIME_ID) - t0;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

template <typename T>
std::string list(const std::vector<T>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) s += ",";
        if constexpr (std::is_floating_point_v<T>)
            s += num(v[i]);
        else
            s += std::to_string(v[i]);
    }
    return s + "]";
}

int main_impl(int argc, char** argv) {
    std::string name;
    std::uint64_t seed = 1;
    std::string trace_path;
    bool probes = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            name = value();
        else if (a == "--seed")
            seed = std::stoull(value());
        else if (a == "--trace")
            trace_path = value();
        else if (a == "--probes")
            probes = true;
        else
            throw std::runtime_error("unknown argument " + a);
    }
    const Workload* w = find_workload(name);
    if (!w) throw std::runtime_error("unknown workload '" + name + "'");

    Tracer tracer(!trace_path.empty(), Clock::now());
    RunOutcome run = run_workload(*w, seed, tracer);
    const long rss_kb = process_usage().max_rss_kb;

    const RankOutcome& r0 = run.ranks.front();
    if (!r0.returned) throw std::runtime_error("rank 0 did not finish");
    const RuntimeStats& st = r0.result.stats;

    // Rank-0 cycle intervals (process CPU) joined with the runtime's
    // per-cycle records.
    std::vector<double> cycle_ms;
    for (std::size_t c = 0; c + 1 < run.hook_cpu_s.size(); ++c)
        cycle_ms.push_back((run.hook_cpu_s[c + 1] - run.hook_cpu_s[c]) * 1e3);
    std::vector<int> mode(cycle_ms.size(), 0);
    std::vector<int> redistributed(cycle_ms.size(), 0);
    for (const CycleRecord& rec : st.history) {
        if (rec.cycle < 0 || rec.cycle >= static_cast<int>(cycle_ms.size()))
            continue;
        mode[static_cast<std::size_t>(rec.cycle)] = rec.mode;
        if (rec.redistributed)
            redistributed[static_cast<std::size_t>(rec.cycle)] = 1;
    }

    double rank_cpu_s = 0.0;
    std::uint64_t rows_moved = 0, redist_bytes = 0, redist_messages = 0;
    std::uint64_t replica_bytes = 0;
    int restored_rows = 0;
    int ranks_returned = 0;
    bool matrix_intact = true;
    for (const RankOutcome& ro : run.ranks) {
        rank_cpu_s += ro.cpu_s;
        if (!ro.returned) continue;
        ++ranks_returned;
        const RuntimeStats& s = ro.result.stats;
        rows_moved += s.transfer.rows_moved;
        redist_bytes += s.transfer.bytes;
        redist_messages += s.transfer.messages;
        replica_bytes += s.replica_bytes;
        restored_rows += s.restored_rows;
        matrix_intact = matrix_intact && ro.matrix_intact;
    }

    std::size_t intervals = 0;
    const Distribution init = initial_distribution(*w);
    for (int rel = 0; rel < w->nodes; ++rel)
        intervals = std::max(intervals, init.iters_of(rel).intervals().size());

    // CG numerics against the single-process reference solver.
    double cg_max_rel_err = 0.0;
    bool cg_ok = true;
    if (w->app == App::Cg || w->app == App::CgRecoverable) {
        const std::vector<double> ref =
            apps::reference_cg_residuals(cg_config(*w, seed));
        cg_ok = ref.size() == r0.residuals.size();
        for (std::size_t i = 0; cg_ok && i < ref.size(); ++i) {
            const double err = std::fabs(r0.residuals[i] - ref[i]);
            cg_max_rel_err = std::max(cg_max_rel_err, err / std::fabs(ref[i]));
            if (!(err <= std::fabs(ref[i]) * 1e-8 + 1e-12)) cg_ok = false;
        }
    }

    const double stencil_s = stencil_kernel_s();
    const double baton_s = baton_kernel_s();

    double plan_us = 0.0;
    std::map<int, double> yield_us;
    if (probes) {
        plan_us = plan_probe_us(*w, r0.result.final_counts,
                                r0.result.final_active, tracer);
        for (int n : {2, 8, 32}) yield_us[n] = yield_probe_us(n, seed, tracer);
    }
    if (tracer.enabled() && !tracer.write_chrome(trace_path))
        throw std::runtime_error("cannot write trace " + trace_path);

    const auto& t = run.traffic;
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,", w->name.c_str(),
                static_cast<unsigned long long>(seed));
    std::printf("\"setup_s\":%s,\"run_s\":%s,\"wall_setup_s\":%s,"
                "\"wall_run_s\":%s,\"peak_rss_mb\":%s,",
                num(run.setup_s).c_str(), num(run.run_s).c_str(),
                num(run.wall_setup_s).c_str(), num(run.wall_run_s).c_str(),
                num(static_cast<double>(rss_kb) / 1024.0).c_str());
    std::printf("\"cycle_ms\":%s,\"cycle_redistributed\":%s,",
                list(cycle_ms).c_str(), list(redistributed).c_str());
    std::printf("\"rank_cpu_s\":%s,\"engine_cpu_s\":%s,"
                "\"sys_s\":%s,\"ctx_switches\":%ld,",
                num(rank_cpu_s).c_str(), num(run.engine_cpu_s).c_str(),
                num(run.usage_delta.sys_s).c_str(),
                run.usage_delta.ctx_switches);
    std::printf("\"exact\":{\"virtual_s\":%s,\"checksum\":%s,"
                "\"events\":%llu,\"peak_pending\":%zu,",
                num(run.virtual_s).c_str(), num(r0.result.checksum).c_str(),
                static_cast<unsigned long long>(run.events), run.peak_pending);
    std::printf("\"messages.user\":%llu,\"messages.coll\":%llu,"
                "\"messages.runtime\":%llu,\"messages.control\":%llu,",
                static_cast<unsigned long long>(t.messages[0]),
                static_cast<unsigned long long>(t.messages[1]),
                static_cast<unsigned long long>(t.messages[2]),
                static_cast<unsigned long long>(t.control_messages));
    std::printf("\"bytes.user\":%llu,\"bytes.coll\":%llu,"
                "\"bytes.runtime\":%llu,\"bytes.control\":%llu,",
                static_cast<unsigned long long>(t.bytes[0]),
                static_cast<unsigned long long>(t.bytes[1]),
                static_cast<unsigned long long>(t.bytes[2]),
                static_cast<unsigned long long>(t.control_bytes));
    std::printf("\"redistributions\":%d,\"rows_moved\":%llu,"
                "\"redist_bytes\":%llu,\"redist_messages\":%llu,",
                st.redistributions, static_cast<unsigned long long>(rows_moved),
                static_cast<unsigned long long>(redist_bytes),
                static_cast<unsigned long long>(redist_messages));
    std::printf("\"physical_drops\":%d,\"crash_repairs\":%d,"
                "\"replica_bytes\":%llu,\"restored_rows\":%d,",
                st.physical_drops, st.crash_repairs,
                static_cast<unsigned long long>(replica_bytes), restored_rows);
    std::printf("\"final_active\":%d,\"ranks_returned\":%d,"
                "\"intervals_per_rank\":%zu,\"cycle_modes\":%s},",
                r0.result.final_active, ranks_returned, intervals,
                list(mode).c_str());
    std::printf("\"final_counts\":%s,\"matrix_intact\":%s,\"redo_cycles\":%d,"
                "\"cg_residuals_ok\":%s,\"cg_max_rel_err\":%s,",
                list(r0.result.final_counts).c_str(),
                matrix_intact ? "true" : "false", r0.redo_cycles,
                cg_ok ? "true" : "false", num(cg_max_rel_err).c_str());
    std::printf("\"calib\":{\"stencil_s\":%s,\"baton_s\":%s},",
                num(stencil_s).c_str(), num(baton_s).c_str());
    std::printf("\"trace_records\":%zu,\"plan_us\":%s,\"yield_us\":{",
                tracer.records(), num(plan_us).c_str());
    bool first = true;
    for (const auto& [n, us] : yield_us) {
        std::printf("%s\"%d\":%s", first ? "" : ",", n, num(us).c_str());
        first = false;
    }
    std::printf("}}\n");
    return 0;
}

}  // namespace
}  // namespace dynmpi::hostbench

int main(int argc, char** argv) {
    try {
        return dynmpi::hostbench::main_impl(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hostbench_run: %s\n", e.what());
        return 1;
    }
}
