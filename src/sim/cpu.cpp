#include "sim/cpu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi::sim {

namespace {
// Completion events are scheduled with ceil rounding so the batch never fires
// before its work is done; any sub-nanosecond residue is clamped at finish.
SimTime ceil_ns(double seconds) {
    return static_cast<SimTime>(std::ceil(seconds * 1e9));
}
}  // namespace

Cpu::Cpu(Engine& engine, int node_id, CpuParams params, std::uint64_t seed)
    : engine_(engine), node_id_(node_id), params_(params), seed_(seed) {
    DYNMPI_REQUIRE(params_.speed > 0.0, "cpu speed must be positive");
}

void Cpu::advance_progress() {
    if (!busy_) {
        last_update_ = engine_.now();
        return;
    }
    double wall = to_seconds(engine_.now() - last_update_);
    double consumed = std::min(wall * share(), remaining_cpu_);
    remaining_cpu_ -= consumed;
    app_cpu_ += consumed;
    last_update_ = engine_.now();
}

void Cpu::schedule_completion() {
    if (completion_event_ != 0) engine_.cancel(completion_event_);
    double wall_left = remaining_cpu_ / share();
    completion_event_ =
        engine_.after(ceil_ns(wall_left), [this] { finish_batch(); });
}

void Cpu::set_runnable_competitors(int n) {
    DYNMPI_REQUIRE(n >= 0, "negative competitor count");
    if (n == competitors_) return;
    advance_progress();
    competitors_ = n;
    timeline_.push_back(Segment{engine_.now(), n});
    if (busy_) schedule_completion();
}

void Cpu::set_speed(double speed) {
    DYNMPI_REQUIRE(speed > 0.0, "cpu speed must be positive");
    if (speed == params_.speed) return;
    advance_progress();
    // remaining_cpu_ is denominated in cpu-seconds *at this node's speed*,
    // so the outstanding work rescales with the speed ratio.
    remaining_cpu_ *= params_.speed / speed;
    params_.speed = speed;
    if (busy_) schedule_completion();
}

double Cpu::jitter_for(int competitors, std::uint64_t salt,
                       double cpu_sec) const {
    if (competitors <= 0 || params_.jitter_frac <= 0.0 || cpu_sec <= 0.0)
        return 0.0;
    std::uint64_t h = hash_combine(
        hash_combine(seed_, static_cast<std::uint64_t>(node_id_)), salt);
    double u_hit = static_cast<double>(h >> 11) * 0x1.0p-53;
    double p_hit = std::min(1.0, cpu_sec / params_.quantum_s);
    if (u_hit >= p_hit) return 0.0; // no preemption landed in this item
    double u_mag =
        static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
    return params_.quantum_s * competitors * params_.jitter_frac * u_mag;
}

void Cpu::start_batch(double ref_sec, std::function<void()> on_done) {
    DYNMPI_REQUIRE(!busy_, "cpu already has an active batch");
    DYNMPI_REQUIRE(ref_sec >= 0.0, "negative work");
    ++batch_seq_;
    busy_ = true;
    remaining_cpu_ = ref_sec / params_.speed;
    last_update_ = engine_.now();
    // True batch progress follows the fluid processor-sharing model exactly;
    // the straggle model lives at the sync points (sync_straggle) and the
    // quantum-scale jitter only in *measurements* (reconstruct_rows).
    on_done_ = std::move(on_done);
    schedule_completion();
}

void Cpu::finish_batch() {
    DYNMPI_CHECK(busy_, "completion fired with no active batch");
    advance_progress();
    // ceil rounding plus fluid-model arithmetic leaves at most a few ns of
    // residue; fold it into the accounting and close the batch.
    app_cpu_ += remaining_cpu_;
    remaining_cpu_ = 0.0;
    busy_ = false;
    completion_event_ = 0;
    auto done = std::move(on_done_);
    on_done_ = nullptr;
    if (done) done();
}

void Cpu::halt() {
    if (!busy_) return;
    advance_progress();
    if (completion_event_ != 0) engine_.cancel(completion_event_);
    completion_event_ = 0;
    busy_ = false;
    remaining_cpu_ = 0.0;
    on_done_ = nullptr;
}

double Cpu::next_wake_delay() {
    ++wake_seq_;
    if (competitors_ <= 0 || params_.wake_delay_s <= 0.0 ||
        params_.jitter_frac <= 0.0)
        return 0.0;
    std::uint64_t h = hash_combine(
        hash_combine(seed_ ^ 0xAAuLL, static_cast<std::uint64_t>(node_id_)),
        wake_seq_);
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return params_.wake_delay_s * competitors_ * u;
}

double Cpu::sync_straggle() {
    ++straggle_seq_;
    if (competitors_ <= 0 || params_.straggle_s <= 0.0 ||
        params_.jitter_frac <= 0.0)
        return 0.0;
    std::uint64_t h = hash_combine(
        hash_combine(seed_ ^ 0x5757ULL, static_cast<std::uint64_t>(node_id_)),
        straggle_seq_);
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u * params_.straggle_s * competitors_ * params_.jitter_frac;
}

double Cpu::app_cpu_seconds() const {
    double extra = 0.0;
    if (busy_) {
        double wall = to_seconds(engine_.now() - last_update_);
        extra = std::min(wall * (1.0 / (1.0 + competitors_)), remaining_cpu_);
    }
    return app_cpu_ + extra;
}

Cpu::RowTimes Cpu::reconstruct_rows(const std::vector<double>& row_ref_sec,
                                    SimTime t0,
                                    std::uint64_t batch_seed) const {
    RowTimes out;
    out.wall.reserve(row_ref_sec.size());
    out.cpu.reserve(row_ref_sec.size());

    // The segment containing t0: the last one starting at or before it
    // (timeline_ is sorted by start; of entries sharing a start, the last
    // holds the count in effect).
    const auto after = std::upper_bound(
        timeline_.begin() + 1, timeline_.end(), t0,
        [](SimTime t, const Segment& s) { return t < s.start; });
    auto seg = static_cast<std::size_t>(after - timeline_.begin()) - 1;

    double t = to_seconds(t0);
    for (std::size_t r = 0; r < row_ref_sec.size(); ++r) {
        double cpu_need = row_ref_sec[r] / params_.speed;
        double cpu_left = cpu_need;
        double wall = 0.0;
        int jitter_competitors = timeline_[seg].competitors;
        while (cpu_left > 0.0) {
            int n = timeline_[seg].competitors;
            double rate = 1.0 / (1.0 + n);
            double seg_end = seg + 1 < timeline_.size()
                                 ? to_seconds(timeline_[seg + 1].start)
                                 : std::numeric_limits<double>::infinity();
            double wall_needed = cpu_left / rate;
            if (t + wall_needed <= seg_end) {
                wall += wall_needed;
                t += wall_needed;
                cpu_left = 0.0;
            } else {
                double span = seg_end - t;
                wall += span;
                cpu_left -= span * rate;
                t = seg_end;
                ++seg;
                DYNMPI_CHECK(seg < timeline_.size(),
                             "ran past cpu timeline during reconstruction");
            }
        }
        double noise = jitter_for(jitter_competitors,
                                  hash_combine(batch_seed, r + 1), cpu_need);
        out.wall.push_back(wall + noise);
        out.cpu.push_back(cpu_need);
    }
    return out;
}

}  // namespace dynmpi::sim
