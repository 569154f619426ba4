#include "sim/ps_daemon.hpp"

#include <cmath>

#include "support/error.hpp"

namespace dynmpi::sim {

PsDaemon::PsDaemon(Engine& engine, Node& node, SimTime period)
    : engine_(engine), node_(node), period_(period) {
    DYNMPI_REQUIRE(period > 0, "daemon period must be positive");
    engine_.after(period_, [this] { tick(); }, /*weak=*/true);
}

void PsDaemon::set_frozen(bool frozen) {
    if (frozen && !frozen_) frozen_value_ = avg_competing();
    frozen_ = frozen;
}

void PsDaemon::set_report_delay(double delay_s) {
    DYNMPI_REQUIRE(delay_s >= 0.0, "report delay must be non-negative");
    delay_s_ = delay_s;
}

void PsDaemon::restart() {
    if (node_.crashed()) return;
    prev_integral_ = node_.competing_integral();
    engine_.after(period_, [this] { tick(); }, /*weak=*/true);
}

void PsDaemon::tick() {
    if (node_.crashed()) return; // daemon dies with its node: no reschedule
    double integral = node_.competing_integral();
    double avg = (integral - prev_integral_) / to_seconds(period_);
    prev_integral_ = integral;
    while (!pending_.empty() &&
           pending_.front().time + from_seconds(delay_s_) <= engine_.now()) {
        history_.push_back(pending_.front());
        pending_.pop_front();
    }
    if (!dropping_) {
        // Frozen daemons report the captured value *with a fresh timestamp*;
        // delayed samples keep their true timestamp so they age visibly.
        Sample s{engine_.now(), frozen_ ? frozen_value_ : avg};
        if (delay_s_ > 0.0)
            pending_.push_back(s);
        else
            history_.push_back(s);
    }
    engine_.after(period_, [this] { tick(); }, /*weak=*/true);
}

double PsDaemon::avg_competing() const {
    return history_.empty() ? 0.0 : history_.back().avg_competing;
}

int PsDaemon::reported_load() const {
    return 1 + static_cast<int>(std::lround(avg_competing()));
}

SimTime PsDaemon::last_sample_time() const {
    return history_.empty() ? -1 : history_.back().time;
}

}  // namespace dynmpi::sim
