#include "dynmpi/timing.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/cpu.hpp"
#include "support/error.hpp"

namespace dynmpi {

void IterationTimer::start(int num_rows) {
    DYNMPI_REQUIRE(num_rows >= 0, "negative row count");
    num_rows_ = num_rows;
    cycles_ = 0;
    hrtime_min_.assign(static_cast<std::size_t>(num_rows), 1e300);
    proc_sum_.assign(static_cast<std::size_t>(num_rows), 0.0);
}

std::vector<double> IterationTimer::quantize_proc(
    const std::vector<double>& cpu) const {
    // A real program reads the cumulative /proc counter before and after each
    // row; each reading floors to a jiffy.
    std::vector<double> out(cpu.size());
    double cum = 0.0;
    double prev_reading = 0.0;
    for (std::size_t i = 0; i < cpu.size(); ++i) {
        cum += cpu[i];
        // Real jiffy counters are integral; the epsilon keeps accumulated
        // floating-point error from flipping an exact boundary downward.
        double reading =
            std::floor(cum / sim::kJiffyS + 1e-9) * sim::kJiffyS;
        out[i] = reading - prev_reading;
        prev_reading = reading;
    }
    return out;
}

void IterationTimer::record_cycle(const std::vector<double>& wall,
                                  const std::vector<double>& cpu,
                                  double avg_competing, double speed) {
    DYNMPI_REQUIRE(static_cast<int>(wall.size()) == num_rows_ &&
                       static_cast<int>(cpu.size()) == num_rows_,
                   "measurement length mismatch");
    DYNMPI_REQUIRE(speed > 0, "speed must be positive");

    // gethrtime path: de-rate the wall time by the observed load, keep the
    // minimum across cycles (removes context-switch spikes).
    double derate = speed / (1.0 + std::max(0.0, avg_competing));
    for (int i = 0; i < num_rows_; ++i) {
        double est = wall[static_cast<std::size_t>(i)] * derate;
        hrtime_min_[static_cast<std::size_t>(i)] =
            std::min(hrtime_min_[static_cast<std::size_t>(i)], est);
    }

    // /proc path: accumulate jiffy-quantized readings; averaging across
    // cycles smooths the quantization.
    std::vector<double> q = quantize_proc(cpu);
    for (int i = 0; i < num_rows_; ++i)
        proc_sum_[static_cast<std::size_t>(i)] +=
            q[static_cast<std::size_t>(i)] * speed;

    ++cycles_;
}

IterationTimer::Method IterationTimer::chosen_method() const {
    if (cycles_ == 0 || num_rows_ == 0) return Method::Hrtime;
    double mean_row =
        std::accumulate(proc_sum_.begin(), proc_sum_.end(), 0.0) /
        (static_cast<double>(cycles_) * static_cast<double>(num_rows_));
    // Below one jiffy per row the quantized readings are mostly noise.
    return mean_row >= sim::kJiffyS ? Method::Proc : Method::Hrtime;
}

std::vector<double> IterationTimer::estimates() const {
    DYNMPI_REQUIRE(cycles_ > 0, "no measurements recorded");
    std::vector<double> out(static_cast<std::size_t>(num_rows_));
    if (chosen_method() == Method::Proc) {
        for (int i = 0; i < num_rows_; ++i)
            out[static_cast<std::size_t>(i)] =
                proc_sum_[static_cast<std::size_t>(i)] / cycles_;
    } else {
        out = hrtime_min_;
    }
    return out;
}

}  // namespace dynmpi
