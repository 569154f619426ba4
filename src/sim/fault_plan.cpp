#include "sim/fault_plan.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dynmpi::sim {

const char* fault_kind_name(FaultKind kind) {
    switch (kind) {
    case FaultKind::Crash: return "crash";
    case FaultKind::Slowdown: return "slow";
    case FaultKind::ReportDrop: return "drop-reports";
    case FaultKind::ReportFreeze: return "freeze-reports";
    case FaultKind::ReportDelay: return "delay-reports";
    case FaultKind::NetDelay: return "net-delay";
    case FaultKind::SendLoss: return "lose-sends";
    case FaultKind::Revive: return "revive";
    }
    return "?";
}

namespace {

bool kind_from_name(const std::string& name, FaultKind& out) {
    for (FaultKind k :
         {FaultKind::Crash, FaultKind::Slowdown, FaultKind::ReportDrop,
          FaultKind::ReportFreeze, FaultKind::ReportDelay, FaultKind::NetDelay,
          FaultKind::SendLoss, FaultKind::Revive}) {
        if (name == fault_kind_name(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

double parse_number(const std::string& token, int lineno) {
    std::size_t used = 0;
    double v = 0.0;
    try {
        v = std::stod(token, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used != token.size() || !std::isfinite(v))
        throw Error("fault script line " + std::to_string(lineno) +
                    ": bad number '" + token + "'");
    return v;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
    FaultPlan plan;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        std::istringstream tokens(line);
        std::string word;
        if (!(tokens >> word)) continue; // blank or comment-only line

        FaultSpec f;
        if (!kind_from_name(word, f.kind))
            throw Error("fault script line " + std::to_string(lineno) +
                        ": unknown fault kind '" + word + "'");
        bool have_t = false;
        while (tokens >> word) {
            auto eq = word.find('=');
            if (eq == std::string::npos || eq == 0 || eq + 1 == word.size())
                throw Error("fault script line " + std::to_string(lineno) +
                            ": expected key=value, got '" + word + "'");
            std::string key = word.substr(0, eq);
            double v = parse_number(word.substr(eq + 1), lineno);
            if (key == "t") {
                f.t = v;
                have_t = true;
            } else if (key == "node" || key == "count") {
                if (!(std::abs(v) < 2147483648.0)) // outside int: no cast
                    throw Error("fault script line " + std::to_string(lineno) +
                                ": " + key + " out of range");
                (key == "node" ? f.node : f.count) = static_cast<int>(v);
            } else if (key == "dur") {
                f.duration_s = v;
            } else if (key == "factor" || key == "delay" || key == "extra") {
                f.value = v;
            } else {
                throw Error("fault script line " + std::to_string(lineno) +
                            ": unknown key '" + key + "'");
            }
        }
        if (!have_t)
            throw Error("fault script line " + std::to_string(lineno) +
                        ": every fault needs t=<seconds>");
        plan.faults.push_back(f);
    }
    return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot read fault script: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
}

std::string FaultPlan::to_string() const {
    std::ostringstream out;
    for (const FaultSpec& f : faults) {
        out << fault_kind_name(f.kind);
        if (f.node >= 0) out << " node=" << f.node;
        out << " t=" << f.t;
        if (f.duration_s > 0.0) out << " dur=" << f.duration_s;
        switch (f.kind) {
        case FaultKind::Slowdown: out << " factor=" << f.value; break;
        case FaultKind::ReportDelay: out << " delay=" << f.value; break;
        case FaultKind::NetDelay: out << " extra=" << f.value; break;
        case FaultKind::SendLoss: out << " count=" << f.count; break;
        default: break;
        }
        out << '\n';
    }
    return out.str();
}

void FaultPlan::validate(int num_nodes) const {
    for (const FaultSpec& f : faults) {
        const std::string where =
            std::string(fault_kind_name(f.kind)) + " at t=" +
            std::to_string(f.t);
        if (f.t < 0.0) throw Error("fault before t=0: " + where);
        bool needs_node = f.kind != FaultKind::NetDelay;
        if (needs_node && (f.node < 0 || f.node >= num_nodes))
            throw Error("fault targets node outside the cluster: " + where);
        if (f.kind == FaultKind::Slowdown && f.value <= 0.0)
            throw Error("slowdown factor must be positive: " + where);
        if (f.kind == FaultKind::ReportDelay && f.value <= 0.0)
            throw Error("report delay must be positive: " + where);
        if (f.kind == FaultKind::NetDelay && f.value <= 0.0)
            throw Error("extra latency must be positive: " + where);
        if (f.kind == FaultKind::SendLoss && f.count <= 0)
            throw Error("send-loss count must be positive: " + where);
        if (f.kind == FaultKind::Revive) {
            // A revive must resurrect a node that a strictly earlier crash
            // took down and that no earlier revive already restored.
            int down = 0;
            for (const FaultSpec& g : faults) {
                if (g.node != f.node || g.t >= f.t) continue;
                if (g.kind == FaultKind::Crash) ++down;
                if (g.kind == FaultKind::Revive) --down;
            }
            if (down <= 0)
                throw Error("revive without an earlier crash of the same "
                            "node (or double revive): " + where);
        }
    }
}

FaultInjector::FaultInjector(Cluster& cluster, const FaultPlan& plan)
    : cluster_(cluster) {
    plan.validate(cluster_.size());
    saved_speeds_.assign(static_cast<std::size_t>(cluster_.size()), 0.0);
    for (const FaultSpec& f : plan.faults) {
        cluster_.engine().at(
            from_seconds(f.t), [this, f] { inject(f); }, /*weak=*/true);
        bool window = f.duration_s > 0.0 && f.kind != FaultKind::Crash &&
                      f.kind != FaultKind::SendLoss &&
                      f.kind != FaultKind::Revive;
        if (window)
            cluster_.engine().at(
                from_seconds(f.t + f.duration_s), [this, f] { clear(f); },
                /*weak=*/true);
    }
}

void FaultInjector::note(support::InstantId event, const FaultSpec& f) {
    if (support::trace().enabled()) {
        using support::targ;
        support::trace().instant(
            to_seconds(cluster_.engine().now()), /*rank=*/-1, event,
            {targ("kind", fault_kind_name(f.kind)), targ("node", f.node)});
    }
    if (support::metrics().enabled() &&
        event == support::InstantId::FaultInject) {
        using support::CounterId;
        support::metrics().counter(CounterId::FaultInjected).add(1);
        support::metrics()
            .counter(CounterId::FaultInjectedKind, fault_kind_name(f.kind))
            .add(1);
    }
}

void FaultInjector::inject(const FaultSpec& f) {
    ++injected_;
    note(support::InstantId::FaultInject, f);
    switch (f.kind) {
    case FaultKind::Crash:
        cluster_.crash_node(f.node);
        break;
    case FaultKind::Slowdown: {
        Cpu& cpu = cluster_.node(f.node).cpu();
        saved_speeds_[static_cast<std::size_t>(f.node)] = cpu.params().speed;
        cpu.set_speed(cpu.params().speed * f.value);
        break;
    }
    case FaultKind::ReportDrop:
        cluster_.daemon(f.node).set_dropping(true);
        break;
    case FaultKind::ReportFreeze:
        cluster_.daemon(f.node).set_frozen(true);
        break;
    case FaultKind::ReportDelay:
        cluster_.daemon(f.node).set_report_delay(f.value);
        break;
    case FaultKind::NetDelay:
        cluster_.network().set_extra_latency(f.value);
        break;
    case FaultKind::SendLoss:
        cluster_.network().add_send_failures(f.node, f.count);
        break;
    case FaultKind::Revive:
        cluster_.revive_node(f.node);
        break;
    }
}

void FaultInjector::clear(const FaultSpec& f) {
    note(support::InstantId::FaultClear, f);
    switch (f.kind) {
    case FaultKind::Slowdown:
        cluster_.node(f.node).cpu().set_speed(
            saved_speeds_[static_cast<std::size_t>(f.node)]);
        break;
    case FaultKind::ReportDrop:
        cluster_.daemon(f.node).set_dropping(false);
        break;
    case FaultKind::ReportFreeze:
        cluster_.daemon(f.node).set_frozen(false);
        break;
    case FaultKind::ReportDelay:
        cluster_.daemon(f.node).set_report_delay(0.0);
        break;
    case FaultKind::NetDelay:
        cluster_.network().set_extra_latency(0.0);
        break;
    default:
        break;
    }
}

}  // namespace dynmpi::sim
