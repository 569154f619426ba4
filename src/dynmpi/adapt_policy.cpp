#include "dynmpi/adapt_policy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "support/error.hpp"

namespace dynmpi {

std::pair<double, double> MachineModel::comm_for(int nodes) const {
    std::pair<double, double> total{0.0, 0.0};
    for (const PhaseComm& p : phases) {
        total.first += comm_cpu_per_cycle(comm_costs, p, nodes);
        total.second += comm_wire_per_cycle(comm_costs, p, nodes);
    }
    return total;
}

AdaptPolicy::AdaptPolicy(const RuntimeOptions& opts, int world)
    : opts_(opts) {
    DYNMPI_REQUIRE(opts_.grace_cycles > 0, "grace periods must be positive");
    const auto W = static_cast<std::size_t>(world);
    // The initial even split assumes dedicated nodes, so any load that
    // already exists at startup registers as a change on cycle one.
    baseline_.assign(W, 0.0);
    quarantined_.assign(W, 0);
    nodes_.assign(W, Node{});
}

double AdaptPolicy::load_delta(int node, double load) const {
    return std::fabs(load - baseline_[static_cast<std::size_t>(node)]);
}

bool AdaptPolicy::decision_due() const {
    return mon_.mode == Mode::Grace
               ? mon_.grace_count + 1 >= opts_.grace_cycles
               : mon_.mode == Mode::PostGrace &&
                     mon_.post_count + 1 >= kPostGraceCycles;
}

AdaptAction AdaptPolicy::step(const CycleView& v) {
    const bool deciding = decision_due();
    AdaptAction a;
    switch (mon_.mode) {
    case Mode::Monitor:
        if (v.max_delta > opts_.load_change_eps &&
            (opts_.max_redistributions < 0 ||
             v.redistributions < opts_.max_redistributions)) {
            mon_.mode = Mode::Grace;
            mon_.grace_count = 0;
            a.kind = AdaptAction::Kind::EnterGrace;
        }
        break;
    case Mode::Grace:
        ++mon_.grace_count;
        if (deciding) a = end_grace(v);
        break;
    case Mode::PostGrace:
        mon_.post_cycle_max.push_back(v.max_wall);
        ++mon_.post_count;
        if (deciding) a = end_post_grace(v);
        break;
    }
    return a;
}

namespace {
bool contains(const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
}
}  // namespace

AdaptAction AdaptPolicy::end_grace(const CycleView& v) {
    DYNMPI_REQUIRE(v.snapshot != nullptr, "a grace end needs the snapshot");
    const LoadSnapshot& s = *v.snapshot;
    quarantined_ = s.quarantined;
    AdaptAction a;
    // Candidate set: the active nodes plus any unloaded node that can be
    // added back (paper: nodes return when conditions change).  The
    // leader's joinable flags cover crashes and restarted-but-not-yet-
    // bootstrapped incarnations; quarantined nodes sit out until readmitted.
    for (std::size_t w = 0; w < s.loads.size(); ++w) {
        if (s.joinable[w] == 0 || s.quarantined[w] != 0) continue;
        const int node = static_cast<int>(w);
        if (contains(v.active, node) || s.loads[w] <= opts_.load_change_eps)
            a.members.push_back(node);
    }
    // Degenerate case: every candidate is quarantined.  Keep the current
    // survivors rather than dissolving the computation.
    if (a.members.empty()) a.members = v.active;
    const int n = static_cast<int>(a.members.size());
    a.counts = blocks(shares(balance_input(a.members, s.loads, n, v)),
                      a.members, /*min_rows=*/1, v);

    // Skip the redistribution if nothing materially changes — the threshold
    // scales with the average block so it means the same thing at every
    // machine size.
    bool material = a.members != v.active;
    if (!material) {
        const double threshold = kMinCountChange *
                                 static_cast<double>(v.dist.total_iters()) /
                                 static_cast<double>(n);
        const std::vector<int> old_counts = v.dist.counts();
        for (std::size_t j = 0; j < a.counts.size(); ++j)
            if (std::abs(a.counts[j] - old_counts[j]) > threshold)
                material = true;
    }
    for (int m : a.members)
        if (!contains(v.active, m)) ++a.readds;
    baseline_ = s.loads;
    if (material) {
        a.kind = AdaptAction::Kind::Redistribute;
        start_post_grace();
    } else {
        a.kind = AdaptAction::Kind::Skip;
        mon_.mode = Mode::Monitor;
    }
    return a;
}

AdaptAction AdaptPolicy::end_post_grace(const CycleView& v) {
    DYNMPI_REQUIRE(v.snapshot != nullptr,
                   "a post-grace end needs the snapshot");
    const LoadSnapshot& s = *v.snapshot;
    quarantined_ = s.quarantined;
    mon_.mode = Mode::Monitor;
    AdaptAction a;
    a.kind = AdaptAction::Kind::EndPostGrace;
    const std::vector<double>& maxes = mon_.post_cycle_max;
    a.measured_s = std::accumulate(maxes.begin(), maxes.end(), 0.0) /
                   static_cast<double>(maxes.size());
    // Note: the baseline deliberately stays at the loads the current
    // distribution was computed for — if the load profile shifted during
    // the window, the very next Monitor cycle re-triggers adaptation.
    const bool any_loaded =
        std::any_of(v.active.begin(), v.active.end(), [&](int w) {
            return s.loads[static_cast<std::size_t>(w)] >
                   opts_.load_change_eps;
        });
    if (!opts_.enable_removal || !any_loaded || v.active.size() < 2)
        return a;

    const int n = static_cast<int>(v.active.size());
    RemovalDecision d =
        evaluate_removal(balance_input(v.active, s.loads, n, v), a.measured_s,
                         [&](int k) { return v.model.comm_for(k); });
    // With nothing unloaded to fall back on (or nothing loaded to shed),
    // there is no removal question.
    if (d.unloaded_members.empty() ||
        d.unloaded_members.size() == v.active.size())
        return a;
    if (opts_.force_drop_loaded) d.drop = true;
    a.removal = d;
    if (!d.drop) return a;

    // Rebalance over the unloaded nodes alone.  A physical drop removes the
    // loaded ones from the active set; a logical drop keeps them (static
    // relative ranks) with a minimum assignment.
    const bool physical = opts_.drop_mode == DropMode::Physical;
    std::vector<int> keep;
    for (int j : d.unloaded_members)
        keep.push_back(v.active[static_cast<std::size_t>(j)]);
    a.members = physical ? keep : v.active;
    std::vector<double> sh = shares(balance_input(
        keep, s.loads, static_cast<int>(a.members.size()), v));
    if (!physical) {
        std::vector<double> spread(v.active.size(), 0.0);
        for (std::size_t k = 0; k < sh.size(); ++k)
            spread[static_cast<std::size_t>(d.unloaded_members[k])] = sh[k];
        sh = std::move(spread);
    }
    a.counts = blocks(sh, a.members, physical ? 1 : kLogicalMinRows, v);
    a.kind = physical ? AdaptAction::Kind::DropPhysical
                      : AdaptAction::Kind::DropLogical;
    return a;
}

BalanceInput AdaptPolicy::balance_input(const std::vector<int>& members,
                                        const std::vector<double>& loads,
                                        int comm_nodes,
                                        const CycleView& v) const {
    BalanceInput in;
    in.row_costs = v.row_costs;
    for (int w : members)
        in.nodes.push_back(
            NodePower{v.model.speeds[static_cast<std::size_t>(w)],
                      loads[static_cast<std::size_t>(w)]});
    in.comm_cpu_per_node = v.model.comm_for(comm_nodes).first;
    return in;
}

std::vector<double> AdaptPolicy::shares(const BalanceInput& in) const {
    return opts_.scheme == BalanceScheme::RelativePower
               ? naive_shares(in.nodes)
               : successive_shares(in);
}

std::vector<int> AdaptPolicy::blocks(const std::vector<double>& shares,
                                     const std::vector<int>& members,
                                     int min_rows, const CycleView& v) const {
    // Per-member row caps from node memories (0 = unlimited).
    std::vector<int> caps(members.size(), 0);
    if (opts_.memory_aware && v.row_bytes > 0)
        for (std::size_t j = 0; j < members.size(); ++j) {
            const double mem =
                v.model.memories[static_cast<std::size_t>(members[j])];
            if (mem > 0)
                caps[j] =
                    static_cast<int>(mem / static_cast<double>(v.row_bytes));
        }
    return apply_row_caps(blocks_from_shares(v.row_costs, shares, min_rows),
                          caps);
}

bool AdaptPolicy::rejoin_ready(std::size_t w, int generation,
                               int cycle) const {
    return nodes_[w].bootstrapped_gen == generation &&
           cycle > nodes_[w].bootstrap_cycle;
}

double AdaptPolicy::scan_reports(const std::vector<NodeReport>& reports,
                                 int cycle) {
    bool flip_due = false;
    double delta = 0.0;
    for (std::size_t w = 0; w < reports.size(); ++w) {
        const NodeReport& r = reports[w];
        Node& n = nodes_[w];
        n.flip_due = false;
        if (r.crashed) continue;
        n.bad = r.stale ? n.bad + 1 : 0;
        n.clean = r.stale ? 0 : n.clean + 1;
        // Bad reports quarantine a node; clean ones readmit it.
        n.flip_due = quarantined_[w] != 0
                         ? n.clean >= kReadmitCleanCycles
                         : n.bad >= kQuarantineBadReports;
        flip_due = flip_due || n.flip_due;
        if (r.active) continue;
        // A removed node whose load cleared can be re-added, and a
        // bootstrapped rejoiner waiting outside forces an adaptation round
        // even on a quiet cluster: the candidate set changed.
        delta = std::max(delta, std::fabs(r.load - baseline_[w]));
        if (r.generation > 0 && rejoin_ready(w, r.generation, cycle))
            delta = std::max(delta, opts_.load_change_eps + 1.0);
    }
    // A pending quarantine or readmit changes the candidate set too.
    if (flip_due) delta = std::max(delta, opts_.load_change_eps + 1.0);
    return delta;
}

bool AdaptPolicy::claim_bootstrap(int node, int generation, int cycle) {
    Node& n = nodes_[static_cast<std::size_t>(node)];
    if (generation == 0 || n.bootstrapped_gen == generation) return false;
    n.bootstrapped_gen = generation;
    n.bootstrap_cycle = cycle;
    return true;
}

LoadSnapshot AdaptPolicy::snapshot(const std::vector<NodeReport>& reports,
                                   int cycle,
                                   std::vector<QuarantineFlip>& flips) {
    LoadSnapshot s;
    for (std::size_t w = 0; w < reports.size(); ++w) {
        const NodeReport& r = reports[w];
        // Crashed or stale-reporting nodes fall back to the last load the
        // current distribution was computed for.
        s.loads.push_back(r.crashed || r.stale ? baseline_[w] : r.load);
        // Quarantine flips apply at the decision point, so every rank that
        // acts on this snapshot also learns the resulting flags.
        if (!r.crashed && nodes_[w].flip_due) {
            const bool q = quarantined_[w] == 0; // the flag's new value
            quarantined_[w] = q ? 1 : 0;
            flips.push_back({static_cast<int>(w), q,
                             q ? nodes_[w].bad : nodes_[w].clean});
        }
        // Who may be (re)admitted: never a crashed node, always an active
        // one (a freshly promoted leader has no bootstrap record for nodes
        // readmitted under its predecessor), and a restarted one once it
        // is ready.
        s.joinable.push_back(
            !r.crashed &&
            (r.active || rejoin_ready(w, r.generation, cycle)));
    }
    s.quarantined = quarantined_;
    return s;
}

AdaptPolicy::Checkpoint AdaptPolicy::checkpoint() const {
    const bool grace_end = mon_.mode == Mode::Grace && decision_due();
    return {mon_, grace_end ? baseline_ : std::vector<double>{}};
}

void AdaptPolicy::restore(Checkpoint c) {
    mon_ = std::move(c.mon);
    if (!c.baseline.empty()) baseline_ = std::move(c.baseline);
}

void AdaptPolicy::adopt(std::vector<double> baseline,
                        std::vector<char> quarantined) {
    baseline_ = std::move(baseline);
    quarantined_ = std::move(quarantined);
}

void AdaptPolicy::start_post_grace() {
    mon_.mode = Mode::PostGrace;
    mon_.post_count = 0;
    mon_.post_cycle_max.clear();
}

bool AdaptPolicy::saw_generation(int node, int generation) {
    int& seen = nodes_[static_cast<std::size_t>(node)].seen_gen;
    // It starts at 0, so any advance means a revived node.
    if (generation <= seen) return false;
    seen = generation;
    return true;
}

}  // namespace dynmpi
