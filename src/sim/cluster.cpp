#include "sim/cluster.hpp"

#include "sim/fault_plan.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi::sim {

Cluster::~Cluster() = default;

Cluster::Cluster(const ClusterConfig& config) {
    DYNMPI_REQUIRE(config.num_nodes > 0, "cluster needs at least one node");
    DYNMPI_REQUIRE(config.speeds.empty() ||
                       static_cast<int>(config.speeds.size()) ==
                           config.num_nodes,
                   "speeds must be empty or have one entry per node");
    network_ = std::make_unique<Network>(engine_, config.net,
                                         config.num_nodes);
    DYNMPI_REQUIRE(config.memories.empty() ||
                       static_cast<int>(config.memories.size()) ==
                           config.num_nodes,
                   "memories must be empty or have one entry per node");
    for (int i = 0; i < config.num_nodes; ++i) {
        CpuParams cp = config.cpu;
        if (!config.speeds.empty())
            cp.speed = config.speeds[static_cast<std::size_t>(i)];
        std::uint64_t mem =
            config.memories.empty()
                ? 0
                : config.memories[static_cast<std::size_t>(i)];
        nodes_.push_back(std::make_unique<Node>(
            engine_, i, cp,
            hash_combine(config.seed, static_cast<std::uint64_t>(i)), mem));
        daemons_.push_back(std::make_unique<PsDaemon>(engine_, *nodes_.back(),
                                                      config.ps_period));
    }
}

Node& Cluster::node(int i) {
    DYNMPI_REQUIRE(i >= 0 && i < size(), "node index out of range");
    return *nodes_[static_cast<std::size_t>(i)];
}

PsDaemon& Cluster::daemon(int i) {
    DYNMPI_REQUIRE(i >= 0 && i < size(), "daemon index out of range");
    return *daemons_[static_cast<std::size_t>(i)];
}

int Cluster::spawn_competing(int node_id, BurstSpec spec) {
    return node(node_id).spawn_competing(spec);
}

void Cluster::kill_competing(int node_id, int pid) {
    node(node_id).kill_competing(pid);
}

void Cluster::add_load_interval(int node_id, double t_start, double t_end,
                                int count, BurstSpec spec) {
    DYNMPI_REQUIRE(t_start >= 0.0, "negative start time");
    DYNMPI_REQUIRE(count > 0, "count must be positive");
    DYNMPI_REQUIRE(t_end < 0.0 || t_end > t_start,
                   "interval must end after it starts");
    for (int c = 0; c < count; ++c) {
        engine_.at(
            from_seconds(t_start),
            [this, node_id, t_end, spec] {
                int pid = spawn_competing(node_id, spec);
                if (t_end >= 0.0)
                    engine_.at(
                        from_seconds(t_end),
                        [this, node_id, pid] { kill_competing(node_id, pid); },
                        /*weak=*/true);
            },
            /*weak=*/true);
    }
}

void Cluster::at(double t, std::function<void()> fn) {
    engine_.at(from_seconds(t), std::move(fn), /*weak=*/true);
}

void Cluster::crash_node(int node_id) {
    Node& n = node(node_id);
    if (n.crashed()) return;
    n.crash();
    network_->mark_crashed(node_id);
    if (crash_handler_) crash_handler_(node_id);
}

bool Cluster::node_crashed(int node_id) const {
    DYNMPI_REQUIRE(node_id >= 0 && node_id < size(),
                   "node index out of range");
    return nodes_[static_cast<std::size_t>(node_id)]->crashed();
}

int Cluster::crashed_count() const {
    int n = 0;
    for (const auto& node : nodes_)
        if (node->crashed()) ++n;
    return n;
}

void Cluster::revive_node(int node_id) {
    Node& n = node(node_id);
    if (!n.crashed()) return;
    n.revive();
    network_->mark_alive(node_id);
    daemon(node_id).restart();
    if (revive_handler_) revive_handler_(node_id);
}

int Cluster::node_generation(int node_id) const {
    DYNMPI_REQUIRE(node_id >= 0 && node_id < size(),
                   "node index out of range");
    return nodes_[static_cast<std::size_t>(node_id)]->generation();
}

void Cluster::set_crash_handler(std::function<void(int)> handler) {
    crash_handler_ = std::move(handler);
}

void Cluster::set_revive_handler(std::function<void(int)> handler) {
    revive_handler_ = std::move(handler);
}

void Cluster::install_faults(const FaultPlan& plan) {
    DYNMPI_REQUIRE(injector_ == nullptr, "fault plan already installed");
    injector_ = std::make_unique<FaultInjector>(*this, plan);
}

}  // namespace dynmpi::sim
