#include "dynmpi/dmpi_c_api.hpp"

#include "support/error.hpp"

namespace dynmpi::capi {

namespace {

/// DMPI_init's Runtime, kept in the rank's shim slot.
struct CApiState final : msg::Rank::ShimState {
    CApiState(msg::Rank& rank, int global_rows, RuntimeOptions opts)
        : runtime(rank, global_rows, std::move(opts)) {}
    Runtime runtime;
};

constexpr auto kSlot = msg::Rank::Shim::Dmpi;

}  // namespace

void DMPI_init(msg::Rank& rank, int global_rows, RuntimeOptions opts) {
    DYNMPI_REQUIRE(&rank == msg::Rank::current(),
                   "DMPI_init must be called from the rank's own program");
    auto& slot = rank.shim_state(kSlot);
    DYNMPI_REQUIRE(slot == nullptr, "DMPI_init called twice on this rank");
    slot = std::make_unique<CApiState>(rank, global_rows, std::move(opts));
}

void DMPI_finalize() {
    if (msg::Rank* rank = msg::Rank::current())
        rank->shim_state(kSlot).reset();
}

Runtime& DMPI_runtime() {
    msg::Rank* rank = msg::Rank::current();
    msg::Rank::ShimState* state =
        rank != nullptr ? rank->shim_state(kSlot).get() : nullptr;
    DYNMPI_REQUIRE(state != nullptr, "DMPI_init has not been called");
    return static_cast<CApiState*>(state)->runtime;
}

DenseArray& DMPI_register_dense_array(const char* name, int row_elems,
                                      std::size_t elem_bytes) {
    return DMPI_runtime().register_dense(name, row_elems, elem_bytes);
}

SparseMatrix& DMPI_register_sparse_array(const char* name, int global_cols) {
    return DMPI_runtime().register_sparse(name, global_cols);
}

int DMPI_init_phase(int lo, int hi, CommPattern pattern,
                    std::size_t bytes_per_message) {
    return DMPI_runtime().init_phase(lo, hi,
                                     PhaseComm{pattern, bytes_per_message});
}

void DMPI_add_array_access(const char* name, AccessMode mode, int phase,
                           int a, int b) {
    DMPI_runtime().add_array_access(name, mode, phase, a, b);
}

void DMPI_commit() { DMPI_runtime().commit_setup(); }

void DMPI_begin_cycle() { DMPI_runtime().begin_cycle(); }
void DMPI_end_cycle() { DMPI_runtime().end_cycle(); }

void DMPI_run_phase(int phase, const std::vector<double>& row_costs) {
    DMPI_runtime().run_phase(phase, row_costs);
}

bool DMPI_participating() { return DMPI_runtime().participating(); }
int DMPI_get_start_iter(int phase) { return DMPI_runtime().start_iter(phase); }
int DMPI_get_end_iter(int phase) { return DMPI_runtime().end_iter(phase); }
int DMPI_get_rel_rank() { return DMPI_runtime().rel_rank(); }
int DMPI_get_num_active() { return DMPI_runtime().num_active(); }

void DMPI_Send(int rel_dst, int tag, const void* data, std::size_t bytes) {
    DMPI_runtime().send_rel(rel_dst, tag, data, bytes);
}

std::size_t DMPI_Recv(int rel_src, int tag, void* data,
                      std::size_t capacity) {
    return DMPI_runtime().recv_rel(rel_src, tag, data, capacity);
}

double DMPI_Allreduce_sum(double value) {
    return DMPI_runtime().allreduce_active(value, msg::OpSum{});
}

double DMPI_Allreduce_max(double value) {
    return DMPI_runtime().allreduce_active(value, msg::OpMax{});
}

double DMPI_Wtime() { return DMPI_runtime().rank().hrtime(); }

}  // namespace dynmpi::capi
