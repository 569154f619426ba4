// Paper-faithful DMPI_* call surface (Figure 2).
//
// The C++ Runtime is the primary API; this shim mirrors the paper's flat
// function style for programs ported directly from the paper's examples
// (see examples/quickstart.cpp).  DMPI_init stores the Runtime in the calling
// rank's shim state (msg::Rank::shim_state), and the free functions find it
// through msg::Rank::current(), so each rank sees its own runtime instance.
#pragma once

#include <memory>

#include "dynmpi/runtime.hpp"

namespace dynmpi::capi {

/// Constants mirroring the paper's flags.
inline constexpr AccessMode DMPI_READ = AccessMode::Read;
inline constexpr AccessMode DMPI_WRITE = AccessMode::Write;
inline constexpr CommPattern DMPI_NEAREST_NEIGHBOR =
    CommPattern::NearestNeighbor;
inline constexpr CommPattern DMPI_ALLGATHER = CommPattern::AllGather;
inline constexpr CommPattern DMPI_NONE = CommPattern::None;

/// Create this rank's runtime.  Call once per rank before any other DMPI_*.
void DMPI_init(msg::Rank& rank, int global_rows, RuntimeOptions opts = {});

/// Destroy this rank's runtime (optional: it is destroyed anyway when the
/// rank's program ends or its node crashes).
void DMPI_finalize();

/// The bound runtime (throws if DMPI_init has not run on this rank).
Runtime& DMPI_runtime();

DenseArray& DMPI_register_dense_array(const char* name, int row_elems,
                                      std::size_t elem_bytes);
SparseMatrix& DMPI_register_sparse_array(const char* name, int global_cols);
int DMPI_init_phase(int lo, int hi, CommPattern pattern,
                    std::size_t bytes_per_message);
void DMPI_add_array_access(const char* name, AccessMode mode, int phase,
                           int a = 1, int b = 0);
void DMPI_commit();

void DMPI_begin_cycle();
void DMPI_end_cycle();
void DMPI_run_phase(int phase, const std::vector<double>& row_costs);

bool DMPI_participating();
/// Inclusive bounds for `for (i = start; i <= end; ++i)`; a layout that
/// deals this node more than one run of iterations (cyclic) throws.
int DMPI_get_start_iter(int phase = 0);
int DMPI_get_end_iter(int phase = 0);
int DMPI_get_rel_rank();
int DMPI_get_num_active();

void DMPI_Send(int rel_dst, int tag, const void* data, std::size_t bytes);
std::size_t DMPI_Recv(int rel_src, int tag, void* data, std::size_t capacity);

/// Removal-aware global reductions (paper §4.4 send-out semantics): every
/// world rank calls these; removed nodes receive the result without
/// contributing.
double DMPI_Allreduce_sum(double value);
double DMPI_Allreduce_max(double value);

/// gethrtime-equivalent wall clock of this rank.
double DMPI_Wtime();

}  // namespace dynmpi::capi
