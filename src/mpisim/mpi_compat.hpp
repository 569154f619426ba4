// A small MPI-1 compatibility surface over the simulated message layer.
//
// The paper's starting point (Figure 1) is an ordinary MPI program; the
// translation story of §2.3 maps such programs onto Dyn-MPI.  This shim lets
// the "before" programs be written verbatim — MPI_Init/Comm_rank/Send/Recv/
// Allreduce — against the simulator, so the original and the translated
// program run side by side (examples/mpi_vs_dynmpi.cpp).
//
// Scope: the calls those programs make, and no more.  One communicator
// (MPI_COMM_WORLD), four datatypes, three reduction ops, blocking
// point-to-point and MPI_Allreduce.  Everything returns MPI_SUCCESS or
// throws dynmpi::Error on misuse.
#pragma once

#include <cstddef>

#include "mpisim/rank.hpp"

namespace dynmpi::mpi {

using MPI_Comm = int;
inline constexpr MPI_Comm MPI_COMM_WORLD = 91;

using MPI_Datatype = int;
inline constexpr MPI_Datatype MPI_DOUBLE = 1;
inline constexpr MPI_Datatype MPI_INT = 2;
inline constexpr MPI_Datatype MPI_BYTE = 3;
inline constexpr MPI_Datatype MPI_LONG = 4;

using MPI_Op = int;
inline constexpr MPI_Op MPI_SUM = 1;
inline constexpr MPI_Op MPI_MIN = 2;
inline constexpr MPI_Op MPI_MAX = 3;

inline constexpr int MPI_ANY_SOURCE = msg::kAnySource;
inline constexpr int MPI_ANY_TAG = -1;
inline constexpr int MPI_SUCCESS = 0;

struct MPI_Status {
    int MPI_SOURCE = -1;
    int MPI_TAG = -1;
};
inline MPI_Status* const MPI_STATUS_IGNORE = nullptr;

/// Size in bytes of one element of a datatype.
std::size_t mpi_type_size(MPI_Datatype t);

/// Bind the calling rank to the compat layer until MPI_Finalize or the end
/// of its program.  (The real signature takes argc/argv; the simulator needs
/// the Rank.)
int MPI_Init(msg::Rank& rank);
int MPI_Finalize();

int MPI_Comm_rank(MPI_Comm comm, int* rank);
int MPI_Comm_size(MPI_Comm comm, int* size);

int MPI_Send(const void* buf, int count, MPI_Datatype type, int dest,
             int tag, MPI_Comm comm);
int MPI_Recv(void* buf, int count, MPI_Datatype type, int source, int tag,
             MPI_Comm comm, MPI_Status* status);
int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count,
                  MPI_Datatype type, MPI_Op op, MPI_Comm comm);

/// The bound rank, for mixed-mode code (the examples charge their compute
/// through it).
msg::Rank& mpi_rank();

}  // namespace dynmpi::mpi
