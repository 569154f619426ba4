// A small MPI-1 compatibility surface over the simulated message layer.
//
// The paper's starting point (Figure 1) is an ordinary MPI program; the
// translation story of §2.3 maps such programs onto Dyn-MPI.  This shim lets
// the "before" programs be written verbatim — MPI_Init/Comm_rank/Send/Recv/
// collectives — against the simulator, so tests can run the original and the
// translated program side by side.
//
// Scope: the dozen-or-so calls real codes use (the standard's own
// observation).  One communicator (MPI_COMM_WORLD), three datatypes, three
// reduction ops, blocking + nonblocking p2p, the common collectives.
// Everything returns MPI_SUCCESS or throws dynmpi::Error on misuse.
#pragma once

#include <cstddef>

#include "mpisim/rank.hpp"
#include "mpisim/request.hpp"

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
    int bytes = 0;
};
inline MPI_Status* const MPI_STATUS_IGNORE = nullptr;

struct MPI_Request {
    msg::Request inner;
};

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
int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                 int dest, int sendtag, void* recvbuf, int recvcount,
                 MPI_Datatype recvtype, int source, int recvtag,
                 MPI_Comm comm, MPI_Status* status);

int MPI_Isend(const void* buf, int count, MPI_Datatype type, int dest,
              int tag, MPI_Comm comm, MPI_Request* request);
int MPI_Irecv(void* buf, int count, MPI_Datatype type, int source, int tag,
              MPI_Comm comm, MPI_Request* request);
int MPI_Wait(MPI_Request* request, MPI_Status* status);
int MPI_Waitall(int count, MPI_Request* requests, MPI_Status* statuses);

int MPI_Barrier(MPI_Comm comm);
int MPI_Bcast(void* buf, int count, MPI_Datatype type, int root,
              MPI_Comm comm);
int MPI_Reduce(const void* sendbuf, void* recvbuf, int count,
               MPI_Datatype type, MPI_Op op, int root, MPI_Comm comm);
int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count,
                  MPI_Datatype type, MPI_Op op, MPI_Comm comm);
int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                  void* recvbuf, int recvcount, MPI_Datatype recvtype,
                  MPI_Comm comm);
int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
               void* recvbuf, int recvcount, MPI_Datatype recvtype, int root,
               MPI_Comm comm);
int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                void* recvbuf, int recvcount, MPI_Datatype recvtype,
                int root, MPI_Comm comm);
int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                 void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 MPI_Comm comm);
int MPI_Iprobe(int source, int tag, MPI_Comm comm, int* flag,
               MPI_Status* status);
int MPI_Get_count(const MPI_Status* status, MPI_Datatype type, int* count);

double MPI_Wtime();

/// The bound rank (for tests and mixed-mode code).
msg::Rank& mpi_rank();

}  // namespace dynmpi::mpi
