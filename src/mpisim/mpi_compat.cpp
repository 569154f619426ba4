#include "mpisim/mpi_compat.hpp"

#include <cstring>

#include "mpisim/collectives.hpp"
#include "support/error.hpp"

namespace dynmpi::mpi {

namespace {
/// MPI_Init's mark in the running rank's shim slot.
struct MpiBinding final : msg::Rank::ShimState {};

msg::Rank& bound() {
    msg::Rank* rank = msg::Rank::current();
    DYNMPI_REQUIRE(
        rank != nullptr && rank->shim_state(msg::Rank::Shim::Mpi) != nullptr,
        "MPI_Init has not been called");
    return *rank;
}

void check_comm(MPI_Comm comm) {
    DYNMPI_REQUIRE(comm == MPI_COMM_WORLD,
                   "only MPI_COMM_WORLD is supported");
}

/// Element-wise allreduce dispatched on the runtime datatype.
template <typename T, typename OpT>
void allreduce_as(const void* sendbuf, void* recvbuf, int count, OpT op) {
    std::vector<T> v(static_cast<std::size_t>(count));
    std::memcpy(v.data(), sendbuf, v.size() * sizeof(T));
    v = msg::allreduce(bound(), msg::Group::world(bound()), std::move(v), op);
    std::memcpy(recvbuf, v.data(), v.size() * sizeof(T));
}

template <typename OpT>
int allreduce_dispatch(const void* sendbuf, void* recvbuf, int count,
                       MPI_Datatype type, OpT op) {
    switch (type) {
    case MPI_DOUBLE:
        allreduce_as<double>(sendbuf, recvbuf, count, op);
        return MPI_SUCCESS;
    case MPI_INT:
        allreduce_as<int>(sendbuf, recvbuf, count, op);
        return MPI_SUCCESS;
    case MPI_LONG:
        allreduce_as<long>(sendbuf, recvbuf, count, op);
        return MPI_SUCCESS;
    }
    throw Error("unsupported datatype for reduction");
}

}  // namespace

std::size_t mpi_type_size(MPI_Datatype t) {
    switch (t) {
    case MPI_DOUBLE: return sizeof(double);
    case MPI_INT: return sizeof(int);
    case MPI_BYTE: return 1;
    case MPI_LONG: return sizeof(long);
    }
    throw Error("unknown MPI datatype");
}

int MPI_Init(msg::Rank& rank) {
    DYNMPI_REQUIRE(&rank == msg::Rank::current(),
                   "MPI_Init must be called from the rank's own program");
    auto& slot = rank.shim_state(msg::Rank::Shim::Mpi);
    DYNMPI_REQUIRE(slot == nullptr, "MPI_Init called twice");
    slot = std::make_unique<MpiBinding>();
    return MPI_SUCCESS;
}

int MPI_Finalize() {
    if (msg::Rank* rank = msg::Rank::current())
        rank->shim_state(msg::Rank::Shim::Mpi).reset();
    return MPI_SUCCESS;
}

msg::Rank& mpi_rank() { return bound(); }

int MPI_Comm_rank(MPI_Comm comm, int* rank) {
    check_comm(comm);
    *rank = bound().id();
    return MPI_SUCCESS;
}

int MPI_Comm_size(MPI_Comm comm, int* size) {
    check_comm(comm);
    *size = bound().size();
    return MPI_SUCCESS;
}

int MPI_Send(const void* buf, int count, MPI_Datatype type, int dest,
             int tag, MPI_Comm comm) {
    check_comm(comm);
    bound().send(dest, tag, buf,
                 static_cast<std::size_t>(count) * mpi_type_size(type));
    return MPI_SUCCESS;
}

int MPI_Recv(void* buf, int count, MPI_Datatype type, int source, int tag,
             MPI_Comm comm, MPI_Status* status) {
    check_comm(comm);
    bound().recv(source, tag, buf,
                 static_cast<std::size_t>(count) * mpi_type_size(type),
                 status ? &status->MPI_SOURCE : nullptr,
                 status ? &status->MPI_TAG : nullptr);
    return MPI_SUCCESS;
}

int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count,
                  MPI_Datatype type, MPI_Op op, MPI_Comm comm) {
    check_comm(comm);
    switch (op) {
    case MPI_SUM:
        return allreduce_dispatch(sendbuf, recvbuf, count, type,
                                  msg::OpSum{});
    case MPI_MIN:
        return allreduce_dispatch(sendbuf, recvbuf, count, type,
                                  msg::OpMin{});
    case MPI_MAX:
        return allreduce_dispatch(sendbuf, recvbuf, count, type,
                                  msg::OpMax{});
    }
    throw Error("unsupported MPI_Op");
}

}  // namespace dynmpi::mpi
