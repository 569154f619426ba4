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
    int src = -1, got_tag = -1;
    std::size_t n = bound().recv(
        source, tag, buf,
        static_cast<std::size_t>(count) * mpi_type_size(type), &src,
        &got_tag);
    if (status) {
        status->MPI_SOURCE = src;
        status->MPI_TAG = got_tag;
        status->bytes = static_cast<int>(n);
    }
    return MPI_SUCCESS;
}

int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                 int dest, int sendtag, void* recvbuf, int recvcount,
                 MPI_Datatype recvtype, int source, int recvtag,
                 MPI_Comm comm, MPI_Status* status) {
    check_comm(comm);
    MPI_Send(sendbuf, sendcount, sendtype, dest, sendtag, comm);
    return MPI_Recv(recvbuf, recvcount, recvtype, source, recvtag, comm,
                    status);
}

int MPI_Isend(const void* buf, int count, MPI_Datatype type, int dest,
              int tag, MPI_Comm comm, MPI_Request* request) {
    check_comm(comm);
    request->inner =
        bound().isend(dest, tag, buf,
                      static_cast<std::size_t>(count) * mpi_type_size(type));
    return MPI_SUCCESS;
}

int MPI_Irecv(void* buf, int count, MPI_Datatype type, int source, int tag,
              MPI_Comm comm, MPI_Request* request) {
    check_comm(comm);
    request->inner =
        bound().irecv(source, tag, buf,
                      static_cast<std::size_t>(count) * mpi_type_size(type));
    return MPI_SUCCESS;
}

int MPI_Wait(MPI_Request* request, MPI_Status* status) {
    std::size_t n = bound().wait(request->inner);
    if (status) {
        status->MPI_SOURCE = request->inner.source();
        status->MPI_TAG = request->inner.tag();
        status->bytes = static_cast<int>(n);
    }
    return MPI_SUCCESS;
}

int MPI_Waitall(int count, MPI_Request* requests, MPI_Status* statuses) {
    for (int i = 0; i < count; ++i)
        MPI_Wait(&requests[i], statuses ? &statuses[i] : nullptr);
    return MPI_SUCCESS;
}

int MPI_Barrier(MPI_Comm comm) {
    check_comm(comm);
    msg::barrier(bound(), msg::Group::world(bound()));
    return MPI_SUCCESS;
}

int MPI_Bcast(void* buf, int count, MPI_Datatype type, int root,
              MPI_Comm comm) {
    check_comm(comm);
    std::size_t bytes = static_cast<std::size_t>(count) * mpi_type_size(type);
    const bool at_root = bound().id() == root;
    const sim::Payload got =
        msg::bcast_payload(bound(), msg::Group::world(bound()), root,
                           at_root ? sim::Payload(buf, bytes) : sim::Payload());
    DYNMPI_REQUIRE(got.size() == bytes, "bcast size mismatch");
    if (!at_root && bytes > 0) std::memcpy(buf, got.data(), bytes);
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

int MPI_Reduce(const void* sendbuf, void* recvbuf, int count,
               MPI_Datatype type, MPI_Op op, int root, MPI_Comm comm) {
    // Built on allreduce for simplicity; non-roots discard.
    std::vector<std::byte> tmp(static_cast<std::size_t>(count) *
                               mpi_type_size(type));
    int rc = MPI_Allreduce(sendbuf, tmp.data(), count, type, op, comm);
    int me;
    MPI_Comm_rank(comm, &me);
    if (me == root) std::memcpy(recvbuf, tmp.data(), tmp.size());
    return rc;
}

int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                  void* recvbuf, int recvcount, MPI_Datatype recvtype,
                  MPI_Comm comm) {
    check_comm(comm);
    DYNMPI_REQUIRE(sendcount == recvcount && sendtype == recvtype,
                   "MPI_Allgather requires matching send/recv signatures");
    std::size_t bytes =
        static_cast<std::size_t>(sendcount) * mpi_type_size(sendtype);
    const auto all = msg::allgather(bound(), msg::Group::world(bound()),
                                    static_cast<const std::byte*>(sendbuf),
                                    bytes);
    for (int r = 0; r < all.members(); ++r)
        DYNMPI_REQUIRE(all.length(r) == bytes, "allgather size mismatch");
    if (all.size() > 0) std::memcpy(recvbuf, all.data(), all.size());
    return MPI_SUCCESS;
}

int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
               void* recvbuf, int recvcount, MPI_Datatype recvtype, int root,
               MPI_Comm comm) {
    check_comm(comm);
    DYNMPI_REQUIRE(sendcount == recvcount && sendtype == recvtype,
                   "MPI_Gather requires matching send/recv signatures");
    std::size_t bytes =
        static_cast<std::size_t>(sendcount) * mpi_type_size(sendtype);
    auto all = msg::gather(bound(), msg::Group::world(bound()), root,
                           static_cast<const std::byte*>(sendbuf), bytes);
    int me;
    MPI_Comm_rank(comm, &me);
    if (me == root) {
        auto* out = static_cast<std::byte*>(recvbuf);
        for (std::size_t r = 0; r < all.size(); ++r) {
            DYNMPI_REQUIRE(all[r].size() == bytes, "gather size mismatch");
            std::memcpy(out + r * bytes, all[r].data(), bytes);
        }
    }
    return MPI_SUCCESS;
}

int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                void* recvbuf, int recvcount, MPI_Datatype recvtype,
                int root, MPI_Comm comm) {
    check_comm(comm);
    DYNMPI_REQUIRE(sendcount == recvcount && sendtype == recvtype,
                   "MPI_Scatter requires matching send/recv signatures");
    std::size_t bytes =
        static_cast<std::size_t>(sendcount) * mpi_type_size(sendtype);
    int me, n;
    MPI_Comm_rank(comm, &me);
    MPI_Comm_size(comm, &n);
    std::vector<std::vector<std::byte>> chunks;
    if (me == root) {
        const auto* in = static_cast<const std::byte*>(sendbuf);
        for (int r = 0; r < n; ++r, in += bytes)
            chunks.emplace_back(in, in + bytes);
    }
    auto mine =
        msg::scatter(bound(), msg::Group::world(bound()), root, chunks);
    DYNMPI_REQUIRE(mine.size() == bytes, "scatter size mismatch");
    std::memcpy(recvbuf, mine.data(), bytes);
    return MPI_SUCCESS;
}

int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                 void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 MPI_Comm comm) {
    check_comm(comm);
    DYNMPI_REQUIRE(sendcount == recvcount && sendtype == recvtype,
                   "MPI_Alltoall requires matching send/recv signatures");
    std::size_t bytes =
        static_cast<std::size_t>(sendcount) * mpi_type_size(sendtype);
    int n;
    MPI_Comm_size(comm, &n);
    const auto* in = static_cast<const std::byte*>(sendbuf);
    std::vector<std::vector<std::byte>> outgoing;
    for (int r = 0; r < n; ++r, in += bytes)
        outgoing.emplace_back(in, in + bytes);
    auto incoming =
        msg::alltoall(bound(), msg::Group::world(bound()), outgoing);
    auto* out = static_cast<std::byte*>(recvbuf);
    for (std::size_t r = 0; r < incoming.size(); ++r) {
        DYNMPI_REQUIRE(incoming[r].size() == bytes, "alltoall size mismatch");
        std::memcpy(out + r * bytes, incoming[r].data(), bytes);
    }
    return MPI_SUCCESS;
}

int MPI_Iprobe(int source, int tag, MPI_Comm comm, int* flag,
               MPI_Status* status) {
    check_comm(comm);
    int src = -1, got_tag = -1;
    bool present = bound().probe(source, tag, &src, &got_tag);
    *flag = present ? 1 : 0;
    if (present && status) {
        status->MPI_SOURCE = src;
        status->MPI_TAG = got_tag;
    }
    return MPI_SUCCESS;
}

int MPI_Get_count(const MPI_Status* status, MPI_Datatype type, int* count) {
    DYNMPI_REQUIRE(status != nullptr, "MPI_Get_count needs a status");
    *count = static_cast<int>(static_cast<std::size_t>(status->bytes) /
                              mpi_type_size(type));
    return MPI_SUCCESS;
}

double MPI_Wtime() { return bound().hrtime(); }

}  // namespace dynmpi::mpi
