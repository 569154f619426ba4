// Nonblocking point-to-point operations (MPI_Isend/Irecv/Wait/Test style).
//
// The message layer is eager and buffered, so an isend completes as soon as
// the local CPU work is charged, and an irecv is a recorded intent that is
// satisfied from the mailbox at wait/test time.  Requests exist for
// source-compatibility with MPI-structured programs (post-all-receives,
// compute, wait) and for overlap tests.
#pragma once

#include <cstddef>

#include "mpisim/tags.hpp"

namespace dynmpi::msg {

class Rank;

class Request {
public:
    Request() = default;

    bool valid() const { return kind_ != Kind::Null; }
    bool completed() const { return complete_; }

    /// Actual source rank and user tag (valid for completed receives).
    int source() const { return src_; }
    int tag() const { return tag_; }

private:
    friend class Rank;

    enum class Kind { Null, Send, Recv };

    Kind kind_ = Kind::Null;
    RecvMatch match_;
    void* buffer_ = nullptr;
    std::size_t capacity_ = 0;
    bool complete_ = false;
    std::size_t received_ = 0;
    int src_ = -1;
    int tag_ = -1;
};

}  // namespace dynmpi::msg
