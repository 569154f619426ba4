// The one byte codec behind every runtime wire format: the §4.1 row pack
// format (dist_array.hpp) and the control messages (dynmpi/control_wire.hpp).
//
// Fields are fixed-width and host-endian (the simulated cluster is one
// host).  WireWriter appends them; WireReader reads them back and checks
// every read against the bytes left, so a truncated or corrupt message
// throws Error rather than reading past its end.  Counts read through
// count() are checked against the remaining bytes before a caller sizes
// anything from them, and finish() rejects trailing bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/error.hpp"

namespace dynmpi {

class WireWriter {
public:
    explicit WireWriter(std::size_t reserve = 0) { out_.reserve(reserve); }

    void u32(std::uint32_t v) { bytes(&v, sizeof v); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::byte*>(p);
        out_.insert(out_.end(), b, b + n);
    }

    std::vector<std::byte> take() { return std::move(out_); }

private:
    std::vector<std::byte> out_;
};

class WireReader {
public:
    explicit WireReader(const std::vector<std::byte>& in)
        : data_(in.data()), size_(in.size()) {}
    /// A reader only views its buffer, which must outlive it.
    explicit WireReader(std::vector<std::byte>&&) = delete;

    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    double f64() { return get<double>(); }

    /// The next `n` bytes, in place.
    const std::byte* bytes(std::uint64_t n) {
        DYNMPI_REQUIRE(n <= remaining(), "truncated wire message");
        const std::byte* p = data_ + pos_;
        pos_ += static_cast<std::size_t>(n);
        return p;
    }

    /// A u64 element count whose elements, `elem_bytes` each, must fit in
    /// the bytes left.
    std::size_t count(std::size_t elem_bytes) {
        const std::uint64_t n = u64();
        DYNMPI_REQUIRE(n <= remaining() / elem_bytes,
                       "wire count exceeds the message");
        return static_cast<std::size_t>(n);
    }

    /// A u64 that must lie in [0, bound).
    int below(int bound) {
        const std::uint64_t v = u64();
        DYNMPI_REQUIRE(v < static_cast<std::uint64_t>(bound),
                       "wire value out of range");
        return static_cast<int>(v);
    }

    std::size_t remaining() const { return size_ - pos_; }

    /// Every byte must have been read.
    void finish() const {
        DYNMPI_REQUIRE(pos_ == size_, "trailing bytes in wire message");
    }

private:
    template <typename T>
    T get() {
        T v;
        std::memcpy(&v, bytes(sizeof v), sizeof v);
        return v;
    }

    const std::byte* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

}  // namespace dynmpi
