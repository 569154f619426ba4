#include "dynmpi/replica.hpp"

#include "support/error.hpp"

namespace dynmpi {

ReplicaStore::ReplicaStore(const std::vector<const DistArray*>& like) {
    for (const DistArray* a : like) shadows_.push_back(a->empty_like());
}

DistArray& ReplicaStore::shadow(std::size_t array_idx) const {
    DYNMPI_REQUIRE(array_idx < shadows_.size(), "replica store: bad array");
    return *shadows_[array_idx];
}

// dynmpi-lint: repair-critical
RowSet ReplicaStore::store_blob(std::size_t array_idx,
                                const std::vector<std::byte>& blob) {
    return shadow(array_idx).unpack_rows(blob);
}

// dynmpi-lint: repair-critical
std::vector<std::byte> ReplicaStore::extract(std::size_t array_idx,
                                             const RowSet& rows) const {
    const DistArray& s = shadow(array_idx);
    return s.pack_rows(rows.intersect(s.held()));
}

void ReplicaStore::retain_only(std::size_t array_idx, const RowSet& keep) {
    shadow(array_idx).retain_only(keep);
}

void ReplicaStore::clear() {
    for (auto& s : shadows_) s->retain_only(RowSet());
}

}  // namespace dynmpi
