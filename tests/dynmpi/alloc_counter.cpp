#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

bool g_counting = false;
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
    if (g_counting) ++g_allocations;
    return std::malloc(n == 0 ? 1 : n);
}

void* checked_alloc(std::size_t n) {
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}

}  // namespace

namespace dynmpi::test {

void start_counting_allocations() {
    g_allocations = 0;
    g_counting = true;
}

std::size_t stop_counting_allocations() {
    g_counting = false;
    return g_allocations;
}

}  // namespace dynmpi::test

// Every form is replaced, so each block is released by the free() that
// matches its malloc(), also under the sanitizer.
void* operator new(std::size_t n) { return checked_alloc(n); }
void* operator new[](std::size_t n) { return checked_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
