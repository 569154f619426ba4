// Fixture: a fully sanctioned file — the linter must stay silent.
#include <numeric>
#include <unordered_map>

enum class TagSpace { User, Collective, Runtime };
TagSpace tag_space(unsigned long long t);

// pid -> slot lookups only; never iterated.
struct Table {
    std::unordered_map<int, int> slots; // dynmpi-lint: ok(unordered-lookup)
};

int classify(unsigned long long t) {
    switch (tag_space(t)) {
    case TagSpace::User: return 0;
    case TagSpace::Collective: return 1;
    case TagSpace::Runtime: return 2;
    }
    return -1;
}

// A repair-critical function may call a same-named function of another
// namespace: only msg:: collectives throw.
// dynmpi-lint: repair-critical
int local_total(const int* v, int n) {
    return std::reduce(v, v + n, 0);
}
