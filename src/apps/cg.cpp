#include "apps/cg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace dynmpi::apps {

namespace {

/// Symmetric band offsets; values depend only on the unordered pair, so the
/// matrix is symmetric by construction, and the diagonal dominates the
/// absolute row sum, so it is positive definite.
constexpr int kBand[] = {1, 7, 41};

double offdiag_value(std::uint64_t seed, int lo, int hi) {
    std::uint64_t h = hash_combine(hash_combine(seed, (std::uint64_t)lo),
                                   (std::uint64_t)hi);
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return -0.1 - 0.4 * u; // in [-0.5, -0.1]; 6 entries < diag 4.0
}

double diag_value(std::uint64_t seed, int r) {
    std::uint64_t h = hash_combine(seed ^ 0xD1A6ULL, (std::uint64_t)r);
    return 4.0 + static_cast<double>(h >> 11) * 0x1.0p-53;
}

double rhs_value(int r) { return 1.0 + 0.01 * (r % 13); }

/// Stored entries of row r: (col, value) pairs including the diagonal.
std::vector<std::pair<int, double>> row_entries(const CgConfig& cfg, int r) {
    std::vector<std::pair<int, double>> out;
    for (int band : kBand) {
        if (r - band >= 0)
            out.emplace_back(r - band, offdiag_value(cfg.seed, r - band, r));
    }
    out.emplace_back(r, diag_value(cfg.seed, r));
    for (int band : kBand) {
        if (r + band < cfg.n)
            out.emplace_back(r + band, offdiag_value(cfg.seed, r, r + band));
    }
    return out;
}

/// Sum of a[i] * b[i] over `rows`, ascending.  The writable spans mark
/// the rows of both arrays dirty, as the element accessors did.
double local_dot(const RowSet& rows, DenseArray& a, DenseArray& b) {
    double s = 0.0;
    a.for_each_span(rows, [&](int lo, int hi) {
        const double* x = a.span_ptr<double>(lo, hi);
        const double* y = b.span_ptr<double>(lo, hi);
        for (int k = 0; k < hi - lo; ++k) s += x[k] * y[k];
    });
    return s;
}

/// x += alpha * p and r -= alpha * q over `rows`; marks all four dirty.
void update_xr(const RowSet& rows, double alpha, DenseArray& X, DenseArray& R,
               DenseArray& P, DenseArray& Q) {
    X.for_each_span(rows, [&](int lo, int hi) {
        double* x = X.span_ptr<double>(lo, hi);
        double* r = R.span_ptr<double>(lo, hi);
        const double* p = P.span_ptr<double>(lo, hi);
        const double* q = Q.span_ptr<double>(lo, hi);
        for (int k = 0; k < hi - lo; ++k) {
            x[k] += alpha * p[k];
            r[k] -= alpha * q[k];
        }
    });
}

/// p = r + beta * p over `rows`; marks both dirty.
void update_p(const RowSet& rows, double beta, DenseArray& R, DenseArray& P) {
    P.for_each_span(rows, [&](int lo, int hi) {
        const double* r = R.span_ptr<double>(lo, hi);
        double* p = P.span_ptr<double>(lo, hi);
        for (int k = 0; k < hi - lo; ++k) p[k] = r[k] + beta * p[k];
    });
}

/// Copies a's values over `rows`, in row order, to `out`.  The read goes
/// through the writable spans, so it marks those rows dirty.
void read_rows(DenseArray& a, const RowSet& rows, double* out) {
    a.for_each_span(rows, [&](int lo, int hi) {
        const double* in = a.span_ptr<double>(lo, hi);
        out = std::copy(in, in + (hi - lo), out);
    });
}

/// Copies `in`, in row order, to a's rows `rows`.
void write_rows(DenseArray& a, const RowSet& rows, const double* in) {
    a.for_each_span(rows, [&](int lo, int hi) {
        std::copy(in, in + (hi - lo), a.span_ptr<double>(lo, hi));
        in += hi - lo;
    });
}

/// The full search direction p, one value per row of the phase [0, n).
struct FullP {
    msg::Gathered<double> gathered;      ///< every member's rows, as sent
    std::unique_ptr<double[]> in_order;  ///< cyclic layouts: p scattered
    const double* get() const {
        return in_order ? in_order.get() : gathered.data();
    }
};

/// Gather p (AllGather pattern), sending this node's rows from `vals`, a
/// buffer the caller keeps across cycles.  Under a block layout the
/// gathered buffer already is p in row order; a cyclic layout scatters it
/// once, into a buffer that is not zero-filled first because every slot is
/// written.  Callers free both right after the matrix product: held across
/// the yields that follow, they would raise peak memory.
FullP gather_p(msg::Rank& rank, const Runtime& rt, const RowSet& mine,
               DenseArray& P, int n, std::vector<double>& vals) {
    vals.resize(static_cast<std::size_t>(mine.count()));
    read_rows(P, mine, vals.data());
    FullP p{msg::allgather(rank, rt.active_group(), vals), nullptr};
    const Distribution& dist = rt.distribution();
    DYNMPI_CHECK(p.gathered.size() == static_cast<std::size_t>(n),
                 "gathered p misses rows");
    for (int rel = 0; rel < p.gathered.members(); ++rel)
        DYNMPI_CHECK(p.gathered.length(rel) ==
                         static_cast<std::size_t>(dist.count_of(rel)),
                     "gathered p misaligned");
    if (dist.kind() == Distribution::Kind::Block) return p;

    p.in_order =
        std::make_unique_for_overwrite<double[]>(static_cast<std::size_t>(n));
    const double* v = p.gathered.data();
    for (int rel = 0; rel < p.gathered.members(); ++rel)
        dist.for_each_interval(rel, [&](RowInterval iv) {
            std::copy(v, v + iv.size(), p.in_order.get() + iv.lo);
            v += iv.size();
        });
    return p;
}

/// q = A * p over `rows`.  Refills `costs`, a buffer the caller keeps
/// across cycles, with each row's virtual cost, which tracks its stored
/// entries.
void apply_a(const CgConfig& cfg, const RowSet& rows, const SparseMatrix& A,
             const double* full_p, DenseArray& Q, std::vector<double>& costs) {
    costs.clear();
    Q.for_each_span(rows, [&](int lo, int hi) {
        double* q = Q.span_ptr<double>(lo, hi);
        for (int i = lo; i < hi; ++i) {
            const SparseMatrix::RowList& row = A.row(i);
            double s = 0.0;
            for (const auto& e : row) s += e.value * full_p[e.col];
            q[i - lo] = s;
            costs.push_back(cfg.sec_per_nnz * static_cast<int>(row.size()));
        }
    });
}

/// The cycle-start values of the four vectors over some rows, in row
/// order.  Taking and restoring each mark all four vectors dirty over
/// those rows.
struct CgSnapshot {
    std::array<std::vector<double>, 4> vals;

    void take(const RowSet& rows, const std::array<DenseArray*, 4>& vecs) {
        for (std::size_t v = 0; v < vecs.size(); ++v) {
            vals[v].resize(static_cast<std::size_t>(rows.count()));
            read_rows(*vecs[v], rows, vals[v].data());
        }
    }

    void restore(const RowSet& rows, const std::array<DenseArray*, 4>& vecs) {
        for (std::size_t v = 0; v < vecs.size(); ++v)
            write_rows(*vecs[v], rows, vals[v].data());
    }
};

/// The CG arrays on one runtime: the matrix A and the vectors x, r, p, q,
/// all written by the single phase `ph` over [0, n).
struct CgArrays {
    SparseMatrix& A;
    DenseArray &X, &R, &P, &Q;
    int ph;
};

/// Register the arrays and the phase, commit, and fill this node's rows.
CgArrays setup_cg(Runtime& rt, const CgConfig& config) {
    const int n = config.n;
    CgArrays c{rt.register_sparse("A", n),
               rt.register_dense("x", 1, sizeof(double)),
               rt.register_dense("r", 1, sizeof(double)),
               rt.register_dense("p", 1, sizeof(double)),
               rt.register_dense("q", 1, sizeof(double)),
               rt.init_phase(0, n,
                             PhaseComm{CommPattern::AllGather,
                                       static_cast<std::size_t>(n) *
                                           sizeof(double)})};
    for (const char* name : {"A", "x", "r", "p", "q"})
        rt.add_array_access(name, AccessMode::Write, c.ph, 1, 0);
    rt.commit_setup();
    for (int i : rt.my_iters(c.ph).to_vector()) {
        for (auto [col, v] : row_entries(config, i)) c.A.set(i, col, v);
        c.X.at<double>(i, 0) = 0.0;
        c.R.at<double>(i, 0) = rhs_value(i);
        c.P.at<double>(i, 0) = rhs_value(i);
        c.Q.at<double>(i, 0) = 0.0;
    }
    return c;
}

}  // namespace

std::vector<double> reference_cg_residuals(const CgConfig& cfg) {
    const int n = cfg.n;
    std::vector<double> x(n, 0.0), r(n), p(n), q(n);
    for (int i = 0; i < n; ++i) r[(size_t)i] = rhs_value(i);
    p = r;
    double rr = 0.0;
    for (int i = 0; i < n; ++i) rr += r[(size_t)i] * r[(size_t)i];

    // Each row's entries, built once and walked in the same order on every
    // iteration.
    std::vector<std::vector<std::pair<int, double>>> rows(n);
    for (int i = 0; i < n; ++i) rows[(size_t)i] = row_entries(cfg, i);

    std::vector<double> history;
    for (int it = 0; it < cfg.cycles; ++it) {
        for (int i = 0; i < n; ++i) {
            double s = 0.0;
            for (auto [c, v] : rows[(size_t)i]) s += v * p[(size_t)c];
            q[(size_t)i] = s;
        }
        double pq = 0.0;
        for (int i = 0; i < n; ++i) pq += p[(size_t)i] * q[(size_t)i];
        double alpha = rr / pq;
        for (int i = 0; i < n; ++i) {
            x[(size_t)i] += alpha * p[(size_t)i];
            r[(size_t)i] -= alpha * q[(size_t)i];
        }
        double rr_new = 0.0;
        for (int i = 0; i < n; ++i) rr_new += r[(size_t)i] * r[(size_t)i];
        double beta = rr_new / rr;
        rr = rr_new;
        for (int i = 0; i < n; ++i)
            p[(size_t)i] = r[(size_t)i] + beta * p[(size_t)i];
        history.push_back(rr);
    }
    return history;
}

CgResult run_cg(msg::Rank& rank, const CgConfig& config) {
    const int n = config.n;
    Runtime rt(rank, n, config.runtime);
    auto [A, X, R, P, Q, ph] = setup_cg(rt, config);

    double rr = rt.allreduce_active(
        rt.participating() ? local_dot(rt.my_iters(ph), R, R) : 0.0,
        msg::OpSum{});

    CgResult out;
    std::vector<double> vals, costs;
    for (int cycle = 0; cycle < config.cycles; ++cycle) {
        fire_hook(config.on_cycle, rank, cycle);
        rt.begin_cycle();
        if (rt.participating()) {
            const RowSet& mine = rt.my_iters(ph);
            apply_a(config, mine, A,
                    gather_p(rank, rt, mine, P, n, vals).get(), Q, costs);
            rt.run_phase(ph, costs);
        }

        double pq = rt.allreduce_active(
            rt.participating() ? local_dot(rt.my_iters(ph), P, Q) : 0.0,
            msg::OpSum{});
        double alpha = rr / pq;
        if (rt.participating()) update_xr(rt.my_iters(ph), alpha, X, R, P, Q);
        double rr_new = rt.allreduce_active(
            rt.participating() ? local_dot(rt.my_iters(ph), R, R) : 0.0,
            msg::OpSum{});
        double beta = rr_new / rr;
        rr = rr_new;
        if (rt.participating()) update_p(rt.my_iters(ph), beta, R, P);
        out.residual_history.push_back(rr);
        rt.end_cycle();
    }

    out.residual_norm2 = rr;
    out.checksum = rr;
    fill_common_result(out, rt);
    return out;
}

CgRecoverResult run_cg_recoverable(msg::Rank& rank, const CgConfig& config) {
    const int n = config.n;
    DYNMPI_REQUIRE(config.runtime.replicate,
                   "run_cg_recoverable requires RuntimeOptions.replicate");
    Runtime rt(rank, n, config.runtime);
    auto [A, X, R, P, Q, ph] = setup_cg(rt, config);

    auto sum_active = [&](double v) {
        return msg::allreduce_scalar(rank, rt.active_group(), v, msg::OpSum{});
    };

    double rr = sum_active(local_dot(rt.my_iters(ph), R, R));

    CgRecoverResult out;
    int repairs_seen = rt.stats().crash_repairs;
    const std::array<DenseArray*, 4> vecs{&X, &R, &P, &Q};
    CgSnapshot snap;
    std::vector<double> vals, costs;
    for (int cycle = 0; cycle < config.cycles; ++cycle) {
        fire_hook(config.on_cycle, rank, cycle);
        for (;;) {
            // Snapshot the cycle-start state of my rows.  After a rollback
            // the restored + rolled-back rows are again at cycle start, so
            // re-snapshotting each attempt also covers freshly adopted rows
            // before a possible second crash.
            const RowSet snap_rows = rt.my_iters(ph);
            snap.take(snap_rows, vecs);
            const double rr_snap = rr;

            try {
                rt.begin_cycle();
                const RowSet& mine = rt.my_iters(ph);
                apply_a(config, mine, A,
                        gather_p(rank, rt, mine, P, n, vals).get(), Q, costs);
                rt.run_phase(ph, costs);

                double pq = sum_active(local_dot(rt.my_iters(ph), P, Q));
                update_xr(mine, rr / pq, X, R, P, Q);
                double rr_new = sum_active(local_dot(rt.my_iters(ph), R, R));
                double beta = rr_new / rr;
                rr = rr_new;
                update_p(mine, beta, R, P);
                rt.end_cycle();
            } catch (const msg::EpochRevoked&) {
                // A peer died mid-cycle, and its crash woke every rank out
                // of the abandoned collective.  Join the survivors in
                // end_cycle: its monitoring pass repairs the active set and
                // restores the dead node's rows from the buddy.
                rt.end_cycle();
            }
            if (rt.stats().crash_repairs == repairs_seen) break;
            // A crash was repaired somewhere in this cycle (possibly after
            // the arithmetic above completed): roll my rows and rr back to
            // the snapshot and redo the whole cycle against the repaired
            // ownership.  The adopter's restored rows already hold the
            // cycle-start state, so no rollback is needed for them.
            repairs_seen = rt.stats().crash_repairs;
            ++out.redo_cycles;
            snap.restore(snap_rows, vecs);
            rr = rr_snap;
        }
        out.residual_history.push_back(rr);
    }

    // Bitwise row compare: restored matrix rows must match the generator
    // exactly, not approximately.  Stored rows are col-sorted; the generator
    // emits bands outward from the diagonal, so sort before comparing.
    for (int i : rt.my_iters(ph).to_vector()) {
        auto expect = row_entries(config, i);
        std::sort(expect.begin(), expect.end());
        const auto& got = A.row(i);
        out.matrix_intact =
            out.matrix_intact &&
            std::equal(got.begin(), got.end(), expect.begin(), expect.end(),
                       [](const SparseEntry& e, const auto& x) {
                           return e.col == x.first && e.value == x.second;
                       });
    }

    out.residual_norm2 = rr;
    out.checksum = rr;
    fill_common_result(out, rt);
    return out;
}

}  // namespace dynmpi::apps
