#include "translate/translator.hpp"

#include <algorithm>
#include <sstream>

#include "support/error.hpp"

namespace dynmpi::xlate {

ArrayRef globalize(const std::string& array, AccessMode mode,
                   int local_offset) {
    // Local block index local_i maps to global i = block_start + local_i, so
    // A[local_i + offset] is the global affine reference (a=1, b=offset).
    // This is the reverse of the Fortran D global→local translation (§2.3).
    ArrayRef r;
    r.array = array;
    r.mode = mode;
    r.a = 1;
    r.b = local_offset;
    return r;
}

namespace {

const ArrayDecl& find_array(const MpiProgram& p, const std::string& name) {
    for (const auto& a : p.arrays)
        if (a.name == name) return a;
    throw Error("translated program references unknown array: " + name);
}

PhaseComm infer_comm(const MpiProgram& p, const LoopNest& loop) {
    bool any_full = false;
    int max_offset = 0;
    std::size_t full_bytes = 0, row_bytes = 0;
    for (const auto& r : loop.refs) {
        const ArrayDecl& a = find_array(p, r.array);
        std::size_t rb = a.sparse
                             ? static_cast<std::size_t>(
                                   std::max(1, a.sparse_cols / 16)) *
                                   (sizeof(int) + sizeof(double))
                             : static_cast<std::size_t>(a.row_elems) *
                                   a.elem_bytes;
        if (r.full_range) {
            any_full = true;
            full_bytes = std::max(
                full_bytes, static_cast<std::size_t>(p.global_rows) *
                                a.elem_bytes * (a.sparse ? 0 : 1));
            // Gathered vectors are dense; sparse full-range reads gather the
            // dense operand, handled by the vector arrays in practice.
            if (a.sparse) full_bytes = std::max(full_bytes, rb);
        } else if (r.b != 0) {
            max_offset = std::max(max_offset, std::abs(r.b));
            row_bytes = std::max(row_bytes, rb);
        }
    }
    if (any_full)
        return PhaseComm{CommPattern::AllGather,
                         full_bytes > 0 ? full_bytes : row_bytes};
    if (max_offset > 0)
        return PhaseComm{CommPattern::NearestNeighbor, row_bytes};
    return PhaseComm{CommPattern::None, 0};
}

}  // namespace

TranslationPlan translate(const MpiProgram& program) {
    DYNMPI_REQUIRE(program.global_rows > 0, "program needs a row space");
    DYNMPI_REQUIRE(!program.loops.empty(), "program needs at least one loop");
    TranslationPlan plan;
    plan.program = program.name;
    plan.global_rows = program.global_rows;
    plan.registrations = program.arrays;

    for (std::size_t li = 0; li < program.loops.size(); ++li) {
        const LoopNest& loop = program.loops[li];
        DYNMPI_REQUIRE(loop.lo >= 0 && loop.hi <= program.global_rows &&
                           loop.lo < loop.hi,
                       "loop bounds outside the row space");
        PhasePlan pp;
        pp.lo = loop.lo;
        pp.hi = loop.hi;
        pp.comm = infer_comm(program, loop);

        // DRSD derivation with dedup: one DMPI_add_array_access per distinct
        // (array, mode, a, b).  Full-range reads become the whole-array
        // descriptor the runtime treats as "needs every row it can get"; for
        // row-distributed operands the gather happens at the app level, so
        // they contribute no DRSD beyond ownership.
        for (const auto& r : loop.refs) {
            find_array(program, r.array); // validates
            Drsd d;
            d.array = r.array;
            d.mode = r.mode;
            d.phase = static_cast<int>(li);
            if (r.full_range) {
                // The gathered operand is fetched by explicit communication
                // each cycle; ownership alone decides placement.
                d.a = 1;
                d.b = 0;
            } else {
                DYNMPI_REQUIRE(r.a != 0, "degenerate affine reference");
                d.a = r.a;
                d.b = r.b;
            }
            bool dup = std::any_of(
                pp.accesses.begin(), pp.accesses.end(), [&](const Drsd& e) {
                    return e.array == d.array && e.mode == d.mode &&
                           e.a == d.a && e.b == d.b;
                });
            if (!dup) pp.accesses.push_back(std::move(d));
        }
        plan.phases.push_back(std::move(pp));
    }
    return plan;
}

namespace {
const char* mode_name(AccessMode m) {
    return m == AccessMode::Write ? "DMPI_WRITE" : "DMPI_READ";
}
const char* pattern_name(CommPattern p) {
    switch (p) {
    case CommPattern::NearestNeighbor: return "DMPI_NEAREST_NEIGHBOR";
    case CommPattern::AllGather: return "DMPI_ALLGATHER";
    case CommPattern::None: return "DMPI_NONE";
    }
    return "?";
}
}  // namespace

std::string emit_source(const TranslationPlan& plan) {
    std::ostringstream os;
    os << "// " << plan.program << ": generated by the Dyn-MPI translator\n";
    os << "// regular MPI initialization omitted\n";
    os << "DMPI_init(rank, " << plan.global_rows << ");\n";
    for (const auto& a : plan.registrations) {
        if (a.sparse)
            os << "DMPI_register_sparse_array(\"" << a.name << "\", "
               << a.sparse_cols << ");\n";
        else
            os << "DMPI_register_dense_array(\"" << a.name << "\", "
               << a.row_elems << ", " << a.elem_bytes << ");\n";
    }
    for (std::size_t ph = 0; ph < plan.phases.size(); ++ph) {
        const PhasePlan& p = plan.phases[ph];
        os << "int phase" << ph << " = DMPI_init_phase(" << p.lo << ", "
           << p.hi << ", " << pattern_name(p.comm.pattern) << ", "
           << p.comm.bytes_per_message << ");\n";
        for (const auto& d : p.accesses)
            os << "DMPI_add_array_access(\"" << d.array << "\", "
               << mode_name(d.mode) << ", phase" << ph << ", " << d.a << ", "
               << d.b << ");\n";
    }
    os << "DMPI_commit();\n";
    os << "for (t = 0; t < num_iters; t++) {\n";
    os << "  DMPI_begin_cycle();\n";
    for (std::size_t ph = 0; ph < plan.phases.size(); ++ph) {
        os << "  start_iter = DMPI_get_start_iter(phase" << ph << ");\n";
        os << "  end_iter = DMPI_get_end_iter(phase" << ph << ");\n";
    }
    os << "  if (DMPI_participating()) {\n";
    os << "    // original loop bodies, bounds rewritten; neighbor ranks\n";
    os << "    // rewritten to DMPI_get_rel_rank()/DMPI_get_num_active()\n";
    os << "  }\n";
    os << "  DMPI_end_cycle();\n";
    os << "}\n";
    return os.str();
}

std::vector<int> configure_runtime(Runtime& rt, const TranslationPlan& plan) {
    DYNMPI_REQUIRE(rt.global_rows() == plan.global_rows,
                   "runtime row space does not match the plan");
    for (const auto& a : plan.registrations) {
        if (a.sparse)
            rt.register_sparse(a.name, a.sparse_cols);
        else
            rt.register_dense(a.name, a.row_elems, a.elem_bytes);
    }
    std::vector<int> phase_ids;
    for (const auto& p : plan.phases) {
        int ph = rt.init_phase(p.lo, p.hi, p.comm);
        for (const auto& d : p.accesses)
            rt.add_array_access(d.array, d.mode, ph, d.a, d.b);
        phase_ids.push_back(ph);
    }
    rt.commit_setup();
    return phase_ids;
}

TranslatedRunResult run_translated(msg::Rank& rank, const MpiProgram& program,
                                   int cycles, double sec_per_row,
                                   RuntimeOptions options) {
    TranslationPlan plan = translate(program);
    // The generic executor's ghost exchange assumes every active node holds
    // part of each nearest-neighbor phase; sub-span phases would need the
    // application's own communication structure.
    for (const auto& p : plan.phases)
        DYNMPI_REQUIRE(p.comm.pattern != CommPattern::NearestNeighbor ||
                           (p.lo == 0 && p.hi == plan.global_rows),
                       "run_translated requires full-span nearest-neighbor "
                       "phases");
    Runtime rt(rank, plan.global_rows, std::move(options));
    std::vector<int> phases = configure_runtime(rt, plan);

    for (int c = 0; c < cycles; ++c) {
        rt.begin_cycle();
        if (rt.participating()) {
            for (std::size_t pi = 0; pi < phases.size(); ++pi) {
                const PhasePlan& pp = plan.phases[pi];
                int ph = phases[pi];
                const RowSet& iters = rt.my_iters(ph);
                if (!iters.empty()) {
                    // Perform the phase's inferred communication the way the
                    // rewritten program would.
                    if (pp.comm.pattern == CommPattern::NearestNeighbor) {
                        int rel = rt.rel_rank(), n = rt.num_active();
                        std::vector<std::byte> buf(pp.comm.bytes_per_message);
                        if (rel > 0)
                            rt.send_rel(rel - 1, 60 + (int)pi, buf.data(),
                                        buf.size());
                        if (rel < n - 1)
                            rt.send_rel(rel + 1, 80 + (int)pi, buf.data(),
                                        buf.size());
                        if (rel < n - 1)
                            rt.recv_rel(rel + 1, 60 + (int)pi, buf.data(),
                                        buf.size());
                        if (rel > 0)
                            rt.recv_rel(rel - 1, 80 + (int)pi, buf.data(),
                                        buf.size());
                    } else if (pp.comm.pattern == CommPattern::AllGather) {
                        std::vector<double> mine(
                            static_cast<std::size_t>(iters.count()), 1.0);
                        msg::allgather(rank, rt.active_group(), mine);
                    }
                    rt.run_phase(ph, std::vector<double>(
                                         static_cast<std::size_t>(
                                             iters.count()),
                                         sec_per_row));
                }
            }
        }
        rt.end_cycle();
    }

    TranslatedRunResult out;
    out.stats = rt.stats();
    out.final_counts = rt.distribution().counts();
    return out;
}

}  // namespace dynmpi::xlate
