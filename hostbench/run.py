#!/usr/bin/env python3
"""Host-time benchmark of the Dyn-MPI simulator.

Run from the repository root:

  python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 hostbench/run.py --self-test [--workload NAME]
  python3 hostbench/run.py --record-reference --workload NAME --seed N

The first form builds hostbench_run (hostbench/CMakeLists.txt) from source,
then runs the workload again and again, one process per repetition and one
at a time, each on the CPU that was idlest just before it started, until S
seconds are used (at least three repetitions).  Each repetition is checked.
The last line of stdout is one JSON object.  With --trace 0 it holds the
end-to-end metrics: process CPU times divided by the host slowdown that
the calibration kernels measured, so that they read as on the reference
host.  With --trace 1, untraced and traced attempts alternate, and it
holds the per-layer metrics.

--self-test runs each workload twice on the committed seed and requires
identical exact counters.  --record-reference stores a seed's virtual time
and checksum in reference.json; use it only when virtual time changes on
purpose.

See hostbench/README.md for the workloads, metrics and seed-commit numbers.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["jacobi4-cp-twice", "sor32-drop", "cg8-cyclic",
             "cg8-crash-replica"]
CG_WORKLOADS = {"cg8-cyclic", "cg8-crash-replica"}
MIN_REPS = 3
MAX_ATTEMPTS = 60
HARD_LIMIT_S = 100.0  # never start an attempt after this much time
REP_TIMEOUT_S = 60.0
CHECKSUM_RTOL = 1e-9

# Scenario outcomes every seed must reproduce (the layer each workload
# stresses depends on them).
EXPECTED = {
    "jacobi4-cp-twice": {"redistributions": 2, "final_active": 4},
    "sor32-drop": {"redistributions": 2, "physical_drops": 1,
                   "final_active": 31},
    "cg8-cyclic": {"redistributions": 1, "final_active": 8},
    "cg8-crash-replica": {"crash_repairs": 1, "final_active": 7},
}

# Share of run_s each workload spent handing the baton between threads at
# the seed commit: (msg.sys_s + sim.engine_cpu_s) / run_s in its traced run
# (README.md, "Layer shares").  It weights the baton calibration kernel
# against the stencil kernel in the workload's host slowdown.
HANDOFF_SHARE = {
    "jacobi4-cp-twice": 0.03,
    "sor32-drop": 0.78,
    "cg8-cyclic": 0.05,
    "cg8-crash-replica": 0.15,
}

MODES = ["monitor", "grace", "post_grace"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build hostbench_run; return its path or exit 1."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench_run",
                   "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "hostbench_run")


def idle_ticks():
    """Idle + iowait clock ticks of each CPU so far, from /proc/stat."""
    ticks = {}
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith("cpu") and line[3].isdigit():
                fields = line.split()
                ticks[int(fields[0][3:])] = int(fields[4]) + int(fields[5])
    return ticks


def idlest_cpu(window_s=0.05):
    """The allowed CPU that was idle longest over the last `window_s`;
    ties go to the highest-numbered one."""
    allowed = os.sched_getaffinity(0)
    try:
        before = idle_ticks()
        time.sleep(window_s)
        after = idle_ticks()
    except (OSError, ValueError, IndexError):
        return max(allowed)
    return max(allowed, key=lambda c: (after.get(c, 0) - before.get(c, 0), c))


def run_rep(binary, workload, seed, trace_path=None, probes=False):
    """One repetition in its own process, confined to one CPU: the parsed
    record, or None.  The baton lets one simulator thread run at a time, so
    one CPU loses no parallelism, while a handoff across CPUs would time the
    host's wake-up latency instead of the program (see README.md).  The CPU
    is chosen afresh for each repetition, so a busy neighbour on one CPU
    does not slow every repetition."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if trace_path:
        cmd += ["--trace", trace_path]
    if probes:
        cmd.append("--probes")
    cpu = idlest_cpu()

    def confine():
        os.sched_setaffinity(0, {cpu})

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S, preexec_fn=confine)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: repetition timed out")
        return None
    if proc.returncode != 0:
        log(f"{workload} seed {seed}: exit {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{workload} seed {seed}: unparsable output")
        return None


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check(rep, workload, seed, ref, first_exact):
    """Correctness checks of one repetition: a list of (name, passed)."""
    if rep is None:
        return [("completed", False)]
    exact = rep["exact"]
    out = [("completed", True)]
    known = ref["workloads"].get(workload, {})
    stored = known.get(str(seed))
    if stored is not None:
        out.append(("virtual_s == reference",
                    exact["virtual_s"] == stored["virtual_s"]))
        out.append(("checksum == reference",
                    exact["checksum"] == stored["checksum"]))
    else:
        out.append(("virtual_s finite", math.isfinite(exact["virtual_s"])
                    and exact["virtual_s"] > 0))
        if workload not in CG_WORKLOADS:
            base = known[str(ref["committed_seed"])]["checksum"]
            out.append(("checksum ~ committed seed",
                        abs(exact["checksum"] - base)
                        <= CHECKSUM_RTOL * abs(base)))
    if workload in CG_WORKLOADS:
        out.append(("CG residuals ~ reference solver", rep["cg_residuals_ok"]))
    if workload == "cg8-crash-replica":
        out.append(("matrix intact", rep["matrix_intact"]))
    for key, want in EXPECTED[workload].items():
        out.append((f"{key} == {want}", exact[key] == want))
    if first_exact is not None:
        out.append(("exact counters repeat", exact == first_exact))
    return out


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) of a non-empty list."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_benchmark(binary, workload, seed, seconds, trace):
    """Attempt repetitions until `seconds` are used.

    Returns (untraced, traced, checks); the first two map the attempt index
    to the record of each attempt that completed.  With `trace`, even
    attempts run untraced and odd ones traced, and short of the attempt and
    time limits the run stops only after an odd attempt, so attempts 2i and
    2i+1 form a pair.  A failed attempt counts toward those limits like a
    completed one, so failures cannot keep the run going."""
    ref = load_reference()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    durations = []
    untraced, traced, checks = {}, {}, []
    first_exact = None
    step = 2 if trace else 1
    for attempt in range(MAX_ATTEMPTS):
        elapsed = time.monotonic() - start
        est = statistics.median(durations) if durations else 0.0
        if elapsed > HARD_LIMIT_S:
            break
        if (attempt % step == 0 and attempt >= step * MIN_REPS and
                elapsed + step * est > seconds):
            break
        traced_rep = attempt % step == 1
        t0 = time.monotonic()
        if traced_rep:
            path = os.path.join(out_dir, f"{workload}-seed{seed}-"
                                         f"rep{attempt}.trace.json")
            rep = run_rep(binary, workload, seed, path, probes=not traced)
        else:
            rep = run_rep(binary, workload, seed)
        durations.append(time.monotonic() - t0)
        checks += check(rep, workload, seed, ref, first_exact)
        if rep is None:
            continue
        if first_exact is None:
            first_exact = rep["exact"]
        (traced if traced_rep else untraced)[attempt] = rep
    return untraced, traced, checks


def cycle_medians(reps):
    """Per cycle, the median over repetitions of that cycle's time.  Every
    repetition of a seed does the same work in cycle c, so this keeps the
    shape of the run while a stall in one repetition drops out."""
    return [statistics.median(r["cycle_ms"][c] for r in reps)
            for c in range(len(reps[0]["cycle_ms"]))]


def host_slowdown(reps, workload, ref):
    """How many times slower than on the reference host the calibration
    kernels ran during these repetitions, mixed in the workload's own
    proportion of compute to baton handoffs."""
    base = ref["calibration"]
    stencil = statistics.median(r["calib"]["stencil_s"] for r in reps)
    baton = statistics.median(r["calib"]["baton_s"] for r in reps)
    h = HANDOFF_SHARE[workload]
    return ((1.0 - h) * stencil / base["stencil_s"] +
            h * baton / base["baton_s"])


def end_to_end(reps, slowdown):
    """Every time is divided by `slowdown`, so it reads as on the reference
    host; peak_rss_mb is not a time and is not scaled."""
    cycles = cycle_medians(reps)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps) / slowdown,
                    "s"),
        "run_s": (statistics.median(r["run_s"] for r in reps) / slowdown, "s"),
        "cycle_ms.p50": (percentile(cycles, 50) / slowdown, "ms"),
        "cycle_ms.p90": (percentile(cycles, 90) / slowdown, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
    }, len(cycles)


def per_layer(untraced, traced_by_attempt):
    """Per-layer metrics from the traced repetitions, plus notes on the
    ones that do not apply to this workload."""
    traced = list(traced_by_attempt.values())

    def med(key):
        return statistics.median(r[key] for r in traced)

    ex = traced[0]["exact"]
    probe = traced[0]
    notes = {}
    m = {
        "apps.rank_cpu_s": (med("rank_cpu_s"), "s"),
        "sim.events": (ex["events"], "count"),
        "sim.peak_pending": (ex["peak_pending"], "count"),
        "sim.engine_cpu_s": (med("engine_cpu_s"), "s"),
        "sim.us_per_event": (statistics.median(
            r["run_s"] * 1e6 / r["exact"]["events"] for r in traced), "us"),
    }
    for space in ["user", "coll", "runtime", "control"]:
        m[f"msg.messages.{space}"] = (ex[f"messages.{space}"], "count")
        m[f"msg.bytes.{space}"] = (ex[f"bytes.{space}"], "B")
    m["msg.sys_s"] = (med("sys_s"), "s")
    m["msg.ctx_switches"] = (med("ctx_switches"), "count")
    m["msg.switches_per_event"] = (statistics.median(
        r["ctx_switches"] / r["exact"]["events"] for r in traced), "ratio")
    for n in ["2", "8", "32"]:
        m[f"msg.yield_us.{n}"] = (probe["yield_us"][n], "us")

    # Cycle intervals joined with the runtime's per-cycle mode records.
    modes = ex["cycle_modes"]
    by_mode = {k: [] for k in MODES}
    pre, post, redist_s = [], [], []
    for r in traced:
        flags = r["cycle_redistributed"]
        first = flags.index(1) if 1 in flags else len(flags)
        for c, ms in enumerate(r["cycle_ms"]):
            by_mode[MODES[modes[c]]].append(ms)
            if c < first:
                pre.append(ms)
            elif c > first:
                post.append(ms)
        redist_s.append(sum(ms for ms, f in zip(r["cycle_ms"], flags)
                            if f) / 1e3)
    for i, k in enumerate(MODES):
        m[f"runtime.cycles.{k}"] = (modes.count(i), "count")
    for k in MODES:
        samples = by_mode[k]
        if not samples:
            notes[f"runtime.cycle_ms.{k}.p50"] = f"no {k} cycles"
        m[f"runtime.cycle_ms.{k}.p50"] = (
            percentile(samples, 50) if samples else 0.0, "ms")
    no_redist = ex["redistributions"] == 0
    m["runtime.cycle_ms.pre_redist.p50"] = (percentile(pre, 50), "ms")
    m["runtime.cycle_ms.post_redist.p50"] = (
        percentile(post, 50) if post else 0.0, "ms")
    if no_redist:
        notes["runtime.cycle_ms.post_redist.p50"] = "no redistribution"
        notes["redist.cycle_s"] = "no redistribution"
    m["runtime.redistributions"] = (ex["redistributions"], "count")
    m["redist.rows_moved"] = (ex["rows_moved"], "count")
    m["redist.bytes"] = (ex["redist_bytes"], "B")
    m["redist.messages"] = (ex["redist_messages"], "count")
    m["redist.cycle_s"] = (statistics.median(redist_s), "s")
    m["redist.plan_us"] = (probe["plan_us"], "us")
    m["row_set.intervals_per_rank"] = (ex["intervals_per_rank"], "count")
    m["replica.bytes"] = (ex["replica_bytes"], "B")
    m["replica.restored_rows"] = (ex["restored_rows"], "count")
    m["runtime.crash_repairs"] = (ex["crash_repairs"], "count")
    if ex["replica_bytes"] == 0:
        notes["replica.bytes"] = "replication off"
        notes["replica.restored_rows"] = "replication off"
    m["trace.records"] = (probe["trace_records"], "count")
    pairs = [(untraced[a - 1], t) for a, t in traced_by_attempt.items()
             if a - 1 in untraced]
    if pairs:
        overhead = statistics.median(t["run_s"] / u["run_s"] - 1.0
                                     for u, t in pairs)
    else:
        overhead = 0.0
        notes["trace.overhead_frac"] = "no completed untraced/traced pair"
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m, notes


def layer_shares(traced):
    """Each layer's share of run_s, medians over traced repetitions, as
    (label, value) pairs.  The CPU figures cover the same window as run_s;
    sys time overlaps the rank and engine threads' CPU."""
    def share(key):
        return statistics.median(r[key] / r["run_s"] for r in traced)

    rows = [("apps.rank_cpu_s / run_s", share("rank_cpu_s")),
            ("sim.engine_cpu_s / run_s", share("engine_cpu_s")),
            ("msg.sys_s / run_s", share("sys_s")),
            ("(msg.sys_s + sim.engine_cpu_s) / run_s", statistics.median(
                (r["sys_s"] + r["engine_cpu_s"]) / r["run_s"]
                for r in traced))]
    ratios = []
    for r in traced:
        flags = r["cycle_redistributed"]
        if 1 not in flags:
            return rows
        first = flags.index(1)
        pre, post = r["cycle_ms"][:first], r["cycle_ms"][first + 1:]
        if not pre or not post:
            return rows
        ratios.append(percentile(pre, 50) / percentile(post, 50))
    rows.append(("pre/post-redistribution cycle_ms.p50",
                 statistics.median(ratios)))
    return rows


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_table(title, metrics, notes=None):
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"   (n/a: {notes[name]})" if notes and name in notes else ""
        print(f"  {name:34s} {fmt(value):>14s} {unit}{note}")


def bench_main(args):
    binary = build()
    untraced, traced, checks = run_benchmark(binary, args.workload, args.seed,
                                             args.seconds, args.trace)
    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)
    for name, ok in checks:
        if not ok:
            log(f"check failed: {name}")
    if not untraced or (args.trace and not traced):
        log("no untraced or no traced repetition completed")
        return 1
    reps = list(untraced.values())

    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(untraced)} untraced + {len(traced)} traced")
    slowdown = host_slowdown(reps, args.workload, load_reference())
    e2e, samples = end_to_end(reps, slowdown)
    print_table("end-to-end (untraced repetitions, process CPU time at "
                "reference host speed):", e2e)
    print(f"  cycle_ms samples: {samples} rank-0 cycle intervals, each the "
          f"median over {len(reps)} repetitions")
    raw, _ = end_to_end(reps, 1.0)
    def wall(key):
        return fmt(statistics.median(r[key] for r in reps))

    print(f"  host slowdown {slowdown:.4g}x; unscaled run_s "
          f"{fmt(raw['run_s'][0])} s (wall {wall('wall_run_s')} s), "
          f"setup_s {fmt(raw['setup_s'][0])} s "
          f"(wall {wall('wall_setup_s')} s)")
    print(f"  virtual_s {fmt(reps[0]['exact']['virtual_s'])} s (exact)   "
          f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    if args.trace:
        layers, notes = per_layer(untraced, traced)
        print_table("per-layer (traced repetitions):", layers, notes)
        print("layer shares of run_s (traced repetitions, medians):")
        for label, value in layer_shares(list(traced.values())):
            print(f"  {label:42s} {value:.3f}")
        chosen = layers
    else:
        chosen = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


def self_test(args):
    binary = build()
    seed = load_reference()["committed_seed"]
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        a = run_rep(binary, workload, seed)
        b = run_rep(binary, workload, seed)
        same = a is not None and b is not None and a["exact"] == b["exact"]
        if not same and a is not None and b is not None:
            diff = [k for k in a["exact"] if a["exact"][k] != b["exact"][k]]
            log(f"{workload}: counters differ: {', '.join(diff)}")
        print(f"[{'PASS' if same else 'FAIL'}] {workload}: two runs of seed "
              f"{seed} report identical exact counters")
        ok = ok and same
    return 0 if ok else 1


def record_reference(args):
    binary = build()
    rep = run_rep(binary, args.workload, args.seed)
    if rep is None:
        return 1
    ref = load_reference()
    ref["workloads"].setdefault(args.workload, {})[str(args.seed)] = {
        "virtual_s": rep["exact"]["virtual_s"],
        "checksum": rep["exact"]["checksum"],
    }
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"recorded {args.workload} seed {args.seed}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test(args)
    if not args.workload or args.seed is None:
        p.error("--workload and --seed are required")
    if args.record_reference:
        return record_reference(args)
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
