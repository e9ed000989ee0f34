/**
 * @file
 * Seeded crash-torture harness (stand-alone binary, not a gtest).
 *
 * Where the exhaustive enumerator (tests/test_fault_injection.cc)
 * covers *every* persist boundary of a small fixed trace, this harness
 * covers the *configuration space*: each iteration draws a random
 * system — design variant, WPQ size, tree geometry, shard count,
 * occasionally a file-backed image — runs a random trace with a fault
 * armed at a random persist boundary, recovers, and runs the full
 * recovery-invariant checker.
 *
 * Everything derives from one --seed, so any failure reproduces with
 *
 *     torture_crash --seed=S --iterations=N
 *
 * (the failing iteration and its config are printed and written to the
 * report file, which CI uploads as an artifact).
 *
 * Usage:
 *   torture_crash [--seed=N] [--duration=SECONDS] [--iterations=N]
 *                 [--report=PATH] [--trace=PATH] [--metrics=PATH]
 *
 * --duration and --iterations are both stop conditions; the first one
 * reached wins. Defaults: seed 1, duration 10 s, iterations unlimited.
 *
 * --trace records the run into the Chrome-trace ring buffers and, on a
 * failing iteration, writes the trace of the dying run next to the
 * report (the buffers are cleared per iteration so the file holds the
 * failure, not megabytes of healthy history). --metrics dumps a
 * snapshot of the recovery counters at exit.
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/crash_enumerator.hh"
#include "sim/recovery_invariants.hh"
#include "sim/sharded_system.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

struct Options
{
    std::uint64_t seed = 1;
    double duration_s = -1.0;     // < 0 = no time bound
    std::uint64_t iterations = 0; // 0 = unlimited
    std::string report = "torture_crash_failure.txt";
    /** Non-empty: record, and write the failing iteration's trace. */
    std::string trace;
    /** Non-empty: dump a metrics snapshot at exit. */
    std::string metrics;
};

/** splitmix64: independent per-iteration seed stream. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** One iteration's drawn configuration (printable for reproduction). */
struct TortureCase
{
    SystemConfig system;
    unsigned num_shards = 1;
    std::size_t trace_ops = 64;
    double write_fraction = 0.6;
    std::uint64_t trace_seed = 0;
    std::uint64_t armed_boundary = 0;

    std::string
    describe() const
    {
        std::ostringstream out;
        out << designName(system.design) << " height "
            << system.tree_height << " blocks " << system.num_blocks
            << " wpq " << system.wpq_entries << " shards " << num_shards
            << " backend "
            << backendName(system.backend)
            << " integrity " << integrityModeName(system.integrity)
            << " flightrec "
            << (system.flight_recorder ? system.flight_records : 0)
            << " ops " << trace_ops << " wf " << write_fraction
            << " trace-seed " << trace_seed << " armed-at "
            << armed_boundary;
        return out.str();
    }
};

TortureCase
drawCase(Rng &rng, std::uint64_t iteration)
{
    TortureCase tc;
    // Shard count: biased toward the unsharded stack, where the full
    // design matrix applies.
    const unsigned shard_roll = static_cast<unsigned>(rng.nextBelow(8));
    tc.num_shards = shard_roll < 5 ? 1 : (shard_roll < 7 ? 2 : 4);

    if (tc.num_shards == 1) {
        const unsigned design_roll =
            static_cast<unsigned>(rng.nextBelow(5));
        tc.system.design = design_roll < 3 ? DesignKind::PsOram
                           : design_roll == 3 ? DesignKind::NaivePsOram
                                              : DesignKind::RcrPsOram;
    } else {
        // Sharded torture exercises per-shard recovery of the paper's
        // main design (recursive shards drive the same code path per
        // shard; the design matrix is covered unsharded).
        tc.system.design = DesignKind::PsOram;
    }

    tc.system.tree_height = 3 + static_cast<unsigned>(rng.nextBelow(3));
    tc.system.bucket_slots = 4;
    const TreeGeometry geo{tc.system.tree_height,
                           tc.system.bucket_slots};
    // 30-55 % utilization: dense enough for stash carry / backup use.
    tc.system.num_blocks =
        geo.numSlots() * (30 + rng.nextBelow(26)) / 100;
    if (tc.system.num_blocks < 8)
        tc.system.num_blocks = 8;
    tc.system.stash_capacity = 96;
    if (tc.system.design == DesignKind::RcrPsOram) {
        tc.system.wpq_entries = 96; // systemParams sizes the bundle up
    } else {
        const std::size_t wpqs[] = {2, 4, 8, 96};
        tc.system.wpq_entries = wpqs[rng.nextBelow(4)];
    }
    tc.system.cipher = CipherKind::FastStream;
    tc.system.seed = mix(iteration * 3 + 1);

    // Occasional disk backend: an in-core tree (the default page cache
    // holds the whole tree), or out of core behind a small write-back
    // page cache.
    const unsigned backend_roll =
        static_cast<unsigned>(rng.nextBelow(8));
    if (backend_roll == 0) {
        tc.system.backend = BackendKind::Disk;
        tc.system.backing_file =
            "torture_nvm_" + std::to_string(iteration) + ".img";
    } else if (backend_roll == 1) {
        tc.system.backend = BackendKind::Disk;
        tc.system.backing_file =
            "torture_disk_" + std::to_string(iteration) + ".tree";
        // Down to 4 pages: the redo log is sized from the cache, so
        // small caches checkpoint within a trace (torn checkpoint
        // pages, tree fsyncs) and evict frames newer than the log.
        tc.system.disk_cache_pages = 4 + rng.nextBelow(61);
        tc.system.disk_pinned_pages = rng.nextBelow(5);
    }

    // Authenticated-record draw for the persistent non-recursive
    // designs (the integrity scope, see sim/system.cc): half the
    // eligible iterations run with a MAC or Merkle layer, so the
    // random crash+recovery audit also covers sealed records, the
    // per-round root record, and the I5 invariant. It combines freely
    // with the backend and flight-recorder draws.
    if (tc.system.design == DesignKind::PsOram ||
        tc.system.design == DesignKind::NaivePsOram) {
        const unsigned integrity_roll =
            static_cast<unsigned>(rng.nextBelow(4));
        if (integrity_roll == 2)
            tc.system.integrity = IntegrityMode::Mac;
        else if (integrity_roll == 3)
            tc.system.integrity = IntegrityMode::Tree;
    }

    // Black box on half the iterations: the flight ring's side-channel
    // writes must never perturb the boundary domain or recovery. A
    // small ring forces wrap-around under a busy trace.
    if (rng.nextBool(0.5)) {
        tc.system.flight_recorder = true;
        tc.system.flight_records = rng.nextBool(0.5) ? 16 : 64;
    }

    tc.trace_ops = 48 + rng.nextBelow(81);
    const double wfs[] = {0.5, 0.6, 0.8};
    tc.write_fraction = wfs[rng.nextBelow(3)];
    tc.trace_seed = mix(iteration * 3 + 2);
    return tc;
}

/** Run counters (common/stats.hh Counters so the metrics exporter can
 *  snapshot them directly). */
struct IterationStats
{
    Counter fired;
    Counter not_fired;
    Counter boundaries;
    /** Crashes fired, by the kind of boundary they fired at. */
    std::array<Counter, kNumPersistBoundaryKinds> fired_kind;
    /** Aggregated over every recovery the torture run performed. */
    RecoveryStats recovery;
};

/**
 * Unsharded iteration: probe the boundary population, arm a uniformly
 * random boundary, replay, recover, check.
 */
std::vector<std::string>
runUnsharded(TortureCase &tc, Rng &rng, IterationStats &stats,
             const std::string &blackbox_path)
{
    CrashEnumConfig config;
    config.system = tc.system;
    config.trace = makeCrashTrace(tc.trace_seed, tc.trace_ops,
                                  tc.system.num_blocks,
                                  tc.write_fraction);
    config.blackbox_path = blackbox_path;
    config.recovery_stats = &stats.recovery;

    const std::vector<PersistBoundary> kinds = probeCrashPoints(config);
    const std::uint64_t total = kinds.size();
    if (total == 0)
        return {"probe run crossed no persist boundaries"};

    tc.armed_boundary = 1 + rng.nextBelow(total);
    if (tc.system.backend == BackendKind::Disk && rng.nextBool(0.5)) {
        // Half the disk draws crash at a point only the disk tier has
        // (torn record, log sync, torn checkpoint page, tree fsync),
        // kind first: they are a small share of a disk trace's
        // boundaries, checkpoint ones rarest of all.
        std::map<PersistBoundary, std::vector<std::uint64_t>> disk_points;
        for (std::uint64_t k = 1; k <= total; ++k) {
            const PersistBoundary kind = kinds[k - 1];
            if (kind == PersistBoundary::LogAppend ||
                kind == PersistBoundary::LogSync ||
                kind == PersistBoundary::PageWrite ||
                kind == PersistBoundary::Sync)
                disk_points[kind].push_back(k);
        }
        if (!disk_points.empty()) {
            auto group = disk_points.begin();
            std::advance(group, rng.nextBelow(disk_points.size()));
            tc.armed_boundary =
                group->second[rng.nextBelow(group->second.size())];
        }
    }
    stats.boundaries += total;
    ++stats.fired;
    ++stats.fired_kind[static_cast<std::size_t>(
        kinds[tc.armed_boundary - 1])];
    std::vector<std::string> violations =
        runArmedCrash(config, tc.armed_boundary).violations;
    // Success: scrub the backing files. Failure: keep them — they are
    // the crash evidence the report points at.
    if (violations.empty())
        removeDiskTrees(tc.system.backing_file);
    return violations;
}

/**
 * Sharded iteration: fault one victim shard at a random boundary while
 * the trace drives all shards through the router; recover the victim
 * only, then check every shard (the fault must not leak across the
 * partition) and run a verified cross-shard workload.
 */
std::vector<std::string>
runShardedInner(TortureCase &tc, Rng &rng, IterationStats &stats,
                const std::string &blackbox_path)
{
    ShardedSystemConfig config;
    config.base = tc.system;
    config.sharding.num_shards = tc.num_shards;
    ShardedSystem sharded = buildShardedSystem(config);

    std::vector<RecoveryOracle> oracles(sharded.numShards());
    for (unsigned s = 0; s < sharded.numShards(); ++s) {
        sharded.controller(s).setCommitObserver(oracles[s].observer());
        sharded.shards[s].setRebindHook(
            [&oracles, s](PsOramController &ctrl) {
                ctrl.setCommitObserver(oracles[s].observer());
            });
    }

    const unsigned victim =
        static_cast<unsigned>(rng.nextBelow(sharded.numShards()));
    FaultInjector injector;
    sharded.shards[victim].attachFaultInjector(&injector);
    // No probe run (a sharded build is expensive): arm within an
    // estimate of the victim's boundary share. Overshoots simply don't
    // fire and still serve as a no-crash consistency audit.
    const std::uint64_t per_access =
        2 + 2ULL * TreeGeometry{tc.system.tree_height,
                                tc.system.bucket_slots}
                       .blocksPerPath();
    tc.armed_boundary =
        1 + rng.nextBelow(per_access * tc.trace_ops /
                          sharded.numShards());
    injector.armAt(tc.armed_boundary);

    const std::vector<TraceOp> trace =
        makeCrashTrace(tc.trace_seed, tc.trace_ops,
                       sharded.router.totalBlocks(), tc.write_fraction);
    bool crashed = false;
    std::uint8_t buf[kBlockDataBytes];
    for (const TraceOp &op : trace) {
        const ShardSlot slot = sharded.router.route(op.addr);
        try {
            if (op.is_write) {
                stampPayload(slot.local, op.version, buf);
                sharded.controller(slot.shard).write(slot.local, buf);
                oracles[slot.shard].latest[slot.local] = op.version;
            } else {
                sharded.controller(slot.shard).read(slot.local, buf);
            }
        } catch (const InjectedFault &) {
            if (op.is_write)
                oracles[slot.shard].latest[slot.local] = op.version;
            crashed = true;
            break;
        }
    }
    // A boundary the trace never reached must not fire later, during
    // the checker's own reads or the post-recovery workload.
    injector.disarm();
    stats.boundaries += injector.boundariesSeen();

    std::vector<std::string> violations;
    if (crashed) {
        ++stats.fired;
        ++stats.fired_kind[static_cast<std::size_t>(injector.firedKind())];
        sharded.recoverShard(victim);
        stats.recovery.merge(*sharded.shards[victim].recovery_stats);
    } else {
        ++stats.not_fired;
    }
    for (unsigned s = 0; s < sharded.numShards(); ++s) {
        const std::string tag = "shard " + std::to_string(s) +
                                (s == victim ? " (victim)" : "") + ": ";
        for (std::string &v :
             checkRecoveryInvariants(sharded.shards[s], oracles[s]))
            violations.push_back(tag + std::move(v));
    }

    // Cross-shard post-recovery workload: every shard must still serve
    // verified reads and writes.
    Rng post_rng(tc.trace_seed ^ 0xabcdefULL);
    std::map<BlockAddr, std::uint32_t> post;
    for (std::size_t op = 0; op < 64; ++op) {
        const BlockAddr addr =
            post_rng.nextBelow(sharded.router.totalBlocks());
        const ShardSlot slot = sharded.router.route(addr);
        if (post_rng.nextBool(0.5)) {
            const auto version =
                static_cast<std::uint32_t>(2'000'000 + op);
            stampPayload(slot.local, version, buf);
            sharded.controller(slot.shard).write(slot.local, buf);
            post[addr] = version;
        } else if (post.count(addr)) {
            sharded.controller(slot.shard).read(slot.local, buf);
            if (payloadVersion(buf) != post[addr])
                violations.push_back(
                    "post-recovery sharded workload broken at global "
                    "addr " + std::to_string(addr));
        }
    }
    if (!violations.empty() && !blackbox_path.empty() &&
        sharded.shards[victim].flight_recorder) {
        // Ship the victim's black box with the failure report (the
        // shard images stay on disk as evidence too).
        const System &v = sharded.shards[victim];
        std::ofstream out(blackbox_path, std::ios::trunc);
        out << FlightRecorder::format(FlightRecorder::decode(
            *v.device, v.params.flight_recorder_base,
            v.params.flight_recorder_records));
    }
    return violations;
}

std::vector<std::string>
runSharded(TortureCase &tc, Rng &rng, IterationStats &stats,
           const std::string &blackbox_path)
{
    // Pre-clean leftovers from an earlier crashed process.
    removeDiskTrees(tc.system.backing_file);
    std::vector<std::string> violations =
        runShardedInner(tc, rng, stats, blackbox_path);
    // Only now are the shard Systems destroyed — a file-backed image
    // persists itself again in the backend destructor, so scrubbing
    // inside the inner scope would leave files behind. Success: scrub.
    // Failure: keep the images as crash evidence.
    if (violations.empty())
        removeDiskTrees(tc.system.backing_file);
    return violations;
}

int
tortureMain(const Options &options)
{
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    const bool tracing = !options.trace.empty();
    if (tracing)
        obs::TraceRecorder::instance().enable();

    IterationStats stats;
    Counter iterations_run;
    StatGroup torture_group("torture");
    torture_group.addCounter("iterations", &iterations_run,
                             "torture iterations completed");
    torture_group.addCounter("crashes_fired", &stats.fired,
                             "iterations whose armed fault fired");
    torture_group.addCounter("no_fire_audits", &stats.not_fired,
                             "iterations run as no-crash audits");
    torture_group.addCounter("boundaries_crossed", &stats.boundaries,
                             "persist boundaries crossed in total");
    for (std::size_t kind = 0; kind < kNumPersistBoundaryKinds; ++kind)
        torture_group.addCounter(
            std::string("fired.") +
                persistBoundaryName(static_cast<PersistBoundary>(kind)),
            &stats.fired_kind[kind],
            "crashes fired at this boundary kind");
    stats.recovery.registerWith(torture_group, "recovery");
    const auto writeMetrics = [&](const std::string &path) {
        if (path.empty())
            return;
        obs::MetricsExporter exporter;
        exporter.addGroup(&torture_group);
        exporter.writeTo(path);
    };
    const std::string blackbox_path = options.report + ".blackbox.txt";

    std::uint64_t iteration = 0;
    while ((options.iterations == 0 ||
            iteration < options.iterations) &&
           (options.duration_s < 0 ||
            elapsed() < options.duration_s)) {
        // Per-iteration clear: on a failure the buffers hold exactly
        // the dying run.
        if (tracing)
            obs::TraceRecorder::instance().clear();
        Rng rng(mix(options.seed ^ mix(iteration)));
        TortureCase tc = drawCase(rng, iteration);
        std::vector<std::string> violations;
        try {
            violations =
                tc.num_shards == 1
                    ? runUnsharded(tc, rng, stats, blackbox_path)
                    : runSharded(tc, rng, stats, blackbox_path);
        } catch (const std::exception &e) {
            violations.push_back(std::string("unexpected exception: ") +
                                 e.what());
        }
        if (!violations.empty()) {
            std::ostringstream report;
            report << "torture_crash FAILURE\n"
                   << "  seed:      " << options.seed << "\n"
                   << "  iteration: " << iteration << "\n"
                   << "  config:    " << tc.describe() << "\n"
                   << "  reproduce: torture_crash --seed="
                   << options.seed << " --iterations="
                   << (iteration + 1) << "\n";
            for (const std::string &v : violations)
                report << "  violation: " << v << "\n";
            if (tracing) {
                obs::TraceRecorder::instance().writeTo(options.trace);
                report << "  trace:     " << options.trace << "\n";
            }
            // A failure ships its full forensics bundle: metrics
            // snapshot (recovery phase latencies + counters) and, when
            // the dying config ran the black box, the decoded flight
            // ring. Both land next to the report for CI to upload.
            const std::string metrics_path =
                options.metrics.empty() ? options.report + ".metrics.json"
                                        : options.metrics;
            writeMetrics(metrics_path);
            report << "  metrics:   " << metrics_path << "\n";
            if (std::ifstream(blackbox_path).good())
                report << "  blackbox:  " << blackbox_path << "\n";
            std::cerr << report.str();
            std::ofstream out(options.report, std::ios::trunc);
            out << report.str();
            return 1;
        }
        ++iteration;
        ++iterations_run;
        if (iteration % 1000 == 0)
            std::cout << "torture: " << iteration << " iterations, "
                      << stats.fired.value() << " crashes fired, "
                      << stats.not_fired.value() << " no-fire audits, "
                      << stats.boundaries.value()
                      << " boundaries crossed (" << elapsed() << " s)\n";
    }

    std::cout << "torture: PASS — " << iteration << " iterations, "
              << stats.fired.value() << " crashes fired, "
              << stats.not_fired.value() << " no-fire audits, "
              << stats.boundaries.value()
              << " boundaries crossed in " << elapsed() << " s (seed "
              << options.seed << ")\n";
    std::cout << "torture: crashes by boundary kind:";
    for (std::size_t kind = 0; kind < kNumPersistBoundaryKinds; ++kind)
        std::cout << " "
                  << persistBoundaryName(static_cast<PersistBoundary>(kind))
                  << " " << stats.fired_kind[kind].value();
    std::cout << "\n";
    writeMetrics(options.metrics);
    return 0;
}

bool
parseFlag(const std::string &arg, const char *name, std::string &value)
{
    const std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

} // namespace
} // namespace psoram

int
main(int argc, char **argv)
{
    psoram::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (psoram::parseFlag(arg, "--seed", value))
            options.seed = std::stoull(value);
        else if (psoram::parseFlag(arg, "--duration", value))
            options.duration_s = std::stod(value);
        else if (psoram::parseFlag(arg, "--iterations", value))
            options.iterations = std::stoull(value);
        else if (psoram::parseFlag(arg, "--report", value))
            options.report = value;
        else if (psoram::parseFlag(arg, "--trace", value))
            options.trace = value;
        else if (psoram::parseFlag(arg, "--metrics", value))
            options.metrics = value;
        else {
            std::cerr << "usage: torture_crash [--seed=N] "
                         "[--duration=SECONDS] [--iterations=N] "
                         "[--report=PATH] [--trace=PATH] "
                         "[--metrics=PATH]\n";
            return arg == "--help" ? 0 : 2;
        }
    }
    // Bound by something: 10 s of torture when no limit was given.
    if (options.iterations == 0 && options.duration_s < 0)
        options.duration_s = 10.0;
    return psoram::tortureMain(options);
}
