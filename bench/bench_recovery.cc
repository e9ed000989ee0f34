/**
 * @file
 * Recovery-latency curve (DESIGN.md §16): how long does it take to come
 * back from a crash, and where does the time go?
 *
 * Every cell of the sweep (tree height x shard count x storage backend
 * x integrity mode) runs the same controlled experiment:
 *
 *   1. *Probe*: drive a fixed write-heavy trace against a fresh system
 *      with an unarmed FaultInjector and count the persist boundaries.
 *   2. *Crash*: rebuild from scratch, arm the injector at the midpoint
 *      boundary, and drive the trace until the injected fault aborts it
 *      — a crash with WPQ rounds and redeliverable ADR state genuinely
 *      in flight.
 *   3. *Recover*: apply the power-failure recovery sequence and read
 *      the per-phase breakdown out of System::recovery_stats
 *      (common/stats.hh RecoveryStats — the six phases sum to the total
 *      exactly, which the CI schema gate checks per row).
 *
 * Sharded cells crash one shard mid-trace and then recover the whole
 * fleet (recoverAll); the row aggregates every shard's recovery.
 *
 * Overrides (bench_common.hh conventions):
 *   heights=4,6          tree heights to sweep
 *   shardlist=1,2,4      shard counts to sweep
 *   backends=memory,disk
 *   integrities=off,mac,tree
 *   ops=96               trace length per cell
 *   repeats=1            crash+recover cycles per cell
 *   flightrec=1          run every cell with the black box on
 *
 * Output: --json BENCH_recovery.json (per-phase ns as exact integers).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/stats.hh"
#include "sim/crash_enumerator.hh"
#include "sim/recovery_invariants.hh"
#include "sim/sharded_system.hh"
#include "sim/system.hh"

namespace psoram::bench {
namespace {

std::vector<std::string>
splitCsv(const std::string &value)
{
    std::vector<std::string> out;
    std::string token;
    for (std::size_t i = 0; i <= value.size(); ++i) {
        if (i < value.size() && value[i] != ',') {
            token += value[i];
            continue;
        }
        if (!token.empty())
            out.push_back(token);
        token.clear();
    }
    return out;
}

/** @return true if an InjectedFault aborted the trace. */
bool
driveTrace(PsOramController &controller,
           const std::vector<TraceOp> &trace)
{
    std::uint8_t buf[kBlockDataBytes];
    try {
        for (const TraceOp &op : trace) {
            if (op.is_write) {
                stampPayload(op.addr, op.version, buf);
                controller.write(op.addr, buf);
            } else {
                controller.read(op.addr, buf);
            }
        }
    } catch (const InjectedFault &) {
        return true;
    }
    return false;
}

struct CellResult
{
    RecoveryStats stats;
    std::uint64_t boundaries = 0;
    std::uint64_t armed_at = 0;
    bool ok = true;
};

/** Probe, crash at the midpoint boundary, recover. One repeat. */
void
crashRecoverOnce(const SystemConfig &config,
                 const std::vector<TraceOp> &trace, CellResult &result)
{
    removeBackingTree(config.backing_file);
    {
        System probe = buildSystem(config);
        FaultInjector injector;
        probe.attachFaultInjector(&injector);
        driveTrace(*probe.controller, trace);
        result.boundaries = injector.boundariesSeen();
    }
    removeBackingTree(config.backing_file);
    if (result.boundaries == 0) {
        result.ok = false;
        return;
    }
    result.armed_at = 1 + result.boundaries / 2;

    System system = buildSystem(config);
    FaultInjector injector;
    system.attachFaultInjector(&injector);
    injector.armAt(result.armed_at);
    if (!driveTrace(*system.controller, trace)) {
        result.ok = false;
        return;
    }
    system.recoverController();
    result.stats.merge(*system.recovery_stats);
}

/** Sharded repeat: crash shard 0 mid-trace, recover the whole fleet. */
void
crashRecoverShardedOnce(const SystemConfig &base, unsigned shards,
                        const std::vector<TraceOp> &trace,
                        CellResult &result)
{
    ShardedSystemConfig config;
    config.base = base;
    config.sharding.num_shards = shards;

    const auto drive = [&trace](ShardedSystem &sharded) {
        std::uint8_t buf[kBlockDataBytes];
        try {
            for (const TraceOp &op : trace) {
                const ShardSlot slot = sharded.router.route(op.addr);
                if (op.is_write) {
                    stampPayload(slot.local, op.version, buf);
                    sharded.controller(slot.shard).write(slot.local,
                                                         buf);
                } else {
                    sharded.controller(slot.shard).read(slot.local,
                                                        buf);
                }
            }
        } catch (const InjectedFault &) {
            return true;
        }
        return false;
    };

    removeBackingTree(base.backing_file);
    {
        ShardedSystem probe = buildShardedSystem(config);
        FaultInjector injector;
        probe.shards[0].attachFaultInjector(&injector);
        drive(probe);
        result.boundaries = injector.boundariesSeen();
    }
    removeBackingTree(base.backing_file);
    if (result.boundaries == 0) {
        result.ok = false;
        return;
    }
    result.armed_at = 1 + result.boundaries / 2;

    ShardedSystem sharded = buildShardedSystem(config);
    FaultInjector injector;
    sharded.shards[0].attachFaultInjector(&injector);
    injector.armAt(result.armed_at);
    if (!drive(sharded)) {
        result.ok = false;
        return;
    }
    injector.disarm();
    sharded.recoverAll();
    for (const System &shard : sharded.shards)
        result.stats.merge(*shard.recovery_stats);
}

/** Emit one JSON row: exact-integer ns so phases sum to total. */
void
addRow(JsonReport &report, const SystemConfig &config, unsigned shards,
       const CellResult &result)
{
    const RecoveryStats &s = result.stats;
    report.addRow()
        .str("backend", backendName(config.backend))
        .str("integrity", integrityModeName(config.integrity))
        .count("height", config.tree_height)
        .count("shards", shards)
        .count("boundaries", result.boundaries)
        .count("armed_at", result.armed_at)
        .count("recoveries", s.recoveries.value())
        .count("wpq_replay_ns",
               static_cast<std::uint64_t>(s.wpq_replay.sum()))
        .count("adr_redeliver_ns",
               static_cast<std::uint64_t>(s.adr_redeliver.sum()))
        .count("image_reload_ns",
               static_cast<std::uint64_t>(s.image_reload.sum()))
        .count("posmap_rebuild_ns",
               static_cast<std::uint64_t>(s.posmap_rebuild.sum()))
        .count("integrity_verify_ns",
               static_cast<std::uint64_t>(s.integrity_verify.sum()))
        .count("node_repair_ns",
               static_cast<std::uint64_t>(s.node_repair.sum()))
        .count("total_ns", static_cast<std::uint64_t>(s.total.sum()))
        .count("redelivered_entries", s.redelivered_entries.value())
        .count("records_verified", s.records_verified.value())
        .count("nodes_repaired", s.nodes_repaired.value())
        .count("blackbox_events", s.blackbox_events.value())
        .count("blackbox_torn", s.blackbox_torn.value());
}

int
benchMain(int argc, char **argv)
{
    BenchContext ctx = parseContext(argc, argv);

    std::vector<unsigned> heights =
        parseUintList(ctx.overrides.getString("heights", "4,6"));
    std::vector<unsigned> shard_counts =
        parseUintList(ctx.overrides.getString("shardlist", "1,2,4"));
    const std::vector<std::string> backends = splitCsv(
        ctx.overrides.getString("backends", "memory,disk"));
    const std::vector<std::string> integrities =
        splitCsv(ctx.overrides.getString("integrities", "off,mac,tree"));
    const std::size_t ops =
        static_cast<std::size_t>(ctx.overrides.getUint("ops", 96));
    const unsigned repeats =
        static_cast<unsigned>(ctx.overrides.getUint("repeats", 1));
    const bool flightrec = ctx.overrides.getUint("flightrec", 1) != 0;

    const std::string tree_path =
        "/tmp/psoram_bench_recovery_" +
        std::to_string(static_cast<long>(::getpid())) + ".tree";
    scrubBackingTreeOnExit(tree_path);

    JsonReport report("recovery");
    report.metaCount("ops", ops)
        .metaCount("repeats", repeats)
        .metaCount("flight_recorder", flightrec ? 1 : 0);

    TextTable table({"height", "shards", "backend", "integrity",
                     "boundaries", "total_us", "wpq_us", "adr_us",
                     "reload_us", "posmap_us", "verify_us",
                     "repair_us"});

    for (const unsigned height : heights) {
        for (const unsigned shards : shard_counts) {
            for (const std::string &backend : backends) {
                for (const std::string &integrity : integrities) {
                    SystemConfig config;
                    config.design = DesignKind::PsOram;
                    config.tree_height = height;
                    config.bucket_slots = 4;
                    const TreeGeometry geo{height, config.bucket_slots};
                    config.num_blocks = geo.dataBlocks(0.5);
                    config.stash_capacity = 96;
                    config.wpq_entries = static_cast<std::size_t>(
                        ctx.overrides.getUint("wpq", 96));
                    config.seed = ctx.overrides.getUint("seed", 1);
                    config.flight_recorder = flightrec;
                    if (!parseIntegrityMode(integrity,
                                            config.integrity)) {
                        std::cerr << "unknown integrity '" << integrity
                                  << "'\n";
                        return 2;
                    }
                    if (backend == "disk") {
                        config.backend = BackendKind::Disk;
                        config.backing_file = tree_path;
                        config.disk_cache_pages = 64;
                        config.disk_pinned_pages = 4;
                    } else if (backend != "memory") {
                        std::cerr << "unknown backend '" << backend
                                  << "'\n";
                        return 2;
                    }

                    // The shard router partitions num_blocks, so the
                    // trace's address space is the same either way.
                    const std::vector<TraceOp> trace = makeCrashTrace(
                        config.seed ^ (height * 131 + shards), ops,
                        config.num_blocks, /*write_fraction=*/0.7);

                    CellResult result;
                    for (unsigned r = 0; r < repeats && result.ok; ++r) {
                        if (shards == 1)
                            crashRecoverOnce(config, trace, result);
                        else
                            crashRecoverShardedOnce(config, shards,
                                                    trace, result);
                    }
                    removeBackingTree(config.backing_file);
                    if (!result.ok) {
                        std::cerr << "cell height=" << height
                                  << " shards=" << shards << " backend="
                                  << backend << " integrity="
                                  << integrity
                                  << ": armed fault never fired\n";
                        return 1;
                    }
                    addRow(report, config, shards, result);
                    const RecoveryStats &s = result.stats;
                    table.addRow(
                        {std::to_string(height), std::to_string(shards),
                         backend, integrity,
                         std::to_string(result.boundaries),
                         TextTable::num(s.total.sum() / 1e3, 1),
                         TextTable::num(s.wpq_replay.sum() / 1e3, 1),
                         TextTable::num(s.adr_redeliver.sum() / 1e3, 1),
                         TextTable::num(s.image_reload.sum() / 1e3, 1),
                         TextTable::num(s.posmap_rebuild.sum() / 1e3, 1),
                         TextTable::num(s.integrity_verify.sum() / 1e3,
                                        1),
                         TextTable::num(s.node_repair.sum() / 1e3, 1)});
                }
            }
        }
    }

    table.print(std::cout);
    if (!ctx.json_path.empty())
        report.writeTo(ctx.json_path);
    return 0;
}

} // namespace
} // namespace psoram::bench

int
main(int argc, char **argv)
{
    return psoram::bench::benchMain(argc, argv);
}
