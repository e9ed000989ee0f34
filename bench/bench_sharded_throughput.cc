/**
 * @file
 * Sharded-engine throughput scaling: host accesses/sec of the
 * ShardedOramEngine worker pool at shards = 1, 2, 4, 8 on the PS-ORAM
 * design, reported per shard and in aggregate.
 *
 * The shards=1 configuration is byte-identical to the unsharded stack
 * (see sim/sharded_system.hh), so its throughput row is directly
 * comparable to the PS-ORAM row of BENCH_micro.json — within noise plus
 * the mailbox/drain-thread overhead of the engine frontend. Rows for
 * N > 1 carry "speedup_vs_1" so CI can eyeball the scaling curve; on a
 * single-core runner the curve is flat by construction.
 *
 * With "--json <path>" the run also emits BENCH_sharded.json. Overrides:
 * accesses=N (per-configuration target, default 20000), maxseconds=S
 * (per-configuration cap, default 0.8), shards=K (bench only K in
 * addition to the baseline 1) plus the usual height/z/stash/wpq/cipher/
 * seed keys shared with bench_micro_oram.
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "sim/sharded_engine.hh"
#include "sim/sharded_system.hh"

namespace {

using namespace psoram;

struct ShardRow
{
    unsigned shard = 0;
    std::uint64_t accesses = 0;
    std::uint64_t physical = 0;
    std::uint64_t stash_hits = 0;
};

struct RunResult
{
    unsigned num_shards = 0;
    std::uint64_t accesses = 0;
    double seconds = 0.0;
    std::uint64_t physical = 0;
    std::vector<ShardRow> per_shard;

    double
    accessesPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(accesses) / seconds
                             : 0.0;
    }
};

/** Drive one worker-pool configuration to the access target. */
RunResult
runConfiguration(const psoram::bench::BenchContext &ctx,
                 unsigned num_shards, std::uint64_t target,
                 double max_seconds)
{
    using Clock = std::chrono::steady_clock;

    ShardedSystemConfig config;
    config.base = configFromOverrides(ctx.overrides, DesignKind::PsOram);
    config.sharding.num_shards = num_shards;

    // Per-shard tree capacity depends on the shard count, so a
    // file/disk backing tree left by the previous sweep cell would be
    // reopened with mismatched geometry (a fatal on disk). Each cell
    // measures a cold start from its own fresh trees.
    if (!config.base.backing_file.empty())
        psoram::bench::removeBackingTree(config.base.backing_file);

    ShardedSystem system = buildShardedSystem(config);
    ShardedEngineConfig engine_config;
    engine_config.record_completions = false;
    ShardedOramEngine engine(system, engine_config);

    const BlockAddr blocks = system.router.totalBlocks();
    std::uint8_t buf[kBlockDataBytes] = {};
    BlockAddr addr = 0;
    const auto submitChunk = [&](unsigned count) {
        for (unsigned i = 0; i < count; ++i) {
            engine.submitWrite(addr, buf);
            // Stride 97 is coprime to the shard counts: consecutive
            // requests land on different shards, so every mailbox
            // stays busy.
            addr = (addr + 97) % blocks;
        }
        engine.drain();
    };

    // Warm every shard's tree and stash before timing.
    submitChunk(512 * num_shards);
    const ShardedOramEngine::StatsSnapshot warm = engine.stats();
    std::vector<ShardedOramEngine::StatsSnapshot> warm_shard;
    for (unsigned k = 0; k < num_shards; ++k)
        warm_shard.push_back(engine.shardStats(k));

    std::uint64_t accesses = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    while (accesses < target && elapsed < max_seconds) {
        submitChunk(512);
        accesses += 512;
        elapsed =
            std::chrono::duration<double>(Clock::now() - t0).count();
    }

    RunResult result;
    result.num_shards = num_shards;
    result.accesses = accesses;
    result.seconds = elapsed;
    const ShardedOramEngine::StatsSnapshot total = engine.stats();
    result.physical = total.physical_accesses - warm.physical_accesses;
    for (unsigned k = 0; k < num_shards; ++k) {
        const ShardedOramEngine::StatsSnapshot s = engine.shardStats(k);
        ShardRow row;
        row.shard = k;
        row.accesses = s.completed - warm_shard[k].completed;
        row.physical =
            s.physical_accesses - warm_shard[k].physical_accesses;
        row.stash_hits = s.stash_hits - warm_shard[k].stash_hits;
        result.per_shard.push_back(row);
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const psoram::bench::BenchContext ctx =
        psoram::bench::parseContext(argc, argv);
    const std::uint64_t target = ctx.overrides.getUint("accesses", 20'000);
    const double max_seconds = ctx.overrides.getDouble("maxseconds", 0.8);
    const auto only = ctx.overrides.getUint("shards", 0);

    std::vector<unsigned> shard_counts{1, 2, 4, 8};
    if (only > 1)
        shard_counts = {1, static_cast<unsigned>(only)};

    const SystemConfig banner =
        configFromOverrides(ctx.overrides, DesignKind::PsOram);
    psoram::bench::JsonReport report("sharded_throughput");
    report.metaCount("tree_height", banner.tree_height)
        .metaCount("bucket_slots", banner.bucket_slots)
        .metaCount("stash_capacity", banner.stash_capacity)
        .metaCount("wpq_entries", banner.wpq_entries)
        .meta("cipher",
              banner.cipher == CipherKind::Aes128Ctr ? "aes" : "fast")
        .metaCount("seed", banner.seed)
        .metaCount("target_accesses", target);
    psoram::bench::addSystemMeta(report, banner);

    TextTable table({"shards", "accesses", "seconds", "accesses/sec",
                     "speedup_vs_1", "physical/access"});
    double baseline_rate = 0.0;
    for (const unsigned num_shards : shard_counts) {
        const RunResult run = runConfiguration(ctx, num_shards, target,
                                               max_seconds);
        if (num_shards == 1)
            baseline_rate = run.accessesPerSec();
        const double speedup = baseline_rate > 0.0
            ? run.accessesPerSec() / baseline_rate
            : 0.0;

        report.addRow()
            .str("scope", "aggregate")
            .count("shards", num_shards)
            .count("accesses", run.accesses)
            .num("seconds", run.seconds)
            .num("accesses_per_sec", run.accessesPerSec())
            .num("speedup_vs_1", speedup)
            .count("physical_accesses", run.physical);
        for (const ShardRow &row : run.per_shard)
            report.addRow()
                .str("scope", "shard")
                .count("shards", num_shards)
                .count("shard", row.shard)
                .count("accesses", row.accesses)
                .count("physical_accesses", row.physical)
                .count("stash_hits", row.stash_hits);

        table.addRow({std::to_string(num_shards),
                      std::to_string(run.accesses),
                      TextTable::num(run.seconds, 3),
                      TextTable::num(run.accessesPerSec(), 0),
                      TextTable::num(speedup, 2),
                      TextTable::num(
                          run.accesses
                              ? static_cast<double>(run.physical) /
                                    static_cast<double>(run.accesses)
                              : 0.0,
                          2)});
        std::cout << "shards=" << num_shards << ": "
                  << static_cast<std::uint64_t>(run.accessesPerSec())
                  << " accesses/sec (" << run.accesses << " in "
                  << run.seconds << " s, " << TextTable::num(speedup, 2)
                  << "x vs 1 shard)\n";
    }

    std::cout << "\n";
    table.print(std::cout);
    if (!ctx.json_path.empty())
        return report.writeTo(ctx.json_path) ? 0 : 1;
    return 0;
}
