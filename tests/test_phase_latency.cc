/**
 * @file
 * Per-phase latency breakdown tests: the five phase windows (remap,
 * load, backup, evict, drain) are adjacent and sum to the end-to-end
 * access latency — exactly in each domain's own accounting, and within
 * 5 % of the engine-observed completion latency (the ISSUE acceptance
 * bound). Covered for PS-ORAM and Naive-PS-ORAM, for both the host-ns
 * and simulated-cycle domains, plus merge semantics and the sharded
 * merged view.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/stats.hh"
#include "sim/sharded_engine.hh"
#include "sim/sharded_system.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

SystemConfig
phaseConfig(DesignKind design)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 6;
    config.num_blocks = 120;
    config.stash_capacity = 64;
    config.seed = 31;
    return config;
}

/** A one-shard engine in front of @p system's controller. */
ShardedOramEngine
frontOf(System &system)
{
    return ShardedOramEngine(ShardRouter({1}, system.params.num_blocks),
                             {system.controller.get()});
}

/** Drive @p accesses writes through the engine; returns the sum of the
 *  engine-observed completion latencies (simulated cycles). */
std::uint64_t
driveWrites(System &system, ShardedOramEngine &engine, unsigned accesses)
{
    std::uint8_t buf[kBlockDataBytes] = {};
    for (unsigned i = 0; i < accesses; ++i)
        engine.submitWrite((i * 7) % system.params.num_blocks, buf);
    engine.drain();
    std::uint64_t total_cycles = 0;
    for (const ShardedOramEngine::Completion &c : engine.takeCompletions())
        total_cycles += c.latency_cycles;
    return total_cycles;
}

void
checkPhaseIdentity(DesignKind design)
{
    System system = buildSystem(phaseConfig(design));
    ShardedOramEngine engine = frontOf(system);
    const std::uint64_t engine_cycles = driveWrites(system, engine, 200);

    const PhaseLatencyStats &ns = system.controller->phaseHostNs();
    const PhaseLatencyStats &cyc = system.controller->phaseSimCycles();

    // Phase samples exist for every full (non-stash-hit) access, in
    // both domains, in lockstep.
    ASSERT_GT(ns.total.count(), 0u);
    EXPECT_EQ(ns.total.count(), cyc.total.count());
    EXPECT_EQ(ns.remap.count(), ns.total.count());
    EXPECT_EQ(ns.drain.count(), ns.total.count());
    EXPECT_EQ(ns.total.count() + system.controller->stashHits(),
              system.controller->accessCount());

    // The windows are adjacent, so the five phases sum to the access
    // total exactly (the 5 % ISSUE bound holds with huge margin).
    EXPECT_NEAR(ns.phaseSum(), ns.total.sum(),
                0.05 * ns.total.sum() + 1e-9);
    EXPECT_NEAR(cyc.phaseSum(), cyc.total.sum(),
                0.05 * cyc.total.sum() + 1e-9);

    // Engine-side cross-check: the completion latencies the frontend
    // reports are the same cycles the phase breakdown accounts for
    // (stash-hit accesses complete in zero simulated cycles here, so
    // the full-access totals must match the engine's sum within 5 %).
    EXPECT_NEAR(cyc.total.sum(), static_cast<double>(engine_cycles),
                0.05 * static_cast<double>(engine_cycles) + 1e-9);

    // Eviction excludes the nested drain; both are non-negative and the
    // drain never exceeds the whole eviction window.
    EXPECT_GE(cyc.evict.min(), 0.0);
    EXPECT_GE(cyc.drain.min(), 0.0);
}

TEST(PhaseLatency, PhasesSumToAccessTotal_PsOram)
{
    checkPhaseIdentity(DesignKind::PsOram);
}

TEST(PhaseLatency, PhasesSumToAccessTotal_NaivePsOram)
{
    checkPhaseIdentity(DesignKind::NaivePsOram);
}

TEST(PhaseLatency, NonPersistentDesignHasZeroDrainTime)
{
    System system = buildSystem(phaseConfig(DesignKind::Baseline));
    ShardedOramEngine engine = frontOf(system);
    driveWrites(system, engine, 100);

    const PhaseLatencyStats &cyc = system.controller->phaseSimCycles();
    ASSERT_GT(cyc.total.count(), 0u);
    // No persistence domain: the drain window is identically zero and
    // the identity still holds.
    EXPECT_EQ(cyc.drain.sum(), 0.0);
    EXPECT_NEAR(cyc.phaseSum(), cyc.total.sum(),
                0.05 * cyc.total.sum() + 1e-9);
}

TEST(PhaseLatency, MergeAccumulatesAcrossInstances)
{
    PhaseLatencyStats a;
    a.sample({1, 2, 3, 4, 5});
    PhaseLatencyStats b;
    b.sample({10, 20, 30, 40, 50});
    b.stash_hit.sample(0.5);

    a.merge(b);
    EXPECT_EQ(a.total.count(), 2u);
    EXPECT_DOUBLE_EQ(a.total.sum(), 165.0);
    EXPECT_DOUBLE_EQ(a.phaseSum(), 165.0);
    EXPECT_DOUBLE_EQ(a.remap.sum(), 11.0);
    EXPECT_EQ(a.stash_hit.count(), 1u);

    a.reset();
    EXPECT_EQ(a.total.count(), 0u);
    EXPECT_DOUBLE_EQ(a.phaseSum(), 0.0);
}

TEST(PhaseLatency, ShardedMergedViewCoversEveryPhysicalAccess)
{
    ShardedSystemConfig config;
    config.base = phaseConfig(DesignKind::PsOram);
    config.sharding.num_shards = 4;
    ShardedSystem sharded = buildShardedSystem(config);

    std::uint64_t physical = 0;
    std::uint64_t stash_hits = 0;
    {
        ShardedOramEngine engine(sharded);
        std::uint8_t buf[kBlockDataBytes] = {};
        for (BlockAddr addr = 0; addr < 100; ++addr)
            engine.submitWrite(addr, buf);
        engine.drain();

        const PhaseLatencyStats merged = engine.mergedPhaseHostNs();
        const ShardedOramEngine::StatsSnapshot stats = engine.stats();
        physical = stats.physical_accesses;
        stash_hits = stats.stash_hits;

        // Every physical (non-stash-hit) access across every shard is
        // one sample of the merged breakdown, and the sum identity
        // survives the merge.
        EXPECT_EQ(merged.total.count(), physical);
        EXPECT_EQ(stats.controller_accesses - stash_hits, physical);
        ASSERT_GT(merged.total.count(), 0u);
        EXPECT_NEAR(merged.phaseSum(), merged.total.sum(),
                    0.05 * merged.total.sum() + 1e-9);

        const PhaseLatencyStats cycles = engine.mergedPhaseSimCycles();
        EXPECT_EQ(cycles.total.count(), physical);
    }
}

TEST(PhaseLatency, ControllerRegisterStatsExposesPhaseDistributions)
{
    System system = buildSystem(phaseConfig(DesignKind::PsOram));
    ShardedOramEngine engine = frontOf(system);
    driveWrites(system, engine, 50);

    StatGroup group("ctrl");
    system.controller->registerStats(group);

    const StatGroup::Snapshot snap = group.snapshot();
    bool has_phase_ns_remap = false;
    bool has_phase_cycles_drain = false;
    for (const auto &d : snap.dists) {
        if (d.name == "phase_ns.remap") {
            has_phase_ns_remap = true;
            EXPECT_GT(d.stats.count, 0u);
        }
        if (d.name == "phase_cycles.drain")
            has_phase_cycles_drain = true;
    }
    EXPECT_TRUE(has_phase_ns_remap);
    EXPECT_TRUE(has_phase_cycles_drain);

    EXPECT_EQ(engine.stats().submitted, 50u);
    EXPECT_EQ(group.counterValue("accesses"),
              system.controller->accessCount());
}

} // namespace
} // namespace psoram
