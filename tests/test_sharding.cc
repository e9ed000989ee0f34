/**
 * @file
 * Sharding tests: the ShardRouter partition (both policies, inverse
 * mapping, coverage), per-shard seed derivation, the sharded system
 * builder's per-shard specialization, and the worker-pool
 * ShardedOramEngine — correctness under concurrent submitters,
 * callback-thread discipline, ordering per logical address, merged
 * stats, and per-shard crash recovery.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/sharding.hh"
#include "sim/sharded_engine.hh"
#include "sim/sharded_system.hh"

namespace psoram {
namespace {

ShardedSystemConfig
shardedConfig(unsigned shards)
{
    ShardedSystemConfig config;
    config.base.design = DesignKind::PsOram;
    config.base.tree_height = 6;
    config.base.num_blocks = 120;
    config.base.stash_capacity = 64;
    config.base.seed = 17;
    config.sharding.num_shards = shards;
    return config;
}

std::array<std::uint8_t, kBlockDataBytes>
payload(BlockAddr addr, std::uint8_t salt)
{
    std::array<std::uint8_t, kBlockDataBytes> data{};
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(addr * 31 + salt + i);
    return data;
}

TEST(ShardRouter, InterleaveRoundTripsAndCovers)
{
    for (const unsigned n : {1u, 2u, 3u, 4u, 8u}) {
        const std::uint64_t total = 109; // prime: uneven shard sizes
        ShardRouter router({n}, total);

        std::uint64_t covered = 0;
        for (unsigned k = 0; k < n; ++k)
            covered += router.shardBlocks(k);
        EXPECT_EQ(covered, total) << n << " shards";

        for (BlockAddr addr = 0; addr < total; ++addr) {
            const ShardSlot slot = router.route(addr);
            ASSERT_LT(slot.shard, n);
            ASSERT_LT(slot.local, router.shardBlocks(slot.shard));
            EXPECT_EQ(router.globalAddr(slot.shard, slot.local), addr);
        }
    }
}

TEST(ShardRouter, SingleShardIsIdentity)
{
    ShardRouter router({1}, 64);
    for (BlockAddr addr = 0; addr < 64; ++addr) {
        const ShardSlot slot = router.route(addr);
        EXPECT_EQ(slot.shard, 0u);
        EXPECT_EQ(slot.local, addr);
    }
}

TEST(Sharding, SeedDerivationIsReproducibleAndDisjoint)
{
    // Fast-path identity: one shard keeps the base seed.
    EXPECT_EQ(deriveShardSeed(17, 0, 1), 17u);

    std::set<std::uint64_t> seen;
    for (unsigned k = 0; k < 8; ++k) {
        const std::uint64_t seed = deriveShardSeed(17, k, 8);
        EXPECT_EQ(seed, deriveShardSeed(17, k, 8)) << "not deterministic";
        EXPECT_TRUE(seen.insert(seed).second) << "shard seeds collide";
    }
    // Different base seeds must give different shard streams.
    EXPECT_NE(deriveShardSeed(17, 3, 8), deriveShardSeed(18, 3, 8));
}

TEST(ShardedSystem, SingleShardConfigMatchesUnsharded)
{
    const ShardedSystemConfig config = shardedConfig(1);
    ShardRouter router(config.sharding, config.base.num_blocks);
    const SystemConfig sc = shardSystemConfig(config, router, 0);
    EXPECT_EQ(sc.tree_height, config.base.tree_height);
    EXPECT_EQ(sc.num_blocks, config.base.num_blocks);
    EXPECT_EQ(sc.seed, config.base.seed);
    EXPECT_EQ(sc.backing_file, config.base.backing_file);
}

TEST(ShardedSystem, ShardsPartitionBlocksAndDeriveSeeds)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(4));
    ASSERT_EQ(system.numShards(), 4u);

    std::uint64_t total = 0;
    std::set<std::uint64_t> seeds;
    for (unsigned k = 0; k < 4; ++k) {
        const System &shard = system.shards[k];
        EXPECT_EQ(shard.params.num_blocks, system.router.shardBlocks(k));
        EXPECT_LE(shard.config.tree_height, 6u);
        seeds.insert(shard.config.seed);
        total += shard.params.num_blocks;
    }
    EXPECT_EQ(total, 120u);
    EXPECT_EQ(seeds.size(), 4u) << "per-shard seeds must differ";
}

TEST(ShardedEngine, WritesAndReadsBackAcrossShards)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(4));
    ShardedOramEngine engine(system);

    constexpr BlockAddr kBlocks = 120;
    for (BlockAddr addr = 0; addr < kBlocks; ++addr)
        engine.submitWrite(addr, payload(addr, 1).data());
    engine.drain();

    std::mutex mutex;
    std::map<BlockAddr, std::array<std::uint8_t, kBlockDataBytes>> seen;
    for (BlockAddr addr = 0; addr < kBlocks; ++addr)
        engine.submitRead(addr,
                          [&](const ShardedOramEngine::Completion &c) {
                              std::lock_guard<std::mutex> lock(mutex);
                              seen[c.addr] = c.data;
                          });
    engine.drain();

    ASSERT_EQ(seen.size(), kBlocks);
    for (BlockAddr addr = 0; addr < kBlocks; ++addr)
        EXPECT_EQ(seen[addr], payload(addr, 1)) << "addr " << addr;

    // Every shard served its partition's share.
    const ShardedOramEngine::StatsSnapshot total = engine.stats();
    EXPECT_EQ(total.submitted, 2 * kBlocks);
    EXPECT_EQ(total.completed, 2 * kBlocks);
    std::uint64_t merged = 0;
    for (unsigned k = 0; k < engine.numShards(); ++k) {
        const auto shard = engine.shardStats(k);
        EXPECT_GT(shard.completed, 0u) << "idle shard " << k;
        merged += shard.completed;
    }
    EXPECT_EQ(merged, total.completed);
}

TEST(ShardedEngine, CompletionsRouteToOwningShard)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(3));
    ShardedOramEngine engine(system);

    for (BlockAddr addr = 0; addr < 60; ++addr)
        engine.submitWrite(addr, payload(addr, 9).data());
    engine.drain();

    for (const auto &completion : engine.takeCompletions()) {
        const ShardSlot slot = system.router.route(completion.addr);
        EXPECT_EQ(completion.shard, slot.shard);
        EXPECT_EQ(completion.local_addr, slot.local);
    }
}

TEST(ShardedEngine, CallbacksFireOnSingleDrainThread)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(2));
    ShardedOramEngine engine(system);

    std::mutex mutex;
    std::set<std::thread::id> callback_threads;
    for (BlockAddr addr = 0; addr < 40; ++addr)
        engine.submitWrite(addr, payload(addr, 3).data(),
                           [&](const ShardedOramEngine::Completion &) {
                               std::lock_guard<std::mutex> lock(mutex);
                               callback_threads.insert(
                                   std::this_thread::get_id());
                           });
    engine.drain();

    ASSERT_EQ(callback_threads.size(), 1u)
        << "callbacks must be serialized on one drain thread";
    EXPECT_NE(*callback_threads.begin(), std::this_thread::get_id())
        << "callbacks must not run on the submitting thread";
}

TEST(ShardedEngine, ReadObservesEarlierQueuedWritePerAddress)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(4));
    ShardedOramEngine engine(system);

    // Same-address requests route to one shard and stay FIFO there,
    // so a read queued after a write must observe it.
    std::mutex mutex;
    std::map<BlockAddr, std::array<std::uint8_t, kBlockDataBytes>> reads;
    for (BlockAddr addr = 0; addr < 30; ++addr) {
        engine.submitWrite(addr, payload(addr, 5).data());
        engine.submitWrite(addr, payload(addr, 6).data());
        engine.submitRead(addr,
                          [&](const ShardedOramEngine::Completion &c) {
                              std::lock_guard<std::mutex> lock(mutex);
                              reads[c.addr] = c.data;
                          });
    }
    engine.drain();
    for (BlockAddr addr = 0; addr < 30; ++addr)
        EXPECT_EQ(reads[addr], payload(addr, 6)) << "addr " << addr;
}

TEST(ShardedEngine, ConcurrentSubmittersAreSafe)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(4));
    ShardedOramEngine engine(system);

    constexpr unsigned kThreads = 4;
    constexpr unsigned kOpsPerThread = 64;
    std::vector<std::vector<ShardedOramEngine::RequestId>> ids(kThreads);
    std::vector<std::thread> submitters;
    for (unsigned t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (unsigned i = 0; i < kOpsPerThread; ++i) {
                const BlockAddr addr = (t * kOpsPerThread + i) % 120;
                ids[t].push_back(
                    engine.submitWrite(addr, payload(addr, 7).data()));
            }
        });
    }
    for (auto &thread : submitters)
        thread.join();
    engine.drain();

    std::set<ShardedOramEngine::RequestId> unique;
    for (const auto &thread_ids : ids)
        unique.insert(thread_ids.begin(), thread_ids.end());
    EXPECT_EQ(unique.size(), kThreads * kOpsPerThread)
        << "request ids must be globally unique";
    EXPECT_EQ(engine.stats().completed, kThreads * kOpsPerThread);
    EXPECT_EQ(engine.pending(), 0u);
}

TEST(ShardedEngine, AggregateStatsMergePerShardAccumulators)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(4));
    ShardedOramEngine engine(system);

    for (BlockAddr addr = 0; addr < 120; ++addr)
        engine.submitWrite(addr, payload(addr, 2).data());
    engine.drain();

    ShardedOramEngine::StatsSnapshot merged;
    for (unsigned k = 0; k < engine.numShards(); ++k) {
        const auto shard = engine.shardStats(k);
        merged.submitted += shard.submitted;
        merged.completed += shard.completed;
        merged.physical_accesses += shard.physical_accesses;
        merged.coalesced += shard.coalesced;
        merged.controller_accesses += shard.controller_accesses;
        merged.stash_hits += shard.stash_hits;
    }
    const auto total = engine.stats();
    EXPECT_EQ(total.submitted, merged.submitted);
    EXPECT_EQ(total.completed, merged.completed);
    EXPECT_EQ(total.physical_accesses, merged.physical_accesses);
    EXPECT_EQ(total.coalesced, merged.coalesced);
    EXPECT_EQ(total.controller_accesses, merged.controller_accesses);
    EXPECT_EQ(merged.controller_accesses, system.totalAccesses());
}

TEST(ShardedSystem, RecoverAllRebuildsEveryShard)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(3));

    constexpr BlockAddr kBlocks = 120;
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
        const auto data = payload(addr, 8);
        const ShardSlot slot = system.router.route(addr);
        system.controller(slot.shard).write(slot.local, data.data());
    }

    // Power failure between accesses: all completed writes are durable.
    // recoverController() applies the ADR flush before rebuilding.
    system.recoverAll();

    for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
        const ShardSlot slot = system.router.route(addr);
        std::memset(buf, 0, sizeof(buf));
        system.controller(slot.shard).read(slot.local, buf);
        EXPECT_EQ(std::memcmp(buf, payload(addr, 8).data(),
                              kBlockDataBytes),
                  0)
            << "addr " << addr << " lost across recovery";
    }
}

} // namespace
} // namespace psoram
