/**
 * @file
 * Group commit: a shard worker runs its mailbox batch as one commit
 * group, syncs the disk tree's redo log once, and only then releases
 * the batch's completions and commit notifications. On the memory
 * backend nothing is ever deferred.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "disk_trees.hh"
#include "sim/sharded_engine.hh"

namespace psoram {
namespace {

constexpr BlockAddr kKeys = 96;

ShardedSystemConfig
groupConfig(BackendKind backend, const std::string &name)
{
    ShardedSystemConfig config;
    config.base.design = DesignKind::PsOram;
    config.base.tree_height = 7;
    config.base.num_blocks = 2 * kKeys;
    config.base.stash_capacity = 64;
    config.base.seed = 47;
    config.base.backend = backend;
    if (backend == BackendKind::Disk) {
        config.base.backing_file = testing::tmpTree(name);
        config.base.disk_cache_pages = 16;
        config.base.disk_pinned_pages = 2;
    }
    config.sharding.num_shards = 2;
    return config;
}

const PagedDiskBackend &
disk(const ShardedSystem &system, unsigned shard)
{
    return dynamic_cast<const PagedDiskBackend &>(
        *system.shards[shard].device);
}

/** Every write's acknowledgement comes after a log sync that followed
 *  its submission, and every request is released by a group sync. */
TEST(GroupCommit, DiskAcksFollowTheirLogSync)
{
    const ShardedSystemConfig config =
        groupConfig(BackendKind::Disk, "group_commit_acks.tree");
    {
        ShardedSystem system = buildShardedSystem(config);
        ShardedOramEngine engine(system);
        std::atomic<unsigned> early{0};
        std::uint8_t payload[kBlockDataBytes];
        for (BlockAddr key = 0; key < kKeys; ++key) {
            const unsigned shard = system.router.route(key).shard;
            const std::uint64_t syncs0 = disk(system, shard).ioStats().log_syncs;
            stampPayload(key, 1, payload);
            engine.submitWrite(
                key, payload,
                [&system, &early, shard,
                 syncs0](const ShardedOramEngine::Completion &) {
                    if (disk(system, shard).ioStats().log_syncs <= syncs0)
                        ++early;
                });
        }
        engine.drain();
        EXPECT_EQ(early.load(), 0u) << "acknowledged before its log sync";
        const ShardedOramEngine::StatsSnapshot stats = engine.stats();
        EXPECT_EQ(stats.group_requests, kKeys)
            << "every write waited for a group sync";
        EXPECT_GE(stats.group_syncs, 2u);
        EXPECT_LE(stats.group_syncs, stats.group_requests);
    }
    removeDiskTrees(config.base.backing_file);
}

/** The memory backend never holds an unsynced tail: no group syncs,
 *  no deferred completions. */
TEST(GroupCommit, MemoryCompletionsAreNeverDeferred)
{
    const ShardedSystemConfig config =
        groupConfig(BackendKind::Memory, "");
    ShardedSystem system = buildShardedSystem(config);
    ShardedOramEngine engine(system);
    std::uint8_t payload[kBlockDataBytes];
    for (BlockAddr key = 0; key < kKeys; ++key) {
        stampPayload(key, 1, payload);
        engine.submitWrite(key, payload);
        engine.submitRead(key);
    }
    engine.drain();
    EXPECT_EQ(engine.stats().group_syncs, 0u);
    EXPECT_EQ(engine.stats().group_requests, 0u);
    for (unsigned shard = 0; shard < 2; ++shard)
        EXPECT_FALSE(system.controller(shard).commitPending());
}

/** Two submitters racing on disk shards read back their own writes
 *  (the group holds reads too: one may see a write of its group). */
TEST(GroupCommit, ConcurrentSubmittersReadTheirWrites)
{
    const ShardedSystemConfig config =
        groupConfig(BackendKind::Disk, "group_commit_threads.tree");
    {
        ShardedSystem system = buildShardedSystem(config);
        ShardedOramEngine engine(system);
        std::atomic<unsigned> wrong{0};
        std::vector<std::thread> submitters;
        for (unsigned t = 0; t < 2; ++t)
            submitters.emplace_back([&engine, &wrong, t] {
                std::uint8_t payload[kBlockDataBytes];
                for (BlockAddr key = t; key < kKeys; key += 2) {
                    stampPayload(key, 7 + t, payload);
                    engine.submitWrite(key, payload);
                    engine.submitRead(
                        key, [&wrong, key, t](
                                 const ShardedOramEngine::Completion &c) {
                            if (payloadVersion(c.data.data()) != 7 + t ||
                                payloadAddr(c.data.data()) != key)
                                ++wrong;
                        });
                }
            });
        for (std::thread &submitter : submitters)
            submitter.join();
        engine.drain();
        EXPECT_EQ(wrong.load(), 0u);
        EXPECT_GT(engine.stats().group_syncs, 0u);
    }
    removeDiskTrees(config.base.backing_file);
}

/** Direct controller use: a group of writes syncs once, and the commit
 *  observer hears of them only after that sync. */
TEST(GroupCommit, ControllerGroupSyncsOnceThenReports)
{
    const ShardedSystemConfig config =
        groupConfig(BackendKind::Disk, "group_commit_direct.tree");
    {
        ShardedSystem system = buildShardedSystem(config);
        PsOramController &controller = system.controller(0);
        RecoveryOracle oracle;
        controller.setCommitObserver(oracle.observer());
        std::uint8_t payload[kBlockDataBytes];

        stampPayload(0, 1, payload);
        controller.write(0, payload);
        EXPECT_EQ(oracle.durableOf(0), 1u) << "a direct write is durable";
        EXPECT_FALSE(controller.commitPending());

        const std::uint64_t syncs0 = disk(system, 0).ioStats().log_syncs;
        controller.beginGroup();
        for (BlockAddr addr = 1; addr <= 4; ++addr) {
            stampPayload(addr, 1, payload);
            controller.write(addr, payload);
        }
        EXPECT_TRUE(controller.commitPending());
        EXPECT_EQ(disk(system, 0).ioStats().log_syncs, syncs0);
        EXPECT_EQ(oracle.durableOf(1), 0u) << "reported before the sync";
        EXPECT_TRUE(controller.endGroup(4));
        EXPECT_EQ(disk(system, 0).ioStats().log_syncs, syncs0 + 1);
        EXPECT_FALSE(controller.commitPending());
        EXPECT_EQ(oracle.durableOf(4), 1u);
        EXPECT_FALSE(oracle.non_monotonic);
    }
    removeDiskTrees(config.base.backing_file);
}

} // namespace
} // namespace psoram
