/**
 * @file
 * BatchScheduler tests: read dedup (one physical access fans out the
 * same value to every waiter), read-after-write forwarding (a read of
 * a key with an in-flight write completes inline with the pending
 * payload) and drain semantics.
 *
 * The engine runs real worker threads, so "concurrent" is made
 * deterministic by queueing filler requests on the target shard first:
 * per-shard FIFO order guarantees the leader (or pending write) is
 * still in flight when the duplicates arrive.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/batch_scheduler.hh"
#include "sim/sharded_system.hh"

namespace psoram::serve {
namespace {

ShardedSystemConfig
shardedConfig(unsigned shards)
{
    ShardedSystemConfig config;
    config.base.design = DesignKind::PsOram;
    config.base.tree_height = 6;
    config.base.num_blocks = 120;
    config.base.stash_capacity = 64;
    config.base.seed = 23;
    config.sharding.num_shards = shards;
    return config;
}

std::array<std::uint8_t, kBlockDataBytes>
payload(BlockAddr addr, std::uint8_t salt)
{
    std::array<std::uint8_t, kBlockDataBytes> data{};
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(addr * 37 + salt + i);
    return data;
}

/** Queue @p count reads of addresses on the same shard as @p target so
 *  later submissions to that shard sit behind them in FIFO order. */
void
stallShardOf(BatchScheduler &scheduler, const ShardRouter &router,
             BlockAddr target, unsigned count, BlockAddr total_blocks)
{
    const unsigned shard = router.route(target).shard;
    unsigned queued = 0;
    for (BlockAddr addr = 0; addr < total_blocks && queued < count;
         ++addr) {
        if (addr == target || router.route(addr).shard != shard)
            continue;
        scheduler.submitRead(addr, nullptr);
        ++queued;
    }
    ASSERT_EQ(queued, count) << "not enough same-shard filler keys";
}

TEST(BatchScheduler, DedupFansOneAccessOutToAllWaiters)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(2));
    ShardRouter router(system.config.sharding,
                       system.config.base.num_blocks);
    ShardedOramEngine engine(system);
    BatchScheduler scheduler(engine);

    constexpr BlockAddr kKey = 42;
    scheduler.submitWrite(kKey, payload(kKey, 5).data());
    scheduler.drain();
    const std::uint64_t physical_before =
        engine.stats().physical_accesses;

    // Park the leader behind filler so the 8 duplicates attach while
    // it is still in flight.
    stallShardOf(scheduler, router, kKey, 16,
                 system.config.base.num_blocks);

    std::mutex mutex;
    std::vector<BatchScheduler::Result> results;
    constexpr int kReaders = 9; // 1 leader + 8 waiters
    for (int i = 0; i < kReaders; ++i)
        scheduler.submitRead(kKey,
                             [&](const BatchScheduler::Result &result) {
                                 std::lock_guard<std::mutex> lock(mutex);
                                 results.push_back(result);
                             });
    scheduler.drain();

    ASSERT_EQ(results.size(), static_cast<std::size_t>(kReaders));
    for (const auto &result : results) {
        EXPECT_EQ(result.addr, kKey);
        EXPECT_FALSE(result.is_write);
        EXPECT_EQ(result.data, payload(kKey, 5))
            << "waiter observed a different value than the leader";
    }
    int coalesced = 0;
    for (const auto &result : results)
        coalesced += result.coalesced;
    EXPECT_EQ(coalesced, kReaders - 1);

    EXPECT_EQ(scheduler.stats().deduped_reads.value(),
              static_cast<std::uint64_t>(kReaders - 1));
    // 16 filler + 1 leader reach the engine; the 8 waiters never do.
    EXPECT_EQ(scheduler.stats().engine_reads.value(), 17u);
    EXPECT_EQ(engine.stats().physical_accesses - physical_before, 17u)
        << "waiters must not cost physical ORAM accesses";
}

TEST(BatchScheduler, ReadAfterWriteForwardsPendingPayloadInline)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(2));
    ShardRouter router(system.config.sharding,
                       system.config.base.num_blocks);
    ShardedOramEngine engine(system);
    BatchScheduler scheduler(engine);

    constexpr BlockAddr kKey = 7;
    stallShardOf(scheduler, router, kKey, 16,
                 system.config.base.num_blocks);
    scheduler.submitWrite(kKey, payload(kKey, 9).data());

    // The write is parked behind the filler, so the read must be
    // served from the pending payload, inline on this thread.
    std::atomic<bool> fired{false};
    const std::thread::id submitter = std::this_thread::get_id();
    scheduler.submitRead(kKey,
                         [&](const BatchScheduler::Result &result) {
                             EXPECT_EQ(result.addr, kKey);
                             EXPECT_TRUE(result.coalesced);
                             EXPECT_EQ(result.data, payload(kKey, 9));
                             EXPECT_EQ(std::this_thread::get_id(),
                                       submitter);
                             fired.store(true);
                         });
    EXPECT_TRUE(fired.load())
        << "forwarded read must complete before submitRead returns";
    EXPECT_EQ(scheduler.stats().forwarded_reads.value(), 1u);
    scheduler.drain();

    // After the write lands, a fresh read observes the same value via
    // the normal engine path.
    std::array<std::uint8_t, kBlockDataBytes> observed{};
    scheduler.submitRead(kKey,
                         [&](const BatchScheduler::Result &result) {
                             observed = result.data;
                         });
    scheduler.drain();
    EXPECT_EQ(observed, payload(kKey, 9));
}

TEST(BatchScheduler, LatestWriteWinsForForwarding)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(2));
    ShardRouter router(system.config.sharding,
                       system.config.base.num_blocks);
    ShardedOramEngine engine(system);
    BatchScheduler scheduler(engine);

    constexpr BlockAddr kKey = 11;
    stallShardOf(scheduler, router, kKey, 16,
                 system.config.base.num_blocks);
    scheduler.submitWrite(kKey, payload(kKey, 1).data());
    scheduler.submitWrite(kKey, payload(kKey, 2).data());

    std::array<std::uint8_t, kBlockDataBytes> observed{};
    scheduler.submitRead(kKey,
                         [&](const BatchScheduler::Result &result) {
                             observed = result.data;
                         });
    EXPECT_EQ(observed, payload(kKey, 2))
        << "forwarding must serve the latest pending write";
    scheduler.drain();
}

TEST(BatchScheduler, ConcurrentSubmittersSeeConsistentValues)
{
    ShardedSystem system = buildShardedSystem(shardedConfig(4));
    ShardedOramEngine engine(system);
    BatchScheduler scheduler(engine);

    constexpr BlockAddr kBlocks = 100;
    for (BlockAddr addr = 0; addr < kBlocks; ++addr)
        scheduler.submitWrite(addr, payload(addr, 3).data());
    scheduler.drain();

    // 4 threads hammer overlapping hot keys; every read must observe
    // the (stable) written value regardless of dedup decisions.
    std::atomic<int> mismatches{0};
    std::atomic<int> completions{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 200; ++i) {
                const BlockAddr addr = (t * 7 + i) % 16; // hot subset
                scheduler.submitRead(
                    addr, [&, addr](const BatchScheduler::Result &r) {
                        if (r.data != payload(addr, 3))
                            mismatches.fetch_add(1);
                        completions.fetch_add(1);
                    });
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    scheduler.drain();

    EXPECT_EQ(completions.load(), 800);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(scheduler.stats().reads.value(), 800u);
    EXPECT_EQ(scheduler.stats().engine_reads.value() +
                  scheduler.stats().deduped_reads.value() +
                  scheduler.stats().forwarded_reads.value(),
              800u)
        << "every read is a leader, a waiter, or a forward";
}

} // namespace
} // namespace psoram::serve
