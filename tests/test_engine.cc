/**
 * @file
 * Shard worker tests, on a one-shard ShardedOramEngine: completion
 * callbacks and latency tracking, and — the headline — request
 * coalescing: a run of back-to-back accesses to one logical block in
 * one mailbox batch costs exactly the tree traffic of a single access.
 *
 * A worker takes whatever its mailbox holds, so the tests that need a
 * whole run in one batch hold the worker inside an earlier request's
 * path access (HeldWorker) while they submit it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <map>
#include <vector>

#include "common/random.hh"
#include "sim/sharded_engine.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

SystemConfig
engineConfig()
{
    SystemConfig config;
    config.design = DesignKind::PsOram;
    config.tree_height = 6;
    config.num_blocks = 120;
    config.stash_capacity = 64;
    config.seed = 17;
    return config;
}

std::array<std::uint8_t, kBlockDataBytes>
pattern(std::uint8_t tag)
{
    std::array<std::uint8_t, kBlockDataBytes> data{};
    data.fill(tag);
    return data;
}

/** A one-shard engine in front of @p system's controller. */
ShardedOramEngine
frontOf(System &system, ShardedEngineConfig config = {})
{
    return ShardedOramEngine(ShardRouter({1}, system.params.num_blocks),
                             {system.controller.get()}, config);
}

/**
 * Holds the shard worker inside the next path access of @p ctrl until
 * release(), so requests submitted meanwhile wait in the mailbox and
 * run as one batch. Declare it after the engine: it releases the worker
 * on destruction, before the engine joins it.
 */
class HeldWorker
{
  public:
    explicit HeldWorker(PsOramController &ctrl)
    {
        ctrl.setPathObserver([this, first = true](PathId) mutable {
            if (!first)
                return;
            first = false;
            entered_.set_value();
            released_.wait();
        });
    }
    ~HeldWorker() { release(); }

    void waitUntilHeld() { entered_.get_future().wait(); }

    void
    release()
    {
        if (!released_flag_) {
            released_flag_ = true;
            release_.set_value();
        }
    }

  private:
    std::promise<void> entered_;
    std::promise<void> release_;
    std::shared_future<void> released_ = release_.get_future().share();
    bool released_flag_ = false;
};

/** The request a HeldWorker holds: a first touch, so never a stash
 *  hit, of a block the tests do not otherwise use. */
constexpr BlockAddr kGateAddr = 0;

TEST(ShardWorker, SubmitQueuesAndPollCompletes)
{
    System system = buildSystem(engineConfig());
    ShardedOramEngine engine = frontOf(system);
    HeldWorker held(*system.controller);
    engine.submitRead(kGateAddr);
    held.waitUntilHeld();

    const auto data = pattern(0x42);
    int callbacks = 0;
    const auto id_w = engine.submitWrite(
        7, data.data(), [&](const ShardedOramEngine::Completion &c) {
            ++callbacks;
            EXPECT_EQ(c.addr, 7u);
            EXPECT_TRUE(c.is_write);
        });
    const auto id_r = engine.submitRead(
        9, [&](const ShardedOramEngine::Completion &c) {
            ++callbacks;
            EXPECT_EQ(c.addr, 9u);
            EXPECT_FALSE(c.is_write);
        });
    EXPECT_NE(id_w, id_r);
    // Nothing queued behind a busy worker runs before it is free.
    EXPECT_EQ(engine.pending(), 3u);
    EXPECT_EQ(callbacks, 0);
    held.release();

    engine.drain();
    EXPECT_EQ(engine.pending(), 0u);
    EXPECT_EQ(callbacks, 2);

    const auto completions = engine.takeCompletions();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_EQ(completions[1].id, id_w);
    EXPECT_GT(completions[1].latency_cycles, 0u);
    EXPECT_EQ(engine.stats().submitted, 3u);
    EXPECT_EQ(engine.stats().completed, 3u);
    EXPECT_EQ(engine.stats().physical_accesses, 3u);
}

TEST(ShardWorker, ReadObservesEarlierQueuedWrite)
{
    System system = buildSystem(engineConfig());
    ShardedOramEngine engine = frontOf(system);
    HeldWorker held(*system.controller);
    engine.submitRead(kGateAddr);
    held.waitUntilHeld();

    const auto data = pattern(0x77);
    engine.submitWrite(3, data.data());
    engine.submitRead(3);
    held.release();
    engine.drain();

    const auto completions = engine.takeCompletions();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_EQ(completions[2].data, data);
    EXPECT_TRUE(completions[2].coalesced);
}

TEST(ShardWorker, CoalescedRunCostsOnePhysicalAccess)
{
    System system = buildSystem(engineConfig());
    ShardedOramEngine engine = frontOf(system);
    HeldWorker held(*system.controller);
    engine.submitRead(kGateAddr);
    held.waitUntilHeld();

    constexpr int kDuplicates = 5;
    for (int i = 0; i < kDuplicates; ++i)
        engine.submitRead(11);
    held.release();
    engine.drain();

    // One controller access served the whole run (plus the gate's).
    EXPECT_EQ(system.controller->accessCount(), 2u);
    EXPECT_EQ(engine.stats().physical_accesses, 2u);
    EXPECT_EQ(engine.stats().coalesced,
              static_cast<std::uint64_t>(kDuplicates - 1));

    // Tree traffic is *identical* to a single access on a twin system.
    System twin = buildSystem(engineConfig());
    std::uint8_t buf[kBlockDataBytes];
    twin.controller->read(kGateAddr, buf);
    twin.controller->read(11, buf);
    EXPECT_EQ(system.device->timing().totalReads(),
              twin.device->timing().totalReads());
    EXPECT_EQ(system.device->timing().totalWrites(),
              twin.device->timing().totalWrites());
}

TEST(ShardWorker, CoalescingOffIssuesEveryAccess)
{
    System system = buildSystem(engineConfig());
    ShardedEngineConfig config;
    config.coalesce = false;
    ShardedOramEngine engine = frontOf(system, config);
    HeldWorker held(*system.controller);
    engine.submitRead(kGateAddr);
    held.waitUntilHeld();

    for (int i = 0; i < 4; ++i)
        engine.submitRead(11);
    held.release();
    engine.drain();

    // Every request reaches the controller: safe-placement eviction
    // returns the block to the tree each access, so each read walks a
    // full path again.
    EXPECT_EQ(system.controller->accessCount(), 5u);
    EXPECT_EQ(engine.stats().physical_accesses, 5u);
    EXPECT_EQ(engine.stats().coalesced, 0u);
}

TEST(ShardWorker, CoalescedTrailingWriteLandsInOram)
{
    System system = buildSystem(engineConfig());
    {
        ShardedOramEngine engine = frontOf(system);
        HeldWorker held(*system.controller);
        engine.submitRead(kGateAddr);
        held.waitUntilHeld();

        const auto data = pattern(0x99);
        engine.submitRead(21);
        engine.submitWrite(21, data.data());
        held.release();
        engine.drain();
        // Read-then-write run: the opening read plus one folded write
        // (plus the gate's access).
        EXPECT_LE(engine.stats().physical_accesses, 3u);
        EXPECT_GE(engine.stats().physical_accesses, 2u);
        EXPECT_EQ(engine.stats().coalesced, 1u);
    }
    // The folded write must be visible to a plain controller read.
    std::uint8_t buf[kBlockDataBytes] = {};
    system.controller->read(21, buf);
    EXPECT_EQ(buf[0], 0x99);
    EXPECT_EQ(buf[kBlockDataBytes - 1], 0x99);
}

TEST(ShardWorker, DistinctAddressesDoNotCoalesce)
{
    System system = buildSystem(engineConfig());
    ShardedOramEngine engine = frontOf(system);
    HeldWorker held(*system.controller);
    engine.submitRead(kGateAddr);
    held.waitUntilHeld();

    engine.submitRead(1);
    engine.submitRead(2);
    engine.submitRead(1); // not adjacent to the first: no merge
    held.release();
    engine.drain();

    EXPECT_EQ(engine.stats().coalesced, 0u);
    EXPECT_EQ(system.controller->accessCount(), 4u);
}

TEST(ShardWorker, HotAddressesReadLatestWriteInSubmitOrder)
{
    // A handful of hot addresses (same-path conflicts, coalescing runs
    // of every shape, batches of whatever size the worker swaps): each
    // read observes the latest preceding write in submit order, and
    // completions arrive in submit order.
    System system = buildSystem(engineConfig());
    ShardedOramEngine engine = frontOf(system);

    std::map<BlockAddr, std::uint8_t> shadow;
    std::vector<ShardedOramEngine::RequestId> completion_order;
    const auto record = [&completion_order](
                            const ShardedOramEngine::Completion &c) {
        completion_order.push_back(c.id);
    };
    Rng rng(7);
    std::uint8_t next_tag = 1;
    for (std::size_t op = 0; op < 600; ++op) {
        const BlockAddr addr = rng.nextBelow(5);
        if (rng.nextBool(0.5)) {
            const std::uint8_t tag = next_tag++;
            shadow[addr] = tag;
            const auto data = pattern(tag);
            engine.submitWrite(addr, data.data(), record);
        } else {
            const std::uint8_t expect_tag =
                shadow.count(addr) ? shadow[addr] : 0;
            engine.submitRead(
                addr, [&record, expect_tag](
                          const ShardedOramEngine::Completion &c) {
                    record(c);
                    EXPECT_EQ(c.data[0], expect_tag);
                });
        }
    }
    engine.drain();

    ASSERT_EQ(completion_order.size(), 600u);
    for (std::size_t i = 1; i < completion_order.size(); ++i)
        EXPECT_LT(completion_order[i - 1], completion_order[i]);
}

} // namespace
} // namespace psoram
