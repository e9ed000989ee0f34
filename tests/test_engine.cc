/**
 * @file
 * OramEngine tests: async submit/poll semantics, completion callbacks
 * and latency tracking, and — the headline — request coalescing: a run
 * of back-to-back accesses to one logical block costs exactly the tree
 * traffic of a single access.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/random.hh"
#include "sim/engine.hh"
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

TEST(OramEngine, SubmitQueuesAndPollCompletes)
{
    System system = buildSystem(engineConfig());
    OramEngine engine(*system.controller);

    const auto data = pattern(0x42);
    int callbacks = 0;
    const auto id_w = engine.submitWrite(
        7, data.data(), [&](const OramEngine::Completion &c) {
            ++callbacks;
            EXPECT_EQ(c.addr, 7u);
            EXPECT_TRUE(c.is_write);
        });
    const auto id_r = engine.submitRead(
        9, [&](const OramEngine::Completion &c) {
            ++callbacks;
            EXPECT_EQ(c.addr, 9u);
            EXPECT_FALSE(c.is_write);
        });
    EXPECT_NE(id_w, id_r);
    EXPECT_EQ(engine.pending(), 2u);
    EXPECT_EQ(callbacks, 0); // nothing runs before poll()

    EXPECT_EQ(engine.drain(), 2u);
    EXPECT_EQ(engine.pending(), 0u);
    EXPECT_EQ(callbacks, 2);

    const auto completions = engine.takeCompletions();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0].id, id_w);
    EXPECT_GT(completions[0].latency_cycles, 0u);
    EXPECT_EQ(engine.stats().submitted.value(), 2u);
    EXPECT_EQ(engine.stats().completed.value(), 2u);
    EXPECT_EQ(engine.stats().physical_accesses.value(), 2u);
}

TEST(OramEngine, ReadObservesEarlierQueuedWrite)
{
    System system = buildSystem(engineConfig());
    OramEngine engine(*system.controller);

    const auto data = pattern(0x77);
    engine.submitWrite(3, data.data());
    engine.submitRead(3);
    engine.drain();

    const auto completions = engine.takeCompletions();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[1].data, data);
    EXPECT_TRUE(completions[1].coalesced);
}

TEST(OramEngine, CoalescedRunCostsOnePhysicalAccess)
{
    System system = buildSystem(engineConfig());
    OramEngine engine(*system.controller);

    constexpr int kDuplicates = 5;
    for (int i = 0; i < kDuplicates; ++i)
        engine.submitRead(11);
    EXPECT_EQ(engine.drain(), static_cast<std::size_t>(kDuplicates));

    // One controller access served the whole run.
    EXPECT_EQ(system.controller->accessCount(), 1u);
    EXPECT_EQ(engine.stats().physical_accesses.value(), 1u);
    EXPECT_EQ(engine.stats().coalesced.value(),
              static_cast<std::uint64_t>(kDuplicates - 1));

    // Tree traffic is *identical* to a single access on a twin system.
    System twin = buildSystem(engineConfig());
    std::uint8_t buf[kBlockDataBytes];
    twin.controller->read(11, buf);
    EXPECT_EQ(system.device->totalReads(), twin.device->totalReads());
    EXPECT_EQ(system.device->totalWrites(), twin.device->totalWrites());
}

TEST(OramEngine, CoalescingOffIssuesEveryAccess)
{
    System system = buildSystem(engineConfig());
    EngineConfig config;
    config.coalesce = false;
    OramEngine engine(*system.controller, config);

    for (int i = 0; i < 4; ++i)
        engine.submitRead(11);
    engine.drain();

    // Every request reaches the controller: safe-placement eviction
    // returns the block to the tree each access, so each read walks a
    // full path again.
    EXPECT_EQ(system.controller->accessCount(), 4u);
    EXPECT_EQ(engine.stats().physical_accesses.value(), 4u);
    EXPECT_EQ(engine.stats().coalesced.value(), 0u);
}

TEST(OramEngine, CoalescedTrailingWriteLandsInOram)
{
    System system = buildSystem(engineConfig());
    {
        OramEngine engine(*system.controller);
        const auto data = pattern(0x99);
        engine.submitRead(21);
        engine.submitWrite(21, data.data());
        engine.drain();
        // Read-then-write run: the opening read plus one folded write.
        EXPECT_LE(engine.stats().physical_accesses.value(), 2u);
        EXPECT_GE(engine.stats().physical_accesses.value(), 1u);
    }
    // The folded write must be visible to a plain controller read.
    std::uint8_t buf[kBlockDataBytes] = {};
    system.controller->read(21, buf);
    EXPECT_EQ(buf[0], 0x99);
    EXPECT_EQ(buf[kBlockDataBytes - 1], 0x99);
}

TEST(OramEngine, DistinctAddressesDoNotCoalesce)
{
    System system = buildSystem(engineConfig());
    OramEngine engine(*system.controller);

    engine.submitRead(1);
    engine.submitRead(2);
    engine.submitRead(1); // not adjacent to the first: no merge
    engine.drain();

    EXPECT_EQ(engine.stats().coalesced.value(), 0u);
    EXPECT_EQ(system.controller->accessCount(), 3u);
}

TEST(OramEngine, HotAddressesReadLatestWriteInSubmitOrder)
{
    // A handful of hot addresses (same-path conflicts, coalescing runs
    // of every shape): each read observes the latest preceding write in
    // submit order, and completions arrive in submit order.
    System system = buildSystem(engineConfig());
    OramEngine engine(*system.controller);

    std::map<BlockAddr, std::uint8_t> shadow;
    std::vector<OramEngine::RequestId> completion_order;
    const auto record = [&completion_order](
                            const OramEngine::Completion &c) {
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
                          const OramEngine::Completion &c) {
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
