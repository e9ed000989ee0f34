/**
 * @file
 * Protocol-phase unit tests: each phase component runs against a
 * PhaseEnv assembled from stand-alone subsystems — no controller.
 *
 * This is the point of the phase decomposition: the remap staging rule
 * (step 2) and the safe-placement eviction (step 5) are checked in
 * isolation, with the test owning every piece of state the phase reads
 * or writes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "nvm/device.hh"
#include "nvm/timing.hh"
#include "psoram/evictor.hh"
#include "psoram/phase_env.hh"
#include "psoram/remapper.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

/** Stand-alone subsystem bundle a PhaseEnv can borrow from. */
struct PhaseRig
{
    explicit PhaseRig(DesignKind design)
        : params(makeParams(design)),
          device(pcmTimings(), 1, 8, 64ULL << 20),
          codec(params.key, params.cipher), rng(params.seed ^ 0xabcd),
          stash(params.stash_capacity),
          temp(params.design.temp_posmap_entries),
          volatile_posmap(params.num_blocks,
                          params.data_layout.geometry.numLeaves(),
                          params.seed),
          persistent_posmap(params.posmap_region_base, params.num_blocks,
                            params.seed,
                            params.data_layout.geometry.numLeaves())
    {
        if (params.design.persist != PersistMode::None)
            drainer = std::make_unique<Drainer>(
                params.design.wpq_entries, params.design.wpq_entries);
        env = std::make_unique<PhaseEnv>(PhaseEnv{
            params, params.data_layout.geometry, device, codec, rng,
            stash, temp, volatile_posmap, persistent_posmap, counters,
            nullptr, nullptr, nullptr, nullptr, drainer.get(), nullptr,
            nullptr, 0});
    }

    static PsOramParams
    makeParams(DesignKind design)
    {
        SystemConfig config;
        config.design = design;
        config.tree_height = 5;
        config.num_blocks = 60;
        config.stash_capacity = 64;
        config.seed = 7;
        return systemParams(config);
    }

    PsOramParams params;
    NvmDevice device;
    BlockCodec codec;
    Rng rng;
    Stash stash;
    TempPosMap temp;
    PosMap volatile_posmap;
    PersistentPosMap persistent_posmap;
    ProtocolCounters counters;
    std::unique_ptr<Drainer> drainer;
    std::unique_ptr<PhaseEnv> env;
};

TEST(RemapperPhase, PersistentDesignStagesRemapInTempPosMap)
{
    PhaseRig rig(DesignKind::PsOram);
    Remapper remapper(*rig.env);

    const BlockAddr addr = 13;
    const PathId committed_before = rig.env->committedPath(addr);

    AccessContext ctx;
    ctx.addr = addr;
    remapper.run(ctx);

    // The phase reports the committed path and picks a distinct target.
    EXPECT_EQ(ctx.leaf, committed_before);
    EXPECT_NE(ctx.new_leaf, ctx.leaf);

    // The remap is *staged*: the temporary PosMap holds the new label,
    // the committed (persistent) map is untouched until eviction.
    const auto staged = rig.temp.get(addr);
    ASSERT_TRUE(staged.has_value());
    EXPECT_EQ(*staged, ctx.new_leaf);
    EXPECT_EQ(rig.env->committedPath(addr), committed_before);
}

TEST(RemapperPhase, NonPersistentDesignWritesVolatileMapThrough)
{
    PhaseRig rig(DesignKind::Baseline);
    Remapper remapper(*rig.env);

    const BlockAddr addr = 21;
    const PathId before = rig.volatile_posmap.get(addr);

    AccessContext ctx;
    ctx.addr = addr;
    remapper.run(ctx);

    EXPECT_EQ(ctx.leaf, before);
    // Baseline updates the volatile map immediately and stages nothing.
    EXPECT_EQ(rig.volatile_posmap.get(addr), ctx.new_leaf);
    EXPECT_FALSE(rig.temp.get(addr).has_value());
}

TEST(RemapperPhase, DistinctLeafRuleCountsForcedMergesWhenTempFull)
{
    PhaseRig rig(DesignKind::PsOram);
    Remapper remapper(*rig.env);
    // Fill the temporary PosMap to capacity (keys outside the remapped
    // block's address so nothing collides), then remap one more block.
    const std::size_t cap = rig.params.design.temp_posmap_entries;
    for (std::size_t i = 0; i < cap; ++i)
        rig.temp.put(static_cast<BlockAddr>(1000 + i), 0);
    AccessContext ctx;
    ctx.addr = 50;
    remapper.run(ctx);
    EXPECT_EQ(rig.counters.forced_merges.value(), 1u);
}

TEST(EvictorPhase, PlacesStashBlockOnPathAndCommitsAtomically)
{
    PhaseRig rig(DesignKind::PsOram);
    Evictor evictor(*rig.env);

    // One dirty block in the stash, mapped onto the eviction path.
    const BlockAddr addr = 5;
    const PathId leaf = 9;
    StashEntry entry;
    entry.addr = addr;
    entry.path = leaf;
    entry.epoch = 1;
    entry.data[0] = 0xCE;
    rig.stash.insert(entry);
    rig.temp.put(addr, leaf); // pending remap -> DirtyOnly metadata

    AccessContext ctx;
    ctx.addr = addr;
    ctx.leaf = leaf;
    // Empty ctx.slots: the whole path previously held dummies, so every
    // slot is a safe placement site.
    evictor.run(ctx);

    // The block left the stash and one atomic round was issued.
    EXPECT_EQ(rig.stash.find(addr), nullptr);
    ASSERT_NE(rig.drainer, nullptr);
    EXPECT_GE(rig.drainer->roundsIssued(), 1u);
    // Its pending remap entry was merged (committed) out of the
    // temporary PosMap.
    EXPECT_FALSE(rig.temp.get(addr).has_value());

    // The block is findable on the path in the NVM image.
    const TreeGeometry &geo = rig.params.data_layout.geometry;
    bool found = false;
    for (unsigned level = 0; level <= geo.height && !found; ++level) {
        const BucketId bucket = geo.bucketAt(leaf, level);
        for (unsigned s = 0; s < geo.bucket_slots; ++s) {
            SlotBytes raw{};
            rig.device.readBytes(
                rig.params.data_layout.slotAddr(bucket, s), raw.data(),
                kSlotBytes);
            const PlainBlock block = rig.codec.decode(raw);
            if (!block.isDummy() && block.addr == addr) {
                EXPECT_EQ(block.data[0], 0xCE);
                found = true;
                break;
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(EvictorPhase, EveryPathSlotIsRewrittenObliviously)
{
    PhaseRig rig(DesignKind::PsOram);
    Evictor evictor(*rig.env);

    AccessContext ctx;
    ctx.addr = 3;
    ctx.leaf = 4;
    evictor.run(ctx);

    // Even with an empty stash the full path is re-emitted: one write
    // per slot (obliviousness — the adversary learns nothing from which
    // slots change).
    const TreeGeometry &geo = rig.params.data_layout.geometry;
    EXPECT_GE(rig.device.timing().totalWrites(), geo.blocksPerPath());
}

TEST(EvictorPhase, NonPersistentDesignWritesBackDirectly)
{
    PhaseRig rig(DesignKind::Baseline);
    Evictor evictor(*rig.env);
    ASSERT_EQ(rig.drainer, nullptr);

    StashEntry entry;
    entry.addr = 2;
    entry.path = 6;
    rig.stash.insert(entry);

    AccessContext ctx;
    ctx.addr = 2;
    ctx.leaf = 6;
    evictor.run(ctx);

    // Greedy write-back without any WPQ bracket.
    EXPECT_EQ(rig.stash.find(2), nullptr);
    EXPECT_GT(rig.device.timing().totalWrites(), 0u);
}

} // namespace
} // namespace psoram
