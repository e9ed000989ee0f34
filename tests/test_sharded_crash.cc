/**
 * @file
 * Sharded crash consistency over file-backed shards: the PS-ORAM
 * crash-recovery guarantee must hold *per shard* when a multi-shard
 * deployment dies at an inconvenient moment. Every shard is a paged
 * disk tree whose page cache covers the whole tree (in core: nothing is
 * evicted, so the tree file changes only at checkpoints, and every
 * write in between lives in its redo log) — the in-core counterpart of
 * the out-of-core DiskCrash* tests.
 *
 * Headline scenario: the process is killed after shard 0's eviction
 * has fully persisted but while shard 1 is mid-WPQ (entries pushed,
 * "end" signal not yet written). Both shards' NVM images are rebuilt
 * from their backing files in a fresh "process", and both trees +
 * PosMaps must recover to the paper's guarantee, checked by the
 * recovery-invariant checker per shard (disk_trees.hh,
 * killShardMidWpq). Durability is set by eviction placement — a write
 * whose block stays in the volatile stash rolls back to its durable
 * backup on restart, exactly as in the unsharded crash tests.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.hh"
#include "disk_trees.hh"
#include "sim/sharded_engine.hh"

namespace psoram {
namespace {

using testing::fileBacked;
using testing::fileNvm;

ShardedSystemConfig
crashConfig(const std::string &backing, unsigned shards)
{
    ShardedSystemConfig config;
    config.base.design = DesignKind::PsOram;
    config.base.tree_height = 6;
    config.base.num_blocks = 96;
    config.base.stash_capacity = 64;
    config.base.seed = 23;
    fileBacked(config.base, backing);
    config.sharding.num_shards = shards;
    return config;
}

TEST(ShardedCrash, KillBetweenShardPersistsRecoversBothShards)
{
    const std::string backing =
        ::testing::TempDir() + "psnvm_sharded_crash.img";
    testing::killShardMidWpq(crashConfig(backing, 2).base, 2);
}

/** Per-shard backing files must not collide across shards. */
TEST(ShardedCrash, ShardBackingFilesAreDistinct)
{
    const std::string backing =
        ::testing::TempDir() + "psnvm_sharded_paths.img";
    const ShardedSystemConfig config = crashConfig(backing, 4);
    ShardRouter router(config.sharding, config.base.num_blocks);

    std::set<std::string> paths;
    for (unsigned k = 0; k < 4; ++k) {
        const SystemConfig sc = shardSystemConfig(config, router, k);
        EXPECT_TRUE(paths.insert(sc.backing_file).second)
            << "duplicate backing file " << sc.backing_file;
        EXPECT_NE(sc.backing_file, backing)
            << "shard must not reuse the base path";
    }
}

/**
 * Kill of one file-backed (in-core disk) shard in the middle of a WPQ
 * drain: every shard runs its share of a shared trace as one commit
 * group, the way a shard worker runs a mailbox batch, the victim
 * shard's injector fires at a fixed boundary inside a drain, the victim
 * recovers, and every shard must satisfy the recovery invariants and
 * keep serving verified traffic through a fresh sharded engine. The
 * groups run on the test thread because an injected fault is thrown on
 * the thread that runs the access, and a worker has no caller to throw
 * it to.
 */
void
engineKillMidDrain(unsigned num_shards)
{
    const std::string backing = ::testing::TempDir() +
                                "psnvm_engine_kill_" +
                                std::to_string(num_shards) + ".img";
    ShardedSystemConfig config;
    config.base.design = DesignKind::PsOram;
    config.base.tree_height = 5;
    config.base.num_blocks = 80;
    config.base.stash_capacity = 64;
    config.base.seed = 17;
    config.base.wpq_entries = 8;
    fileBacked(config.base, backing);
    config.sharding.num_shards = num_shards;
    removeDiskTrees(backing);

    ShardedSystem sharded = buildShardedSystem(config);
    for (System &shard : sharded.shards)
        fileNvm(shard);
    std::vector<RecoveryOracle> oracles(sharded.numShards());
    for (unsigned s = 0; s < sharded.numShards(); ++s) {
        sharded.controller(s).setCommitObserver(oracles[s].observer());
        sharded.shards[s].setRebindHook(
            [&oracles, s](PsOramController &ctrl) {
                ctrl.setCommitObserver(oracles[s].observer());
            });
    }

    // Fault the victim at its first boundary from the 40th on that lies
    // strictly inside a drain: a DrainWrite right after another one.
    // The observer runs before the armed check, so arming the current
    // index faults at this very boundary.
    const unsigned victim = num_shards / 2;
    FaultInjector injector;
    sharded.shards[victim].attachFaultInjector(&injector);
    PersistBoundary previous = PersistBoundary::RoundStart;
    injector.setObserver([&](PersistBoundary kind, std::uint64_t index) {
        if (index >= 40 && kind == PersistBoundary::DrainWrite &&
            previous == PersistBoundary::DrainWrite && !injector.fired())
            injector.armAt(index);
        previous = kind;
    });

    const std::vector<TraceOp> trace =
        makeCrashTrace(11, 96, sharded.router.totalBlocks(), 0.7);
    bool crashed = false;
    std::uint8_t buf[kBlockDataBytes];
    try {
        for (unsigned s = 0; s < sharded.numShards(); ++s) {
            PsOramController &ctrl = sharded.controller(s);
            std::size_t served = 0;
            ctrl.beginGroup();
            for (const TraceOp &op : trace) {
                const ShardSlot slot = sharded.router.route(op.addr);
                if (slot.shard != s)
                    continue;
                if (op.is_write) {
                    stampPayload(slot.local, op.version, buf);
                    // Bumped before the access: a write the fault cuts
                    // off only widens the old-or-new window.
                    oracles[s].latest[slot.local] = op.version;
                    ctrl.write(slot.local, buf);
                } else {
                    ctrl.read(slot.local, buf);
                }
                ++served;
            }
            ctrl.endGroup(served);
        }
    } catch (const InjectedFault &) {
        crashed = true;
    }
    injector.disarm();
    ASSERT_TRUE(crashed) << "no mid-drain boundary was reached";

    sharded.recoverShard(victim);
    for (unsigned s = 0; s < sharded.numShards(); ++s)
        for (const std::string &v :
             checkRecoveryInvariants(sharded.shards[s], oracles[s]))
            ADD_FAILURE() << "shard " << s << ": " << v;

    // The recovered stack must still serve verified traffic.
    {
        ShardedOramEngine engine(sharded);
        Rng rng(23);
        std::map<BlockAddr, std::uint32_t> post;
        for (std::size_t op = 0; op < 64; ++op) {
            const BlockAddr addr =
                rng.nextBelow(sharded.router.totalBlocks());
            if (rng.nextBool(0.5)) {
                const auto version =
                    static_cast<std::uint32_t>(3'000'000 + op);
                stampPayload(sharded.router.route(addr).local, version,
                             buf);
                engine.submitWrite(addr, buf);
                post[addr] = version;
            } else if (post.count(addr)) {
                const std::uint32_t expect = post[addr];
                engine.submitRead(
                    addr, [expect](const ShardedOramEngine::Completion &c) {
                        EXPECT_EQ(payloadVersion(c.data.data()), expect);
                    });
            }
        }
        engine.drain();
    }
    removeDiskTrees(backing);
}

TEST(ShardedCrash, EngineKillMidDrainFileBackedOneShard)
{
    engineKillMidDrain(1);
}

TEST(ShardedCrash, EngineKillMidDrainFileBackedTwoShards)
{
    engineKillMidDrain(2);
}

TEST(ShardedCrash, EngineKillMidDrainFileBackedFourShards)
{
    engineKillMidDrain(4);
}

} // namespace
} // namespace psoram
