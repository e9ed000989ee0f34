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
 * Headline scenario (ISSUE satellite): the process is killed after
 * shard 0's eviction has fully persisted but while shard 1 is mid-WPQ
 * (entries pushed, "end" signal not yet written). Both shards' NVM
 * images are rebuilt from their backing files in a fresh "process", and
 * both trees + PosMaps must recover to the paper's guarantee: every
 * block reads back a version v with durable <= v <= latest, untorn.
 * (Durability is set by eviction placement — a write whose block stays
 * in the volatile stash rolls back to its durable backup on restart,
 * exactly as in the unsharded crash tests.)
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.hh"
#include "nvm/fault_injector.hh"
#include "nvm/paged_disk.hh"
#include "sim/crash_enumerator.hh"
#include "sim/recovery_invariants.hh"
#include "sim/sharded_engine.hh"
#include "sim/sharded_system.hh"

namespace psoram {
namespace {

/** Page-cache budget that holds every page of these small trees. */
constexpr std::size_t kInCorePages = 4096;

/** A file-backed shard: a paged disk tree that stays in core. */
void
fileBacked(SystemConfig &config, const std::string &backing)
{
    config.backend = BackendKind::Disk;
    config.backing_file = backing;
    config.disk_cache_pages = kInCorePages;
}

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

void
versionedPayload(BlockAddr addr, std::uint32_t version, std::uint8_t *out)
{
    std::memset(out, 0, kBlockDataBytes);
    std::memcpy(out, &addr, sizeof(addr));
    std::memcpy(out + 8, &version, sizeof(version));
}

std::uint32_t
versionOf(const std::uint8_t *data)
{
    std::uint32_t version = 0;
    std::memcpy(&version, data + 8, sizeof(version));
    return version;
}

/** Per-shard versioned-payload oracle fed by the commit observer. */
struct ShardOracle
{
    std::map<BlockAddr, std::uint32_t> committed; // local addr -> version
    std::map<BlockAddr, std::uint32_t> latest;    // local addr -> version

    CommitObserver
    observer()
    {
        return [this](BlockAddr local,
                      const std::array<std::uint8_t, kBlockDataBytes>
                          &data) {
            const std::uint32_t version = versionOf(data.data());
            auto &slot = committed[local];
            ASSERT_GE(version, slot) << "durability went backwards";
            slot = version;
        };
    }

    std::uint32_t
    durableVersion(BlockAddr local) const
    {
        const auto it = committed.find(local);
        return it == committed.end() ? 0 : it->second;
    }
};

/** The shard's disk tree, asserted to be in core. */
PagedDiskBackend *
fileNvm(System &system)
{
    auto *nvm = dynamic_cast<PagedDiskBackend *>(system.device.get());
    EXPECT_NE(nvm, nullptr);
    if (nvm != nullptr) {
        EXPECT_LE(nvm->numPages(), nvm->config().cache_pages)
            << "cache smaller than the tree: not in core";
    }
    return nvm;
}

/** Bytes of page records in the tree file @p path (0 when missing). */
std::uintmax_t
treeFilePageBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec || size < PagedDiskBackend::kHeaderBytes)
        return 0;
    return size - PagedDiskBackend::kHeaderBytes;
}

TEST(ShardedCrash, KillBetweenShardPersistsRecoversBothShards)
{
    const std::string backing =
        ::testing::TempDir() + "psnvm_sharded_crash.img";
    const ShardedSystemConfig config = crashConfig(backing, 2);
    // Per-shard backing files (N > 1 appends .shardK), each with its
    // redo log.
    for (unsigned k = 0; k < 2; ++k) {
        const std::string tree = backing + ".shard" + std::to_string(k);
        std::remove(tree.c_str());
        std::remove((tree + ".wal").c_str());
    }

    constexpr BlockAddr kBlocks = 96;
    std::uint8_t buf[kBlockDataBytes];
    ShardOracle oracle[2];
    BlockAddr in_flight = kDummyBlockAddr;

    // "Process 1": version-1 writes to every address on both shards,
    // then kill the process after shard 0 persisted but while shard 1
    // is mid-WPQ on a version-2 write.
    {
        FaultInjector injector;
        ShardedSystem system = buildShardedSystem(config);
        ASSERT_EQ(system.numShards(), 2u);
        for (unsigned k = 0; k < 2; ++k)
            system.controller(k).setCommitObserver(oracle[k].observer());

        for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            versionedPayload(addr, 1, buf);
            system.controller(slot.shard).write(slot.local, buf);
            oracle[slot.shard].latest[slot.local] = 1;
        }

        // Shard 0: every eviction committed; ADR flush + barrier.
        system.controller(0).powerFailureFlush();
        fileNvm(system.shards[0])->persistBarrier();

        // Shard 1: arm a crash inside the WPQ bracket (entries pushed,
        // commit record not yet written) and trip it with a v2 write.
        system.shards[1].attachFaultInjector(&injector);
        injector.armAtKind(PersistBoundary::RoundCommit, 1);
        bool crashed = false;
        for (BlockAddr addr = 0; addr < kBlocks && !crashed; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            if (slot.shard != 1)
                continue;
            versionedPayload(addr, 2, buf);
            try {
                system.controller(1).write(slot.local, buf);
                oracle[1].latest[slot.local] = 2;
            } catch (const InjectedFault &fault) {
                crashed = true;
                EXPECT_EQ(fault.kind(), PersistBoundary::RoundCommit);
                in_flight = addr;
                // The mid-WPQ write may persist or abort.
                oracle[1].latest[slot.local] = 2;
            }
        }
        ASSERT_TRUE(crashed) << "WPQ crash site never reached";
        ASSERT_NE(in_flight, kDummyBlockAddr);

        // Power fails now: committed WPQ rounds flush, the torn tail
        // does not; barrier shard 1's tree and drop every object.
        system.controller(1).powerFailureFlush();
        fileNvm(system.shards[1])->persistBarrier();
    }

    // The scenario must be non-vacuous: the bulk of both shards' writes
    // became durable before the kill (only stash-resident tails may
    // legally roll back).
    for (unsigned k = 0; k < 2; ++k) {
        std::size_t durable = 0;
        for (const auto &[local, v] : oracle[k].committed)
            if (v >= 1)
                ++durable;
        EXPECT_GT(durable, kBlocks / 4)
            << "shard " << k << " committed almost nothing";
    }

    // "Process 2": rebuild both shards from their backing files alone.
    for (unsigned k = 0; k < 2; ++k)
        EXPECT_GT(treeFilePageBytes(backing + ".shard" +
                                    std::to_string(k)),
                  0u)
            << "shard " << k << " image missing";
    {
        ShardedSystem system = buildShardedSystem(config);
        for (unsigned k = 0; k < 2; ++k) {
            fileNvm(system.shards[k]);
            system.controller(k).recoverFromNvm();
        }

        // Both trees and PosMaps must serve every address again with
        // the per-shard guarantee: durable <= v <= latest, untorn.
        for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            std::memset(buf, 0xFF, sizeof(buf));
            system.controller(slot.shard).read(slot.local, buf);

            const std::uint32_t v = versionOf(buf);
            const std::uint32_t durable =
                oracle[slot.shard].durableVersion(slot.local);
            const std::uint32_t latest =
                oracle[slot.shard].latest.at(slot.local);
            EXPECT_GE(v, durable)
                << "shard " << slot.shard << " lost block " << addr;
            EXPECT_LE(v, latest)
                << "shard " << slot.shard << " resurrected block "
                << addr;
            if (v != 0) {
                BlockAddr stored = 0;
                std::memcpy(&stored, buf, sizeof(stored));
                EXPECT_EQ(stored, addr)
                    << "shard " << slot.shard << " tore block " << addr;
            }
        }

        // Recovery must leave both shards fully functional.
        std::map<BlockAddr, std::uint32_t> post;
        for (BlockAddr addr = 0; addr < kBlocks; addr += 3) {
            const ShardSlot slot = system.router.route(addr);
            const auto version = static_cast<std::uint32_t>(100 + addr);
            versionedPayload(addr, version, buf);
            system.controller(slot.shard).write(slot.local, buf);
            post[addr] = version;
        }
        for (const auto &[addr, version] : post) {
            const ShardSlot slot = system.router.route(addr);
            system.controller(slot.shard).read(slot.local, buf);
            EXPECT_EQ(versionOf(buf), version)
                << "post-recovery shard " << slot.shard << " broken";
        }
    }
    for (unsigned k = 0; k < 2; ++k) {
        const std::string tree = backing + ".shard" + std::to_string(k);
        std::remove(tree.c_str());
        std::remove((tree + ".wal").c_str());
    }
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
    const auto scrub = [&] {
        const auto remove = [](const std::string &tree) {
            std::remove(tree.c_str());
            std::remove((tree + ".wal").c_str());
        };
        remove(backing);
        for (unsigned s = 0; s < num_shards; ++s)
            remove(backing + ".shard" + std::to_string(s));
    };
    scrub();

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
    scrub();
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
