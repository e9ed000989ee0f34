/**
 * @file
 * Sharded crash consistency over FileBackedNvm: the PS-ORAM
 * crash-recovery guarantee must hold *per shard* when a multi-shard
 * deployment dies at an inconvenient moment.
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
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.hh"
#include "nvm/fault_injector.hh"
#include "nvm/file_backed.hh"
#include "sim/crash_enumerator.hh"
#include "sim/engine.hh"
#include "sim/recovery_invariants.hh"
#include "sim/sharded_system.hh"

namespace psoram {
namespace {

ShardedSystemConfig
crashConfig(const std::string &backing, unsigned shards)
{
    ShardedSystemConfig config;
    config.base.design = DesignKind::PsOram;
    config.base.tree_height = 6;
    config.base.num_blocks = 96;
    config.base.stash_capacity = 64;
    config.base.seed = 23;
    config.base.backing_file = backing;
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

FileBackedNvm *
fileNvm(System &system)
{
    auto *nvm = dynamic_cast<FileBackedNvm *>(system.device.get());
    EXPECT_NE(nvm, nullptr);
    return nvm;
}

TEST(ShardedCrash, KillBetweenShardPersistsRecoversBothShards)
{
    const std::string backing =
        ::testing::TempDir() + "psnvm_sharded_crash.img";
    const ShardedSystemConfig config = crashConfig(backing, 2);
    // Per-shard backing files (N > 1 appends .shardK).
    for (unsigned k = 0; k < 2; ++k)
        std::remove((backing + ".shard" + std::to_string(k)).c_str());

    constexpr BlockAddr kBlocks = 96;
    std::uint8_t buf[kBlockDataBytes];
    ShardOracle oracle[2];
    BlockAddr in_flight = kDummyBlockAddr;

    // "Process 1": version-1 writes to every address on both shards,
    // then kill the process after shard 0 persisted but while shard 1
    // is mid-WPQ on a version-2 write.
    {
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

        // Shard 0: every eviction committed; ADR flush + persist.
        system.controller(0).powerFailureFlush();
        ASSERT_TRUE(fileNvm(system.shards[0])->persist());

        // Shard 1: arm a crash inside the WPQ bracket (entries pushed,
        // commit record not yet written) and trip it with a v2 write.
        CrashAtOccurrence policy(CrashSite::BeforeCommit, 1);
        system.controller(1).setCrashPolicy(&policy);
        bool crashed = false;
        for (BlockAddr addr = 0; addr < kBlocks && !crashed; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            if (slot.shard != 1)
                continue;
            versionedPayload(addr, 2, buf);
            try {
                system.controller(1).write(slot.local, buf);
                oracle[1].latest[slot.local] = 2;
            } catch (const CrashEvent &) {
                crashed = true;
                in_flight = addr;
                // The mid-WPQ write may persist or abort.
                oracle[1].latest[slot.local] = 2;
            }
        }
        ASSERT_TRUE(crashed) << "WPQ crash site never reached";
        ASSERT_NE(in_flight, kDummyBlockAddr);

        // Power fails now: committed WPQ rounds flush, the torn tail
        // does not; persist shard 1's image and drop every object.
        system.controller(1).powerFailureFlush();
        ASSERT_TRUE(fileNvm(system.shards[1])->persist());
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
    {
        ShardedSystem system = buildShardedSystem(config);
        for (unsigned k = 0; k < 2; ++k) {
            EXPECT_GT(fileNvm(system.shards[k])->linesLoaded(), 0u)
                << "shard " << k << " image missing";
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

        for (unsigned k = 0; k < 2; ++k)
            fileNvm(system.shards[k])->discardBackingFile();
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
 * Engine-driven kill of one file-backed shard in the middle of a WPQ
 * drain: every shard runs its own OramEngine over a shared trace, the
 * victim shard's injector fires at a fixed boundary inside a drain,
 * the victim recovers, and every shard must satisfy the recovery
 * invariants and keep serving verified traffic through fresh engines.
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
    config.base.backing_file = backing;
    config.sharding.num_shards = num_shards;
    const auto scrub = [&] {
        std::remove(backing.c_str());
        std::remove((backing + ".tmp").c_str());
        for (unsigned s = 0; s < num_shards; ++s) {
            const std::string f = backing + ".shard" + std::to_string(s);
            std::remove(f.c_str());
            std::remove((f + ".tmp").c_str());
        }
    };
    scrub();

    ShardedSystem sharded = buildShardedSystem(config);
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
    {
        EngineConfig engine_config;
        engine_config.record_completions = false;
        std::vector<std::unique_ptr<OramEngine>> engines;
        for (unsigned s = 0; s < sharded.numShards(); ++s)
            engines.push_back(std::make_unique<OramEngine>(
                sharded.controller(s), engine_config));
        try {
            for (const TraceOp &op : trace) {
                const ShardSlot slot = sharded.router.route(op.addr);
                if (op.is_write) {
                    stampPayload(slot.local, op.version, buf);
                    // Bumped at submit: a write still queued when the
                    // fault lands only widens the old-or-new window.
                    oracles[slot.shard].latest[slot.local] = op.version;
                    engines[slot.shard]->submitWrite(slot.local, buf);
                } else {
                    engines[slot.shard]->submitRead(slot.local);
                }
            }
            for (auto &engine : engines)
                engine->drain();
        } catch (const InjectedFault &) {
            crashed = true;
        }
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
        EngineConfig engine_config;
        std::vector<std::unique_ptr<OramEngine>> engines;
        for (unsigned s = 0; s < sharded.numShards(); ++s)
            engines.push_back(std::make_unique<OramEngine>(
                sharded.controller(s), engine_config));
        Rng rng(23);
        std::map<BlockAddr, std::uint32_t> post;
        for (std::size_t op = 0; op < 64; ++op) {
            const BlockAddr addr =
                rng.nextBelow(sharded.router.totalBlocks());
            const ShardSlot slot = sharded.router.route(addr);
            if (rng.nextBool(0.5)) {
                const auto version =
                    static_cast<std::uint32_t>(3'000'000 + op);
                stampPayload(slot.local, version, buf);
                engines[slot.shard]->submitWrite(slot.local, buf);
                post[addr] = version;
            } else if (post.count(addr)) {
                const std::uint32_t expect = post[addr];
                engines[slot.shard]->submitRead(
                    slot.local,
                    [expect](const OramEngine::Completion &c) {
                        EXPECT_EQ(payloadVersion(c.data.data()),
                                  expect);
                    });
            }
        }
        for (auto &engine : engines)
            engine->drain();
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
