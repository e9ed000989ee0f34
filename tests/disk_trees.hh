/**
 * @file
 * Disk-tree helpers shared by the tests that run on the paged disk
 * backend, and the one sharded process-kill scenario.
 *
 * Every disk tree has a redo-log sidecar `<tree>.wal`, and a sharded
 * deployment of N > 1 shards appends `.shardK` to the base path; a
 * test removes all of them together (removeDiskTrees).
 */

#ifndef PSORAM_TESTS_DISK_TREES_HH
#define PSORAM_TESTS_DISK_TREES_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "crash_points.hh"
#include "nvm/paged_disk.hh"
#include "oram/integrity.hh"
#include "sim/crash_enumerator.hh"
#include "sim/recovery_invariants.hh"
#include "sim/sharded_system.hh"

namespace psoram {
namespace testing {

/** Page-cache budget that holds every page of the tests' small trees. */
constexpr std::size_t kInCorePages = 4096;

/** A fresh tree path in the test temp directory: any earlier tree,
 *  log or shard tree under it is removed. */
inline std::string
tmpTree(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    removeDiskTrees(path);
    return path;
}

/** A file-backed system: a paged disk tree that stays in core. */
inline void
fileBacked(SystemConfig &config, const std::string &path)
{
    config.backend = BackendKind::Disk;
    config.backing_file = path;
    config.disk_cache_pages = kInCorePages;
}

/** The system's disk tree, asserted to be in core. */
inline PagedDiskBackend *
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
inline std::uintmax_t
treeFilePageBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec || size < PagedDiskBackend::kHeaderBytes)
        return 0;
    return size - PagedDiskBackend::kHeaderBytes;
}

/**
 * The sharded process kill, on disk-backed shards of @p base. "Process
 * 1" writes version 1 of every block; every shard but the last fully
 * persists; the last shard (the victim) is killed mid-WPQ — a round's
 * entries pushed, its commit record not yet written — on a version-2
 * write, and power fails. "Process 2" reopens every tree from its
 * files alone, recovers it (an integrity layer must accept its own
 * crash image), checks every shard with checkRecoveryInvariants, and
 * serves verified traffic. Payloads carry the shard-local address,
 * which keys each shard's oracle.
 */
inline void
killShardMidWpq(const SystemConfig &base, unsigned num_shards)
{
    ShardedSystemConfig config;
    config.base = base;
    config.sharding.num_shards = num_shards;
    removeDiskTrees(base.backing_file);
    const bool in_core = base.disk_cache_pages >= kInCorePages;
    const unsigned victim = num_shards - 1;
    std::vector<RecoveryOracle> oracle(num_shards);
    std::uint8_t buf[kBlockDataBytes];

    {
        FaultInjector injector;
        ShardedSystem system = buildShardedSystem(config);
        ASSERT_EQ(system.numShards(), num_shards);
        for (unsigned k = 0; k < num_shards; ++k) {
            if (in_core)
                fileNvm(system.shards[k]);
            if (base.integrity != IntegrityMode::Off) {
                ASSERT_NE(system.controller(k).integrity(), nullptr);
            }
            system.controller(k).setCommitObserver(oracle[k].observer());
        }
        for (BlockAddr addr = 0; addr < base.num_blocks; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            oracle[slot.shard].latest[slot.local] = 1;
            stampPayload(slot.local, 1, buf);
            system.controller(slot.shard).write(slot.local, buf);
        }
        for (unsigned k = 0; k < victim; ++k) {
            system.controller(k).powerFailureFlush();
            system.shards[k].device->persistBarrier();
        }

        system.shards[victim].attachFaultInjector(&injector);
        injector.armAtKind(PersistBoundary::RoundCommit, 1);
        bool crashed = false;
        for (BlockAddr addr = 0; addr < base.num_blocks && !crashed;
             ++addr) {
            const ShardSlot slot = system.router.route(addr);
            if (slot.shard != victim)
                continue;
            // Bumped before the write: the one the kill cuts may
            // persist or abort.
            oracle[victim].latest[slot.local] = 2;
            stampPayload(slot.local, 2, buf);
            try {
                system.controller(victim).write(slot.local, buf);
            } catch (const InjectedFault &fault) {
                crashed = true;
                EXPECT_EQ(fault.kind(), PersistBoundary::RoundCommit);
            }
        }
        ASSERT_TRUE(crashed) << "WPQ crash site never reached";
        // Power fails: committed rounds flush, the torn tail does not,
        // and the shard's RAM page cache and unsynced log tail are lost.
        system.controller(victim).powerFailureFlush();
        system.shards[victim].device->persistBarrier();
    }

    // Non-vacuous: the bulk of every shard's writes became durable
    // before the kill (only stash-resident tails may roll back).
    const ShardRouter router(config.sharding, base.num_blocks);
    for (unsigned k = 0; k < num_shards; ++k) {
        std::size_t durable = 0;
        for (const auto &[local, version] : oracle[k].durable)
            durable += version >= 1;
        EXPECT_GT(durable, oracle[k].latest.size() / 2)
            << "shard " << k << " committed almost nothing";
        EXPECT_GT(treeFilePageBytes(
                      shardSystemConfig(config, router, k).backing_file),
                  0u)
            << "shard " << k << " image missing";
    }

    {
        ShardedSystem system = buildShardedSystem(config);
        for (unsigned k = 0; k < num_shards; ++k) {
            if (in_core)
                fileNvm(system.shards[k]);
            try {
                system.controller(k).recoverFromNvm();
            } catch (const IntegrityError &err) {
                FAIL() << "shard " << k << " refused its own crash image: "
                       << IntegrityError::kindName(err.kind());
            }
        }
        for (unsigned k = 0; k < num_shards; ++k) {
            SCOPED_TRACE("shard " + std::to_string(k));
            expectRecovered(system.shards[k], oracle[k]);
        }

        // Recovery must leave every shard fully functional.
        for (BlockAddr addr = 0; addr < base.num_blocks; addr += 3) {
            const ShardSlot slot = system.router.route(addr);
            stampPayload(slot.local, 100 + addr, buf);
            system.controller(slot.shard).write(slot.local, buf);
        }
        for (BlockAddr addr = 0; addr < base.num_blocks; addr += 3) {
            const ShardSlot slot = system.router.route(addr);
            system.controller(slot.shard).read(slot.local, buf);
            EXPECT_EQ(payloadVersion(buf), 100 + addr)
                << "post-recovery shard " << slot.shard << " broken";
        }
    }
    removeDiskTrees(base.backing_file);
}

} // namespace testing
} // namespace psoram

#endif // PSORAM_TESTS_DISK_TREES_HH
