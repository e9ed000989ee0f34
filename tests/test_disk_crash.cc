/**
 * @file
 * Crash consistency on the PagedDiskBackend: the full PS-ORAM recovery
 * guarantee must hold when the tree lives on a real file behind a
 * write-back page cache and a redo log — including the crash points the
 * disk tier *adds*: a torn log record (LogAppend), the pre-fdatasync
 * window that loses the log's unsynced tail (LogSync), and a
 * checkpoint's torn in-place page (PageWrite) and tree fsync (Sync).
 *
 * The enumerations loop over armed replays directly instead of calling
 * enumerateCrashPoints(): each replay rebuilds the System, and on disk
 * that would reopen the previous replay's tree — the backing file and
 * its log must be wiped between replays to keep them independent.
 *
 * Group commit gets its own enumeration: the trace runs in commit
 * groups (PsOramController::beginGroup/endGroup), as a sharded engine
 * worker runs one mailbox batch, so a crash at the group's LogSync cuts
 * several accesses at once. The negative control truncates the log
 * before recovery, which must surface as lost writes.
 *
 * The sharded tests (2 and 4 shards) replay the cross-shard kill
 * scenario from test_sharded_crash.cc on disk trees: shard 0 fully
 * persisted, shard 1 killed mid-WPQ, every shard's RAM page cache lost,
 * recovery from the files alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "common/random.hh"
#include "nvm/paged_disk.hh"
#include "sim/crash_enumerator.hh"
#include "sim/sharded_system.hh"

namespace psoram {
namespace {

/** Remove a tree and its redo log. */
void
removeTree(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
}

std::string
tmpTree(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    removeTree(path);
    for (unsigned shard = 0; shard < 8; ++shard)
        removeTree(path + ".shard" + std::to_string(shard));
    return path;
}

/** The 32-page cache holds the whole height-5 tree (9 subtree pages),
 *  so a 200-write drive makes 0 evictions: the rows built on this
 *  config enumerate an in-core disk tier. The only eviction-under-crash
 *  row is EvictionsInAGroupRespectTheWriteAheadRule, with a 2-page
 *  cache (ROADMAP item 13). */
SystemConfig
diskCrashConfig(const std::string &path)
{
    SystemConfig config;
    config.design = DesignKind::PsOram;
    config.tree_height = 5;
    config.num_blocks = 24;
    config.stash_capacity = 64;
    config.seed = 29;
    config.backend = BackendKind::Disk;
    config.backing_file = path;
    config.disk_cache_pages = 32;
    config.disk_pinned_pages = 4;
    return config;
}

/** A cache just large enough for the working set (no evictions), so
 *  its derived log fills every ~50 accesses and a 64-access trace
 *  crosses a checkpoint (PageWrite and Sync boundaries). */
SystemConfig
checkpointingConfig(const std::string &path)
{
    SystemConfig config = diskCrashConfig(path);
    config.disk_cache_pages = 8;
    config.disk_pinned_pages = 1;
    return config;
}

/**
 * Drive @p trace in commit groups of @p group accesses (1 = every
 * access durable on return, the direct-call path).
 * @return true if an InjectedFault aborted the run
 */
bool
runGrouped(System &system, const std::vector<TraceOp> &trace,
           std::size_t group, RecoveryOracle &oracle)
{
    std::uint8_t buf[kBlockDataBytes];
    std::size_t in_group = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceOp &op = trace[i];
        try {
            if (group > 1 && in_group == 0)
                system.controller->beginGroup();
            if (op.is_write) {
                oracle.latest[op.addr] = op.version;
                stampPayload(op.addr, op.version, buf);
                system.controller->write(op.addr, buf);
            } else {
                system.controller->read(op.addr, buf);
            }
            if (group > 1 &&
                (++in_group == group || i + 1 == trace.size())) {
                system.controller->endGroup(in_group);
                in_group = 0;
            }
        } catch (const InjectedFault &) {
            return true;
        }
    }
    return false;
}

/** Kind of every boundary (1-based index) of a clean grouped run. */
std::vector<PersistBoundary>
probeKinds(const SystemConfig &config, const std::vector<TraceOp> &trace,
           std::size_t group)
{
    removeTree(config.backing_file);
    std::vector<PersistBoundary> kinds;
    System system = buildSystem(config);
    RecoveryOracle oracle;
    FaultInjector injector;
    injector.setObserver([&kinds](PersistBoundary kind, std::uint64_t) {
        kinds.push_back(kind);
    });
    system.attachFaultInjector(&injector);
    runGrouped(system, trace, group, oracle);
    system.attachFaultInjector(nullptr);
    return kinds;
}

/**
 * One armed replay of a grouped trace: crash at boundary @p k, recover
 * in process, run the I1-I5 checker and a verified follow-up workload.
 * With @p lose_log the redo log is truncated before recovery (the
 * negative control).
 */
std::vector<std::string>
runGroupedCrash(const SystemConfig &config,
                const std::vector<TraceOp> &trace, std::size_t group,
                std::uint64_t k, bool lose_log = false)
{
    removeTree(config.backing_file);
    System system = buildSystem(config);
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    system.setRebindHook([&oracle](PsOramController &ctrl) {
        ctrl.setCommitObserver(oracle.observer());
    });
    FaultInjector injector;
    system.attachFaultInjector(&injector);
    injector.armAt(k);

    const std::string where =
        "boundary " + std::to_string(k) + " (group " +
        std::to_string(group) + ")";
    std::vector<std::string> violations;
    if (!runGrouped(system, trace, group, oracle)) {
        violations.push_back(where + ": armed fault never fired");
        return violations;
    }
    const std::string kind = persistBoundaryName(injector.firedKind());
    if (oracle.non_monotonic)
        violations.push_back(where + ": durability went backwards");
    if (lose_log)
        std::filesystem::resize_file(config.backing_file + ".wal", 0);
    system.recoverController();
    for (std::string &v : checkRecoveryInvariants(system, oracle))
        violations.push_back(where + " " + kind + ": " + std::move(v));

    Rng rng(config.seed ^ k);
    std::uint8_t buf[kBlockDataBytes];
    std::map<BlockAddr, std::uint32_t> post;
    for (unsigned op = 0; op < 16; ++op) {
        const BlockAddr addr = rng.nextBelow(config.num_blocks);
        if (rng.nextBool(0.5)) {
            const auto version = static_cast<std::uint32_t>(1'000'000 + op);
            stampPayload(addr, version, buf);
            system.controller->write(addr, buf);
            post[addr] = version;
        } else if (post.count(addr)) {
            system.controller->read(addr, buf);
            if (payloadVersion(buf) != post[addr])
                violations.push_back(where + " " + kind +
                                     ": post-recovery ORAM broken");
        }
    }
    return violations;
}

std::size_t
countKind(const std::vector<PersistBoundary> &kinds, PersistBoundary kind)
{
    return static_cast<std::size_t>(
        std::count(kinds.begin(), kinds.end(), kind));
}

/**
 * Sampled crash-point enumeration over the disk backend, with a fresh
 * tree per replay, on a trace that crosses a checkpoint. The stride is
 * co-prime with the per-access boundary period so every boundary kind
 * is hit somewhere.
 */
TEST(DiskCrashEnum, SampledBoundariesAllRecoverOnDisk)
{
    const std::string path = tmpTree("disk_crash_enum.tree");
    CrashEnumConfig config;
    config.system = checkpointingConfig(path);
    config.trace = makeCrashTrace(/*seed=*/7, /*ops=*/64,
                                  config.system.num_blocks);
    config.post_recovery_ops = 32;

    const std::vector<PersistBoundary> kinds =
        probeKinds(config.system, config.trace, 1);
    ASSERT_FALSE(kinds.empty());
    // The disk tier's own crash points must be in the enumeration
    // domain, or the torn-record and torn-page arguments are vacuous.
    for (const PersistBoundary kind :
         {PersistBoundary::RoundStart, PersistBoundary::RoundCommit,
          PersistBoundary::DrainWrite, PersistBoundary::LogAppend,
          PersistBoundary::LogSync, PersistBoundary::PageWrite,
          PersistBoundary::Sync})
        EXPECT_GT(countKind(kinds, kind), 0u)
            << "no " << persistBoundaryName(kind) << " crash points";

    std::uint64_t replays = 0;
    for (std::uint64_t k = 1; k <= kinds.size(); k += 11) {
        removeTree(path); // fresh tree per replay
        const std::vector<std::string> violations =
            runArmedCrash(config, k);
        ++replays;
        for (const std::string &violation : violations)
            ADD_FAILURE() << violation;
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_GT(replays, 10u);
    removeTree(path);
}

/**
 * Every boundary the disk tier adds — each torn record, each log sync,
 * each torn checkpoint page and each tree fsync — plus the first of
 * every protocol kind, replayed and checked like any other point.
 */
TEST(DiskCrashEnum, TornPageAndFsyncBoundariesRecover)
{
    const std::string path = tmpTree("disk_crash_kinds.tree");
    CrashEnumConfig config;
    config.system = checkpointingConfig(path);
    config.trace = makeCrashTrace(/*seed=*/11, /*ops=*/64,
                                  config.system.num_blocks);
    config.post_recovery_ops = 24;

    const std::vector<PersistBoundary> kinds =
        probeKinds(config.system, config.trace, 1);
    std::set<PersistBoundary> first_seen;
    std::size_t replayed = 0;
    for (std::uint64_t k = 1; k <= kinds.size(); ++k) {
        const PersistBoundary kind = kinds[k - 1];
        const bool disk_kind = kind == PersistBoundary::PageWrite ||
                               kind == PersistBoundary::Sync ||
                               kind == PersistBoundary::LogAppend ||
                               kind == PersistBoundary::LogSync;
        if (!disk_kind && !first_seen.insert(kind).second)
            continue;
        removeTree(path);
        for (const std::string &violation : runArmedCrash(config, k))
            ADD_FAILURE()
                << persistBoundaryName(kind) << ": " << violation;
        ++replayed;
    }
    EXPECT_GT(countKind(kinds, PersistBoundary::PageWrite), 0u);
    EXPECT_GT(replayed, countKind(kinds, PersistBoundary::LogSync));
    removeTree(path);
}

/**
 * Torn pages and torn records under the integrity layer: crash at
 * every disk-tier boundary (and the first of every protocol kind) with
 * integrity=tree and recover. A tear must be healed by log replay,
 * rejected by the record CRC, or surface as a typed MAC/hash refusal —
 * never as silently accepted corrupt data. The armed replay's
 * invariant checker (I4 old-or-new + I5 integrity re-verification) is
 * exactly that never-silent guarantee.
 */
TEST(DiskCrashEnum, TornPageWithIntegrityTreeNeverSilent)
{
    const std::string path = tmpTree("disk_crash_integrity.tree");
    CrashEnumConfig config;
    config.system = checkpointingConfig(path);
    config.system.integrity = IntegrityMode::Tree;
    config.trace = makeCrashTrace(/*seed=*/11, /*ops=*/64,
                                  config.system.num_blocks);
    config.post_recovery_ops = 24;

    const std::vector<PersistBoundary> kinds =
        probeKinds(config.system, config.trace, 1);
    ASSERT_GT(countKind(kinds, PersistBoundary::PageWrite), 0u)
        << "trace never checkpointed";
    std::set<PersistBoundary> first_seen;
    for (std::uint64_t k = 1; k <= kinds.size(); ++k) {
        const PersistBoundary kind = kinds[k - 1];
        const bool disk_kind = kind == PersistBoundary::PageWrite ||
                               kind == PersistBoundary::Sync ||
                               kind == PersistBoundary::LogAppend ||
                               kind == PersistBoundary::LogSync;
        if (!disk_kind && !first_seen.insert(kind).second)
            continue;
        removeTree(path);
        for (const std::string &violation : runArmedCrash(config, k))
            ADD_FAILURE()
                << persistBoundaryName(kind) << ": " << violation;
    }
    removeTree(path);
}

/**
 * Group commit, exhaustively: the trace runs in groups of 3 accesses
 * (one sync per group, commit notifications released after it), and
 * every boundary — the group-ending LogSync that cuts three accesses at
 * once included — recovers under I1-I4 with no observed-durable write
 * lost.
 */
TEST(DiskCrashEnum, GroupCommitEveryBoundaryRecovers)
{
    const std::string path = tmpTree("disk_crash_group.tree");
    const SystemConfig config = checkpointingConfig(path);
    const std::vector<TraceOp> trace =
        makeCrashTrace(/*seed=*/5, /*ops=*/60, config.num_blocks, 0.7);
    const std::vector<PersistBoundary> kinds =
        probeKinds(config, trace, 3);
    EXPECT_GT(countKind(kinds, PersistBoundary::PageWrite), 0u);
    EXPECT_EQ(countKind(kinds, PersistBoundary::LogSync), trace.size() / 3)
        << "one log sync per commit group";
    for (std::uint64_t k = 1; k <= kinds.size(); ++k)
        for (const std::string &violation :
             runGroupedCrash(config, trace, 3, k))
            ADD_FAILURE() << violation;
    removeTree(path);
}

/**
 * The write-ahead rule under eviction pressure: a two-page cache
 * evicts frames that later accesses of the same commit group dirtied,
 * so each eviction must sync the log before the page reaches the tree.
 * Every boundary of a grouped trace recovers.
 */
TEST(DiskCrashEnum, EvictionsInAGroupRespectTheWriteAheadRule)
{
    const std::string path = tmpTree("disk_crash_wal_rule.tree");
    SystemConfig config = diskCrashConfig(path);
    config.disk_cache_pages = 2;
    config.disk_pinned_pages = 0;
    const std::vector<TraceOp> trace =
        makeCrashTrace(/*seed=*/13, /*ops=*/24, config.num_blocks, 0.7);
    const std::vector<PersistBoundary> kinds =
        probeKinds(config, trace, 4);
    ASSERT_FALSE(kinds.empty());
    for (std::uint64_t k = 1; k <= kinds.size(); ++k)
        for (const std::string &violation :
             runGroupedCrash(config, trace, 4, k))
            ADD_FAILURE() << violation;
    removeTree(path);
}

/**
 * A group of two writes cut at its LogSync: both records were appended
 * but never synced, so the crash discards them. The commit observer
 * must not have reported either (their acks wait for the sync), and the
 * blocks must read back at their last observed-durable version.
 */
TEST(DiskCrashEnum, GroupCutAtLogSyncLosesNoObservedWrite)
{
    const std::string path = tmpTree("disk_crash_group_cut.tree");
    System system = buildSystem(diskCrashConfig(path));
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    system.setRebindHook([&oracle](PsOramController &ctrl) {
        ctrl.setCommitObserver(oracle.observer());
    });
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr addr = 0; addr < 4; ++addr) {
        stampPayload(addr, 1, buf);
        system.controller->write(addr, buf);
        oracle.latest[addr] = 1;
    }
    ASSERT_EQ(oracle.durableOf(3), 1u) << "direct writes are durable";

    FaultInjector injector;
    system.attachFaultInjector(&injector);
    system.controller->beginGroup();
    for (BlockAddr addr = 0; addr < 2; ++addr) {
        stampPayload(addr, 2, buf);
        system.controller->write(addr, buf);
        oracle.latest[addr] = 2;
    }
    EXPECT_TRUE(system.controller->commitPending());
    EXPECT_EQ(oracle.durableOf(0), 1u) << "reported before its sync";
    injector.armAt(injector.boundariesSeen() + 1);
    EXPECT_THROW(system.controller->endGroup(2), InjectedFault);
    EXPECT_EQ(injector.firedKind(), PersistBoundary::LogSync);
    EXPECT_EQ(oracle.durableOf(0), 1u) << "reported before its sync";

    system.recoverController();
    EXPECT_EQ(checkRecoveryInvariants(system, oracle),
              std::vector<std::string>{});
    for (BlockAddr addr = 0; addr < 2; ++addr) {
        system.controller->read(addr, buf);
        EXPECT_EQ(payloadVersion(buf), 1u)
            << "the unsynced group survived the power failure";
    }
    removeTree(path);
}

/**
 * Negative control: with the redo log truncated before recovery, the
 * same enumeration must report violations — every write since the last
 * checkpoint lived only in the log. A checker that stays green here is
 * not checking the log.
 */
TEST(DiskCrashEnum, LostLogIsCaughtByTheEnumeration)
{
    const std::string path = tmpTree("disk_crash_lost_log.tree");
    const SystemConfig config = diskCrashConfig(path);
    const std::vector<TraceOp> trace =
        makeCrashTrace(/*seed=*/7, /*ops=*/12, config.num_blocks, 0.8);
    const std::vector<PersistBoundary> kinds =
        probeKinds(config, trace, 1);
    std::size_t failing = 0;
    std::size_t replays = 0;
    for (std::uint64_t k = kinds.size() / 2; k <= kinds.size(); k += 5) {
        ++replays;
        failing += !runGroupedCrash(config, trace, 1, k,
                                    /*lose_log=*/true)
                        .empty();
        EXPECT_TRUE(runGroupedCrash(config, trace, 1, k).empty())
            << "boundary " << k << " fails even with its log";
    }
    EXPECT_GT(replays, 3u);
    EXPECT_EQ(failing, replays)
        << "a lost log went unnoticed at some crash points";
    removeTree(path);
}

void
runShardedDiskKill(unsigned num_shards)
{
    const std::string backing = tmpTree(
        "disk_sharded_crash_" + std::to_string(num_shards) + ".tree");
    ShardedSystemConfig config;
    config.base = diskCrashConfig(backing);
    config.base.tree_height = 6;
    config.base.num_blocks = 96;
    config.base.seed = 31;
    config.sharding.num_shards = num_shards;

    constexpr BlockAddr kBlocks = 96;
    std::uint8_t buf[kBlockDataBytes];
    std::vector<RecoveryOracle> oracle(num_shards);
    const unsigned victim = num_shards - 1;

    // "Process 1": version-1 writes everywhere; kill the victim shard
    // mid-WPQ on a version-2 write; power fails for every shard.
    {
        FaultInjector injector;
        ShardedSystem system = buildShardedSystem(config);
        ASSERT_EQ(system.numShards(), num_shards);
        for (unsigned k = 0; k < num_shards; ++k)
            system.controller(k).setCommitObserver(
                oracle[k].observer());

        for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            stampPayload(slot.local, 1, buf);
            system.controller(slot.shard).write(slot.local, buf);
            oracle[slot.shard].latest[slot.local] = 1;
        }

        system.shards[victim].attachFaultInjector(&injector);
        injector.armAtKind(PersistBoundary::RoundCommit, 1);
        bool crashed = false;
        for (BlockAddr addr = 0; addr < kBlocks && !crashed; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            if (slot.shard != victim)
                continue;
            stampPayload(slot.local, 2, buf);
            try {
                system.controller(victim).write(slot.local, buf);
                oracle[victim].latest[slot.local] = 2;
            } catch (const InjectedFault &fault) {
                crashed = true;
                EXPECT_EQ(fault.kind(), PersistBoundary::RoundCommit);
                oracle[victim].latest[slot.local] = 2;
            }
        }
        ASSERT_TRUE(crashed) << "WPQ crash site never reached";

        // Power failure: the ADR flush, then every shard's RAM page
        // cache and unsynced log tail are gone and its log replays
        // (powerFailureFlush). No orderly shutdown flush may save
        // un-persisted state.
        for (unsigned k = 0; k < num_shards; ++k)
            system.controller(k).powerFailureFlush();
    }

    // "Process 2": reopen the trees, recover, check the guarantee.
    {
        ShardedSystem system = buildShardedSystem(config);
        for (unsigned k = 0; k < num_shards; ++k)
            system.controller(k).recoverFromNvm();

        for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            std::memset(buf, 0xFF, sizeof(buf));
            system.controller(slot.shard).read(slot.local, buf);
            const std::uint32_t v = payloadVersion(buf);
            EXPECT_GE(v, oracle[slot.shard].durableOf(slot.local))
                << "shard " << slot.shard << " lost block " << addr;
            EXPECT_LE(v, oracle[slot.shard].latest.at(slot.local))
                << "shard " << slot.shard << " resurrected block "
                << addr;
            if (v != 0) {
                EXPECT_EQ(payloadAddr(buf), slot.local)
                    << "shard " << slot.shard << " tore block " << addr;
            }
        }

        // Recovery must leave every shard fully functional.
        std::map<BlockAddr, std::uint32_t> post;
        for (BlockAddr addr = 0; addr < kBlocks; addr += 5) {
            const ShardSlot slot = system.router.route(addr);
            const auto version = static_cast<std::uint32_t>(500 + addr);
            stampPayload(slot.local, version, buf);
            system.controller(slot.shard).write(slot.local, buf);
            post[addr] = version;
        }
        for (const auto &[addr, version] : post) {
            const ShardSlot slot = system.router.route(addr);
            system.controller(slot.shard).read(slot.local, buf);
            EXPECT_EQ(payloadVersion(buf), version)
                << "post-recovery shard " << slot.shard << " broken";
        }
    }
    tmpTree("disk_sharded_crash_" + std::to_string(num_shards) +
            ".tree"); // scrub
}

TEST(DiskCrash, SingleShardKillRecoversFromFile)
{
    runShardedDiskKill(1);
}

TEST(DiskCrash, TwoShardKillRecoversBothTrees)
{
    runShardedDiskKill(2);
}

TEST(DiskCrash, FourShardKillRecoversAllTrees)
{
    runShardedDiskKill(4);
}

} // namespace
} // namespace psoram
