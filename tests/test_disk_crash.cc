/**
 * @file
 * Crash consistency on the PagedDiskBackend: the full PS-ORAM recovery
 * guarantee must hold when the tree lives on a real file behind a
 * write-back page cache and a redo log — including the crash points the
 * disk tier *adds*: a torn log record (LogAppend), the pre-fdatasync
 * window that loses the log's unsynced tail (LogSync), and a
 * checkpoint's torn in-place page (PageWrite) and tree fsync (Sync).
 *
 * Every enumeration runs through the crash harness
 * (sim/crash_enumerator.hh), which starts each probe and each replay
 * from a fresh tree and log.
 *
 * Group commit gets its own enumeration: the trace runs in commit
 * groups (PsOramController::beginGroup/endGroup), as a sharded engine
 * worker runs one mailbox batch, so a crash at the group's LogSync cuts
 * several accesses at once. The negative control truncates the log
 * before recovery, which must surface as lost writes.
 *
 * The sharded tests (1, 2 and 4 shards) run the cross-shard kill
 * scenario (disk_trees.hh, killShardMidWpq) on out-of-core disk trees:
 * the other shards fully persisted, the last one killed mid-WPQ, every
 * shard's RAM page cache lost, recovery from the files alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "crash_points.hh"
#include "disk_trees.hh"

namespace psoram {
namespace {

using testing::reportFailures;
using testing::reportsLoss;
using testing::tmpTree;

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

std::uint64_t
countKind(const CrashEnumSummary &summary, PersistBoundary kind)
{
    return summary.kind_counts[static_cast<std::size_t>(kind)];
}

std::size_t
countKind(const std::vector<PersistBoundary> &kinds, PersistBoundary kind)
{
    return static_cast<std::size_t>(
        std::count(kinds.begin(), kinds.end(), kind));
}

/** A disk-tier boundary: a torn record, a log sync, a torn checkpoint
 *  page or a tree fsync. */
bool
diskKind(PersistBoundary kind)
{
    return kind == PersistBoundary::PageWrite ||
           kind == PersistBoundary::Sync ||
           kind == PersistBoundary::LogAppend ||
           kind == PersistBoundary::LogSync;
}

/** Replay every disk-tier boundary of @p config's trace (probed as
 *  @p kinds) and the first boundary of every protocol kind.
 *  @return the number of replays */
std::size_t
replayDiskKinds(const CrashEnumConfig &config,
                const std::vector<PersistBoundary> &kinds)
{
    std::set<PersistBoundary> first_seen;
    std::size_t replayed = 0;
    for (std::uint64_t k = 1; k <= kinds.size(); ++k) {
        const PersistBoundary kind = kinds[k - 1];
        if (!diskKind(kind) && !first_seen.insert(kind).second)
            continue;
        for (const std::string &violation :
             runArmedCrash(config, k).violations)
            ADD_FAILURE() << violation;
        ++replayed;
    }
    return replayed;
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
    config.stride = 11;

    const CrashEnumSummary summary = enumerateCrashPoints(config);
    ASSERT_GT(summary.total_boundaries, 0u);
    // The disk tier's own crash points must be in the enumeration
    // domain, or the torn-record and torn-page arguments are vacuous.
    for (const PersistBoundary kind :
         {PersistBoundary::RoundStart, PersistBoundary::RoundCommit,
          PersistBoundary::DrainWrite, PersistBoundary::LogAppend,
          PersistBoundary::LogSync, PersistBoundary::PageWrite,
          PersistBoundary::Sync})
        EXPECT_GT(countKind(summary, kind), 0u)
            << "no " << persistBoundaryName(kind) << " crash points";
    reportFailures(summary);
    EXPECT_TRUE(summary.ok()) << summary.describe();
    EXPECT_GT(summary.replays, 10u);
    removeDiskTrees(path);
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

    const std::vector<PersistBoundary> kinds = probeCrashPoints(config);
    const std::size_t replayed = replayDiskKinds(config, kinds);
    EXPECT_GT(countKind(kinds, PersistBoundary::PageWrite), 0u);
    EXPECT_GT(replayed, countKind(kinds, PersistBoundary::LogSync));
    removeDiskTrees(path);
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

    const std::vector<PersistBoundary> kinds = probeCrashPoints(config);
    ASSERT_GT(countKind(kinds, PersistBoundary::PageWrite), 0u)
        << "trace never checkpointed";
    replayDiskKinds(config, kinds);
    removeDiskTrees(path);
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
    CrashEnumConfig config;
    config.system = checkpointingConfig(path);
    config.trace = makeCrashTrace(/*seed=*/5, /*ops=*/60,
                                  config.system.num_blocks, 0.7);
    config.post_recovery_ops = 16;
    config.commit_group = 3;
    const CrashEnumSummary summary = enumerateCrashPoints(config);
    EXPECT_GT(countKind(summary, PersistBoundary::PageWrite), 0u);
    EXPECT_EQ(countKind(summary, PersistBoundary::LogSync),
              config.trace.size() / 3)
        << "one log sync per commit group";
    reportFailures(summary);
    removeDiskTrees(path);
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
    CrashEnumConfig config;
    config.system = diskCrashConfig(path);
    config.system.disk_cache_pages = 2;
    config.system.disk_pinned_pages = 0;
    config.trace = makeCrashTrace(/*seed=*/13, /*ops=*/24,
                                  config.system.num_blocks, 0.7);
    config.post_recovery_ops = 16;
    config.commit_group = 4;
    const CrashEnumSummary summary = enumerateCrashPoints(config);
    ASSERT_GT(summary.total_boundaries, 0u);
    reportFailures(summary);
    removeDiskTrees(path);
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
    removeDiskTrees(path);
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
    CrashEnumConfig config;
    config.system = diskCrashConfig(path);
    config.trace = makeCrashTrace(/*seed=*/7, /*ops=*/12,
                                  config.system.num_blocks, 0.8);
    config.post_recovery_ops = 16;
    CrashEnumConfig lose_log = config;
    lose_log.before_recovery = [&path](System &) {
        std::filesystem::resize_file(path + ".wal", 0);
    };
    const std::uint64_t total = probeCrashPoints(config).size();
    std::size_t failing = 0;
    std::size_t replays = 0;
    for (std::uint64_t k = total / 2; k <= total; k += 5) {
        ++replays;
        failing += reportsLoss(runArmedCrash(lose_log, k).violations);
        EXPECT_TRUE(runArmedCrash(config, k).violations.empty())
            << "boundary " << k << " fails even with its log";
    }
    EXPECT_GT(replays, 3u);
    EXPECT_EQ(failing, replays)
        << "a lost log went unnoticed at some crash points";
    removeDiskTrees(path);
}

/** Out-of-core disk shards for the process-kill rows. */
SystemConfig
shardKillConfig(unsigned num_shards)
{
    SystemConfig config = diskCrashConfig(tmpTree(
        "disk_sharded_crash_" + std::to_string(num_shards) + ".tree"));
    config.tree_height = 6;
    config.num_blocks = 96;
    config.seed = 31;
    return config;
}

TEST(DiskCrash, SingleShardKillRecoversFromFile)
{
    testing::killShardMidWpq(shardKillConfig(1), 1);
}

TEST(DiskCrash, TwoShardKillRecoversBothTrees)
{
    testing::killShardMidWpq(shardKillConfig(2), 2);
}

TEST(DiskCrash, FourShardKillRecoversAllTrees)
{
    testing::killShardMidWpq(shardKillConfig(4), 4);
}

} // namespace
} // namespace psoram
