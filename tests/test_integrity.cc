/**
 * @file
 * Tamper-injection proof of the integrity subsystem (ISSUE tentpole):
 * every TamperKind the malicious-NVM adversary can mount must surface
 * as a *typed* IntegrityError at read or at recovery when integrity is
 * on — and the negative control (integrity=off) proves it is the
 * detector, not an accident of the workload, that catches it.
 *
 * The matrix follows the threat model of oram/integrity.hh:
 *
 *   - in-place modification (cipher/tag flips, tag truncation) is
 *     caught by the GMAC tag in both modes;
 *   - replay and wipe are *internally consistent* records — the
 *     documented mac-mode gap accepts them, tree mode refuses them
 *     (trusted-hash mismatch at read, root mismatch at recovery);
 *   - persisted interior Merkle nodes are an untrusted accelerator:
 *     corruption there is repaired from the verified records, never
 *     trusted and never refused;
 *   - the root record is load-bearing: any flip is a RootMismatch.
 *
 * The crash-enumeration half proves the I5 invariant ("no recovery
 * path ever accepts a node whose MAC/hash fails") across *every*
 * persist boundary with integrity=tree — in-memory, file-backed,
 * on-disk, and on 1/2/4-shard deployments killed mid-WPQ.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "disk_trees.hh"
#include "oram/block.hh"
#include "oram/integrity.hh"
#include "sim/crash_enumerator.hh"
#include "sim/tamper_injector.hh"

namespace psoram {
namespace {

using testing::fileBacked;
using testing::reportFailures;
using testing::tmpTree;

constexpr std::uint32_t kWorkloadRounds = 2;

SystemConfig
integrityConfig(IntegrityMode mode)
{
    SystemConfig config;
    config.design = DesignKind::PsOram;
    config.tree_height = 4;
    config.num_blocks = 12;
    config.stash_capacity = 64;
    config.seed = 41;
    config.integrity = mode;
    return config;
}

/** Two write passes over every address, then a verifying read pass. */
void
runWorkload(System &system)
{
    std::uint8_t buf[kBlockDataBytes];
    for (std::uint32_t round = 1; round <= kWorkloadRounds; ++round)
        for (BlockAddr addr = 0; addr < system.params.num_blocks;
             ++addr) {
            stampPayload(addr, round, buf);
            system.controller->write(addr, buf);
        }
    for (BlockAddr addr = 0; addr < system.params.num_blocks; ++addr) {
        system.controller->read(addr, buf);
        ASSERT_EQ(payloadVersion(buf), kWorkloadRounds);
        ASSERT_EQ(payloadAddr(buf), addr);
    }
}

/** Read every address (each read loads and verifies a full path). */
void
readAll(System &system)
{
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr addr = 0; addr < system.params.num_blocks; ++addr)
        system.controller->read(addr, buf);
}

/** Post-recovery read pass with the crash-era value guarantee. */
void
readAllRecovered(System &system)
{
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr addr = 0; addr < system.params.num_blocks; ++addr) {
        system.controller->read(addr, buf);
        const std::uint32_t version = payloadVersion(buf);
        EXPECT_GE(version, 1u) << "addr " << addr << " lost";
        EXPECT_LE(version, kWorkloadRounds)
            << "addr " << addr << " resurrected";
        EXPECT_EQ(payloadAddr(buf), addr) << "addr " << addr << " torn";
    }
}

TamperInjector
makeTamper(System &system)
{
    return TamperInjector(*system.device, system.params.data_layout,
                          system.params.integrity_root_base,
                          system.params.merkle_region_base);
}

std::uint64_t
recordVersion(const System &system, BucketId bucket, unsigned slot)
{
    std::uint8_t record[kIntegrityRecordBytes];
    system.device->readBytes(
        system.params.data_layout.slotAddr(bucket, slot), record,
        sizeof(record));
    std::uint64_t version = 0;
    std::memcpy(&version, record + kRecordVersionOffset,
                sizeof(version));
    return version;
}

/** Run @p fn; return the IntegrityError kind it threw, if any. */
std::optional<IntegrityError::Kind>
integrityOutcome(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const IntegrityError &err) {
        return err.kind();
    }
    return std::nullopt;
}

struct SlotRef
{
    BucketId bucket = 0;
    unsigned slot = 0;
    bool found = false;
};

/** First never-written record (version 0 — TornRecord bait). */
SlotRef
findUnversionedSlot(const System &system)
{
    const TreeGeometry &geo = system.params.data_layout.geometry;
    for (BucketId b = 0; b < geo.numBuckets(); ++b)
        for (unsigned s = 0; s < geo.bucket_slots; ++s)
            if (recordVersion(system, b, s) == 0)
                return SlotRef{b, s, true};
    return SlotRef{};
}

/**
 * First *written* record whose plaintext is a dummy: wiping it loses
 * no logical block, so mac mode's acceptance of the wipe is provably
 * silent (every read still returns the right data).
 */
SlotRef
findVersionedDummySlot(const System &system)
{
    const TreeGeometry &geo = system.params.data_layout.geometry;
    const BlockCodec codec(system.params.key, system.params.cipher);
    std::uint8_t record[kIntegrityRecordBytes];
    SlotBytes raw{};
    for (BucketId b = 0; b < geo.numBuckets(); ++b)
        for (unsigned s = 0; s < geo.bucket_slots; ++s) {
            system.device->readBytes(
                system.params.data_layout.slotAddr(b, s), record,
                sizeof(record));
            std::uint64_t version = 0;
            std::memcpy(&version, record + kRecordVersionOffset,
                        sizeof(version));
            if (version == 0)
                continue;
            std::memcpy(raw.data(), record, raw.size());
            if (codec.decode(raw).isDummy())
                return SlotRef{b, s, true};
        }
    return SlotRef{};
}

/* ------------------------------------------------------------------ */
/* Functional round trip.                                             */
/* ------------------------------------------------------------------ */

TEST(Integrity, ModesServeDataAndRecoverClean)
{
    for (const IntegrityMode mode :
         {IntegrityMode::Mac, IntegrityMode::Tree}) {
        SCOPED_TRACE(integrityModeName(mode));
        System system = buildSystem(integrityConfig(mode));
        ASSERT_NE(system.controller->integrity(), nullptr);
        EXPECT_EQ(system.controller->integrity()->mode(), mode);
        runWorkload(system);

        const IntegrityManager *mgr = system.controller->integrity();
        EXPECT_GT(mgr->nextVersion(), 1u);
        EXPECT_GT(mgr->commitSeq(), 0u);

        // Clean recovery: every record verifies and the data still
        // reads back. The first recovery may repair a few persisted
        // interior nodes — buckets no accessed path ever touched still
        // hold the device's initial zeros, not the all-zero-tree
        // default hashes — but repair must converge: a second recovery
        // finds every persisted node current.
        system.recoverController();
        ASSERT_NE(system.controller->integrity(), nullptr);
        readAllRecovered(system);
        system.recoverController();
        ASSERT_NE(system.controller->integrity(), nullptr);
        EXPECT_EQ(system.controller->integrity()->nodesRepaired(), 0u);

        // The recovered version counter and codec IVs must have
        // resumed above the crash-era watermarks: fresh writes seal
        // records the read path accepts.
        std::uint8_t buf[kBlockDataBytes];
        stampPayload(0, 2, buf);
        system.controller->write(0, buf);
        system.controller->read(0, buf);
        EXPECT_EQ(payloadVersion(buf), 2u);
    }
}

/* ------------------------------------------------------------------ */
/* Detection at read.                                                 */
/* ------------------------------------------------------------------ */

struct ReadCase
{
    IntegrityMode mode;
    TamperKind kind;
    IntegrityError::Kind expect;
};

TEST(Integrity, ReadPathDetectsRecordTampering)
{
    const ReadCase cases[] = {
        // GMAC catches in-place modification in both modes.
        {IntegrityMode::Mac, TamperKind::FlipCipherByte,
         IntegrityError::Kind::MacMismatch},
        {IntegrityMode::Mac, TamperKind::FlipTagByte,
         IntegrityError::Kind::MacMismatch},
        {IntegrityMode::Mac, TamperKind::TruncateTag,
         IntegrityError::Kind::MacMismatch},
        // Tree mode pins the exact record bytes: the trusted-hash
        // check fires first, and also catches the wipe GMAC cannot.
        {IntegrityMode::Tree, TamperKind::FlipCipherByte,
         IntegrityError::Kind::HashMismatch},
        {IntegrityMode::Tree, TamperKind::FlipTagByte,
         IntegrityError::Kind::HashMismatch},
        {IntegrityMode::Tree, TamperKind::TruncateTag,
         IntegrityError::Kind::HashMismatch},
        {IntegrityMode::Tree, TamperKind::WipeRecord,
         IntegrityError::Kind::HashMismatch},
    };
    for (const ReadCase &c : cases) {
        SCOPED_TRACE(std::string(integrityModeName(c.mode)) + "/" +
                     tamperKindName(c.kind));
        System system = buildSystem(integrityConfig(c.mode));
        runWorkload(system);
        // The root bucket is on every path and resealed by every
        // eviction, so its records are always versioned — and always
        // verified by the next read.
        ASSERT_NE(recordVersion(system, 0, 0), 0u);
        TamperInjector tamper = makeTamper(system);
        tamper.apply(c.kind, 0, 0);
        const auto outcome =
            integrityOutcome([&] { readAll(system); });
        ASSERT_TRUE(outcome.has_value())
            << "tamper not detected at read";
        EXPECT_EQ(*outcome, c.expect)
            << "got " << IntegrityError::kindName(*outcome);
    }
}

// The path load verifies every record of the path before it decodes
// or classifies any of them, so a refused load changes no stash state:
// no block from the path's untampered upper levels may enter the stash
// ahead of the refusal.
TEST(Integrity, RefusedPathLoadLeavesStashUntouched)
{
    for (const IntegrityMode mode :
         {IntegrityMode::Mac, IntegrityMode::Tree}) {
        SCOPED_TRACE(integrityModeName(mode));
        System system = buildSystem(integrityConfig(mode));
        runWorkload(system);

        // Every path ends in a leaf bucket: tamper all of them.
        const TreeGeometry &geo = system.params.data_layout.geometry;
        TamperInjector tamper = makeTamper(system);
        for (PathId leaf = 0; leaf < geo.numLeaves(); ++leaf)
            for (unsigned s = 0; s < geo.bucket_slots; ++s)
                tamper.apply(TamperKind::FlipCipherByte,
                             geo.bucketAt(leaf, geo.height), s);

        // A stash-resident target never loads a path.
        const Stash &stash = system.controller->stash();
        BlockAddr target = 0;
        while (target < system.params.num_blocks && stash.find(target))
            ++target;
        ASSERT_LT(target, system.params.num_blocks);

        const std::size_t before = stash.size();
        std::uint8_t buf[kBlockDataBytes];
        const auto outcome = integrityOutcome(
            [&] { system.controller->read(target, buf); });
        ASSERT_TRUE(outcome.has_value()) << "tampered leaf accepted";
        EXPECT_EQ(stash.size(), before)
            << "the refused path load classified blocks into the stash";
    }
}

TEST(Integrity, ReadPathDetectsReplayInTreeMode)
{
    System system = buildSystem(integrityConfig(IntegrityMode::Tree));
    runWorkload(system);

    TamperInjector tamper = makeTamper(system);
    tamper.snapshotRecord(0, 0);
    const std::uint64_t snapshot_version = recordVersion(system, 0, 0);

    // A few more accesses reseal the root bucket with fresh versions,
    // so the snapshot is now a stale-but-self-consistent record.
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr addr = 0; addr < 4; ++addr) {
        stampPayload(addr, kWorkloadRounds, buf);
        system.controller->write(addr, buf);
    }
    ASSERT_NE(recordVersion(system, 0, 0), snapshot_version);

    tamper.apply(TamperKind::ReplayRecord, 0, 0);
    const auto outcome = integrityOutcome([&] { readAll(system); });
    ASSERT_TRUE(outcome.has_value()) << "replay not detected at read";
    EXPECT_EQ(*outcome, IntegrityError::Kind::HashMismatch);
}

/* ------------------------------------------------------------------ */
/* Detection at recovery.                                             */
/* ------------------------------------------------------------------ */

struct RecoveryCase
{
    IntegrityMode mode;
    TamperKind kind;
    IntegrityError::Kind expect;
};

TEST(Integrity, RecoveryRefusesTamperedImage)
{
    const RecoveryCase cases[] = {
        {IntegrityMode::Mac, TamperKind::FlipCipherByte,
         IntegrityError::Kind::MacMismatch},
        {IntegrityMode::Mac, TamperKind::FlipTagByte,
         IntegrityError::Kind::MacMismatch},
        {IntegrityMode::Mac, TamperKind::TruncateTag,
         IntegrityError::Kind::MacMismatch},
        {IntegrityMode::Mac, TamperKind::FlipRootRecord,
         IntegrityError::Kind::RootMismatch},
        {IntegrityMode::Tree, TamperKind::FlipCipherByte,
         IntegrityError::Kind::MacMismatch},
        {IntegrityMode::Tree, TamperKind::FlipTagByte,
         IntegrityError::Kind::MacMismatch},
        {IntegrityMode::Tree, TamperKind::TruncateTag,
         IntegrityError::Kind::MacMismatch},
        {IntegrityMode::Tree, TamperKind::FlipRootRecord,
         IntegrityError::Kind::RootMismatch},
        // Wipe passes the per-record checks (internally consistent)
        // but the recomputed Merkle root disagrees with the committed
        // root record.
        {IntegrityMode::Tree, TamperKind::WipeRecord,
         IntegrityError::Kind::RootMismatch},
    };
    for (const RecoveryCase &c : cases) {
        SCOPED_TRACE(std::string(integrityModeName(c.mode)) + "/" +
                     tamperKindName(c.kind));
        System system = buildSystem(integrityConfig(c.mode));
        runWorkload(system);
        ASSERT_NE(recordVersion(system, 0, 0), 0u);
        TamperInjector tamper = makeTamper(system);
        tamper.apply(c.kind, 0, 0);
        const auto outcome =
            integrityOutcome([&] { system.recoverController(); });
        ASSERT_TRUE(outcome.has_value())
            << "tamper not detected at recovery";
        EXPECT_EQ(*outcome, c.expect)
            << "got " << IntegrityError::kindName(*outcome);
    }
}

TEST(Integrity, RecoveryRefusesReplayInTreeMode)
{
    System system = buildSystem(integrityConfig(IntegrityMode::Tree));
    runWorkload(system);

    TamperInjector tamper = makeTamper(system);
    tamper.snapshotRecord(0, 0);
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr addr = 0; addr < 4; ++addr) {
        stampPayload(addr, kWorkloadRounds, buf);
        system.controller->write(addr, buf);
    }
    tamper.apply(TamperKind::ReplayRecord, 0, 0);

    const auto outcome =
        integrityOutcome([&] { system.recoverController(); });
    ASSERT_TRUE(outcome.has_value())
        << "replay not detected at recovery";
    EXPECT_EQ(*outcome, IntegrityError::Kind::RootMismatch);
}

TEST(Integrity, RecoveryRefusesTornRecords)
{
    // A record that is neither all-zero nor versioned is a splice no
    // crash can produce: flipping a byte of a *never-written* record
    // makes exactly that, and both modes must refuse it as torn.
    for (const IntegrityMode mode :
         {IntegrityMode::Mac, IntegrityMode::Tree}) {
        SCOPED_TRACE(integrityModeName(mode));
        System system = buildSystem(integrityConfig(mode));
        runWorkload(system);
        const SlotRef torn = findUnversionedSlot(system);
        ASSERT_TRUE(torn.found) << "no never-written record to tamper";
        TamperInjector tamper = makeTamper(system);
        tamper.apply(TamperKind::FlipCipherByte, torn.bucket,
                     torn.slot);
        const auto outcome =
            integrityOutcome([&] { system.recoverController(); });
        ASSERT_TRUE(outcome.has_value())
            << "torn record not detected at recovery";
        EXPECT_EQ(*outcome, IntegrityError::Kind::TornRecord);
    }
}

/* ------------------------------------------------------------------ */
/* The documented mac-mode gap, and the untrusted-accelerator repair. */
/* ------------------------------------------------------------------ */

TEST(Integrity, MacModeGapAcceptsWipeSilently)
{
    // Wipe a written-but-dummy record: mac mode accepts the image
    // (the all-zero record is internally consistent) and — because no
    // logical block lived there — keeps serving every read correctly.
    // The identical tamper is refused by tree mode above; this is the
    // gap the escalation to IntegrityMode::Tree exists for.
    System system = buildSystem(integrityConfig(IntegrityMode::Mac));
    runWorkload(system);
    const SlotRef victim = findVersionedDummySlot(system);
    ASSERT_TRUE(victim.found) << "no versioned dummy record to wipe";
    TamperInjector tamper = makeTamper(system);
    tamper.apply(TamperKind::WipeRecord, victim.bucket, victim.slot);

    const auto outcome =
        integrityOutcome([&] { system.recoverController(); });
    EXPECT_FALSE(outcome.has_value())
        << "mac mode unexpectedly detected the wipe: "
        << IntegrityError::kindName(*outcome);
    readAllRecovered(system);
}

TEST(Integrity, MacModeGapAcceptsReplayAtRecovery)
{
    System system = buildSystem(integrityConfig(IntegrityMode::Mac));
    runWorkload(system);
    TamperInjector tamper = makeTamper(system);
    tamper.snapshotRecord(0, 0);
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr addr = 0; addr < 4; ++addr) {
        stampPayload(addr, kWorkloadRounds, buf);
        system.controller->write(addr, buf);
    }
    tamper.apply(TamperKind::ReplayRecord, 0, 0);

    // The stale (record, tag) pair is self-consistent: mac-mode
    // recovery verifies every tag and accepts the image.
    const auto outcome =
        integrityOutcome([&] { system.recoverController(); });
    EXPECT_FALSE(outcome.has_value())
        << "mac mode unexpectedly detected the replay: "
        << IntegrityError::kindName(*outcome);
}

TEST(Integrity, MerkleNodeCorruptionRepairedNeverRefused)
{
    System system = buildSystem(integrityConfig(IntegrityMode::Tree));
    runWorkload(system);
    TamperInjector tamper = makeTamper(system);
    tamper.apply(TamperKind::FlipMerkleNode, 3, 0);

    // The persisted interior nodes are a lazily streamed accelerator:
    // recovery recomputes every node from the verified records and
    // repairs the stored copy — refusing here would turn any crash
    // between a round commit and its lazy node stream into a brick.
    const auto outcome =
        integrityOutcome([&] { system.recoverController(); });
    ASSERT_FALSE(outcome.has_value())
        << "interior-node corruption must be repaired, got "
        << IntegrityError::kindName(*outcome);
    ASSERT_NE(system.controller->integrity(), nullptr);
    EXPECT_GE(system.controller->integrity()->nodesRepaired(), 1u);
    readAllRecovered(system);
}

/* ------------------------------------------------------------------ */
/* Negative control: without the detector, tampering is silent.       */
/* ------------------------------------------------------------------ */

TEST(Integrity, NegativeControlOffModeMissesTampering)
{
    System system = buildSystem(integrityConfig(IntegrityMode::Off));
    EXPECT_EQ(system.controller->integrity(), nullptr);
    runWorkload(system);

    // Find a *written* dummy slot (non-zero ciphertext, dummy
    // plaintext) and wipe it — the tamper tree mode detects at the
    // next read. With integrity off nothing notices, at read or at
    // recovery: the detection above is the detector's doing, not a
    // side effect of the workload.
    const TreeGeometry &geo = system.params.data_layout.geometry;
    const BlockCodec codec(system.params.key, system.params.cipher);
    SlotBytes raw{};
    SlotRef victim;
    for (BucketId b = 0; b < geo.numBuckets() && !victim.found; ++b)
        for (unsigned s = 0; s < geo.bucket_slots; ++s) {
            system.device->readBytes(
                system.params.data_layout.slotAddr(b, s), raw.data(),
                raw.size());
            bool zero = true;
            for (const std::uint8_t byte : raw)
                zero = zero && byte == 0;
            if (!zero && codec.decode(raw).isDummy()) {
                victim = SlotRef{b, s, true};
                break;
            }
        }
    ASSERT_TRUE(victim.found) << "no written dummy slot to wipe";

    TamperInjector tamper(*system.device, system.params.data_layout,
                          /*root_record_base=*/0,
                          /*merkle_region_base=*/0);
    tamper.apply(TamperKind::WipeRecord, victim.bucket, victim.slot);

    EXPECT_FALSE(
        integrityOutcome([&] { readAll(system); }).has_value());
    EXPECT_FALSE(
        integrityOutcome([&] { system.recoverController(); })
            .has_value());
    readAllRecovered(system);
}

/* ------------------------------------------------------------------ */
/* Armed tampering at an exact persist boundary.                      */
/* ------------------------------------------------------------------ */

TEST(Integrity, ArmedTamperLandsAtExactBoundaryAndIsDetected)
{
    const SystemConfig config = integrityConfig(IntegrityMode::Tree);

    // Probe: the boundary sequence is deterministic per (config,
    // workload); count it so the tamper can be armed at the very last
    // boundary — after the final eviction's writes, where nothing
    // overwrites the mutation before the next read verifies it. The
    // probe drives runWorkload's accesses as a trace.
    CrashEnumConfig probe;
    probe.system = config;
    for (std::uint32_t round = 1; round <= kWorkloadRounds; ++round)
        for (BlockAddr addr = 0; addr < config.num_blocks; ++addr)
            probe.trace.push_back({addr, true, round});
    for (BlockAddr addr = 0; addr < config.num_blocks; ++addr)
        probe.trace.push_back({addr, false, 0});
    const std::uint64_t total = probeCrashPoints(probe).size();
    ASSERT_GT(total, 0u);

    System system = buildSystem(config);
    FaultInjector injector; // never armed: boundaries only observed
    system.attachFaultInjector(&injector);
    TamperInjector tamper = makeTamper(system);
    tamper.armAt(total, TamperKind::FlipTagByte, 0, 0);
    tamper.attachTo(injector);

    runWorkload(system);
    EXPECT_TRUE(tamper.fired()) << "armed tamper never triggered";
    EXPECT_EQ(tamper.applications(), 1u);

    const auto outcome = integrityOutcome([&] { readAll(system); });
    ASSERT_TRUE(outcome.has_value())
        << "boundary-armed tamper not detected";
    EXPECT_EQ(*outcome, IntegrityError::Kind::HashMismatch);
}

/* ------------------------------------------------------------------ */
/* Crash enumeration: I5 across every persist boundary.               */
/* ------------------------------------------------------------------ */

TEST(IntegrityCrashEnum, TreeModeEveryBoundaryRecovers)
{
    CrashEnumConfig config;
    config.system = integrityConfig(IntegrityMode::Tree);
    // A small WPQ forces multi-round eviction bundles: each committed
    // round must carry a root record covering exactly its own writes,
    // the case the per-round finalizer exists for.
    config.system.wpq_entries = 8;
    config.trace = makeCrashTrace(/*seed=*/17, /*ops=*/10,
                                  config.system.num_blocks);
    config.post_recovery_ops = 24;

    const CrashEnumSummary summary = enumerateCrashPoints(config);
    reportFailures(summary);
    EXPECT_TRUE(summary.ok()) << summary.describe();
    EXPECT_GT(summary.replays, 50u);
}

TEST(IntegrityCrashEnum, MacModeEveryBoundaryRecovers)
{
    CrashEnumConfig config;
    config.system = integrityConfig(IntegrityMode::Mac);
    config.system.wpq_entries = 8;
    config.trace = makeCrashTrace(/*seed=*/19, /*ops=*/10,
                                  config.system.num_blocks);
    config.post_recovery_ops = 24;
    config.stride = 3;

    const CrashEnumSummary summary = enumerateCrashPoints(config);
    reportFailures(summary);
    EXPECT_TRUE(summary.ok()) << summary.describe();
    EXPECT_GT(summary.replays, 10u);
}

/** A sampled enumeration that must recover at every replayed point. */
void
expectSampledEnumRecovers(const CrashEnumConfig &config)
{
    const CrashEnumSummary summary = enumerateCrashPoints(config);
    ASSERT_GT(summary.total_boundaries, 0u);
    reportFailures(summary);
    EXPECT_GT(summary.replays, 8u);
}

TEST(IntegrityCrashEnum, FileBackedTreeModeSampledBoundaries)
{
    const std::string path = tmpTree("integrity_file_enum.img");
    CrashEnumConfig config;
    config.system = integrityConfig(IntegrityMode::Tree);
    fileBacked(config.system, path);
    config.system.wpq_entries = 8;
    config.trace = makeCrashTrace(/*seed=*/5, /*ops=*/8,
                                  config.system.num_blocks);
    config.post_recovery_ops = 24;
    config.stride = 7;
    expectSampledEnumRecovers(config);
    removeDiskTrees(path);
}

TEST(IntegrityCrashEnum, DiskTreeModeSampledBoundaries)
{
    const std::string path = tmpTree("integrity_disk_enum.tree");
    CrashEnumConfig config;
    config.system = integrityConfig(IntegrityMode::Tree);
    config.system.backend = BackendKind::Disk;
    config.system.backing_file = path;
    config.system.disk_cache_pages = 32; // far smaller than the tree
    config.system.disk_pinned_pages = 4;
    config.trace = makeCrashTrace(/*seed=*/13, /*ops=*/8,
                                  config.system.num_blocks);
    config.post_recovery_ops = 24;
    config.stride = 13;
    expectSampledEnumRecovers(config);
    removeDiskTrees(path);
}

/* ------------------------------------------------------------------ */
/* Sharded deployments killed mid-WPQ, integrity=tree.                */
/* ------------------------------------------------------------------ */

/** File-backed shards with integrity=tree for the process-kill rows. */
SystemConfig
shardKillConfig(unsigned num_shards)
{
    SystemConfig config = integrityConfig(IntegrityMode::Tree);
    config.tree_height = 5;
    config.num_blocks = 48;
    config.seed = 31;
    fileBacked(config, tmpTree("integrity_sharded_" +
                               std::to_string(num_shards) + ".img"));
    return config;
}

TEST(IntegrityShardedCrash, OneShardKillRecoversVerified)
{
    testing::killShardMidWpq(shardKillConfig(1), 1);
}

TEST(IntegrityShardedCrash, TwoShardKillRecoversVerified)
{
    testing::killShardMidWpq(shardKillConfig(2), 2);
}

TEST(IntegrityShardedCrash, FourShardKillRecoversVerified)
{
    testing::killShardMidWpq(shardKillConfig(4), 4);
}

} // namespace
} // namespace psoram
