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

#include "nvm/paged_disk.hh"
#include "oram/block.hh"
#include "oram/integrity.hh"
#include "sim/crash_enumerator.hh"
#include "sim/sharded_system.hh"
#include "sim/tamper_injector.hh"

namespace psoram {
namespace {

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
    // overwrites the mutation before the next read verifies it.
    std::uint64_t total = 0;
    {
        System probe = buildSystem(config);
        FaultInjector injector;
        probe.attachFaultInjector(&injector);
        runWorkload(probe);
        total = injector.boundariesSeen();
    }
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

void
reportFailures(const CrashEnumSummary &summary)
{
    for (const CrashPointFailure &failure : summary.failures)
        for (const std::string &violation : failure.violations)
            ADD_FAILURE() << "boundary " << failure.boundary << ": "
                          << violation;
}

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

std::string
tmpTree(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    // Each disk tree has a redo-log sidecar (<tree>.wal).
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    for (unsigned shard = 0; shard < 8; ++shard) {
        const std::string tree = path + ".shard" + std::to_string(shard);
        std::remove(tree.c_str());
        std::remove((tree + ".wal").c_str());
    }
    return path;
}

/**
 * Sampled enumeration with a fresh backing file per replay: each armed
 * replay rebuilds the System, and a disk backend would otherwise
 * reopen the previous replay's tree.
 */
void
runSampledEnum(CrashEnumConfig config, const std::string &path,
               std::uint64_t stride)
{
    std::uint64_t total = 0;
    {
        System system = buildSystem(config.system);
        FaultInjector injector;
        system.attachFaultInjector(&injector);
        std::uint8_t buf[kBlockDataBytes];
        for (const TraceOp &op : config.trace) {
            if (op.is_write) {
                stampPayload(op.addr, op.version, buf);
                system.controller->write(op.addr, buf);
            } else {
                system.controller->read(op.addr, buf);
            }
        }
        total = injector.boundariesSeen();
    }
    ASSERT_GT(total, 0u);

    std::uint64_t replays = 0;
    for (std::uint64_t k = 1; k <= total; k += stride) {
        std::remove(path.c_str()); // fresh tree per replay
        const std::vector<std::string> violations =
            runArmedCrash(config, k);
        ++replays;
        for (const std::string &violation : violations)
            ADD_FAILURE() << violation;
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_GT(replays, 8u);
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
}

/** Page-cache budget that holds every page of these small trees. */
constexpr std::size_t kInCorePages = 4096;

/** A file-backed system: a paged disk tree that stays in core. */
void
fileBacked(SystemConfig &config, const std::string &path)
{
    config.backend = BackendKind::Disk;
    config.backing_file = path;
    config.disk_cache_pages = kInCorePages;
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
    runSampledEnum(config, path, /*stride=*/7);
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
    runSampledEnum(config, path, /*stride=*/13);
}

/* ------------------------------------------------------------------ */
/* Sharded deployments killed mid-WPQ, integrity=tree.                */
/* ------------------------------------------------------------------ */

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

void
runShardedIntegrityKill(unsigned num_shards)
{
    const std::string backing = tmpTree(
        "integrity_sharded_" + std::to_string(num_shards) + ".img");
    ShardedSystemConfig config;
    config.base = integrityConfig(IntegrityMode::Tree);
    config.base.tree_height = 5;
    config.base.num_blocks = 48;
    config.base.seed = 31;
    fileBacked(config.base, backing);
    config.sharding.num_shards = num_shards;

    constexpr BlockAddr kBlocks = 48;
    std::uint8_t buf[kBlockDataBytes];
    std::vector<RecoveryOracle> oracle(num_shards);
    const unsigned victim = num_shards - 1;

    // "Process 1": version-1 writes everywhere; kill the victim shard
    // mid-WPQ on a version-2 write; power fails for every shard.
    {
        ShardedSystem system = buildShardedSystem(config);
        ASSERT_EQ(system.numShards(), num_shards);
        for (unsigned k = 0; k < num_shards; ++k) {
            ASSERT_NE(system.controller(k).integrity(), nullptr);
            system.controller(k).setCommitObserver(
                oracle[k].observer());
        }

        for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            stampPayload(slot.local, 1, buf);
            system.controller(slot.shard).write(slot.local, buf);
            oracle[slot.shard].latest[slot.local] = 1;
        }

        CrashAtOccurrence policy(CrashSite::BeforeCommit, 1);
        system.controller(victim).setCrashPolicy(&policy);
        bool crashed = false;
        for (BlockAddr addr = 0; addr < kBlocks && !crashed; ++addr) {
            const ShardSlot slot = system.router.route(addr);
            if (slot.shard != victim)
                continue;
            stampPayload(slot.local, 2, buf);
            try {
                system.controller(victim).write(slot.local, buf);
                oracle[victim].latest[slot.local] = 2;
            } catch (const CrashEvent &) {
                crashed = true;
                oracle[victim].latest[slot.local] = 2;
            }
        }
        ASSERT_TRUE(crashed) << "WPQ crash site never reached";

        for (unsigned k = 0; k < num_shards; ++k) {
            system.controller(k).powerFailureFlush();
            fileNvm(system.shards[k])->persistBarrier();
        }
    }

    // "Process 2": rebuild from the files alone; every shard's
    // integrity recovery must accept its committed prefix (the victim
    // included — a torn round never committed a root record) and the
    // verified reads must hold the crash guarantee.
    for (unsigned k = 0; k < num_shards; ++k) {
        const std::string file = num_shards == 1
            ? backing
            : backing + ".shard" + std::to_string(k);
        EXPECT_GT(treeFilePageBytes(file), 0u)
            << "shard " << k << " image missing";
    }
    {
        ShardedSystem system = buildShardedSystem(config);
        for (unsigned k = 0; k < num_shards; ++k) {
            fileNvm(system.shards[k]);
            const auto outcome = integrityOutcome(
                [&] { system.controller(k).recoverFromNvm(); });
            ASSERT_FALSE(outcome.has_value())
                << "shard " << k << " refused its own crash image: "
                << IntegrityError::kindName(*outcome);
        }

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
                    << "shard " << slot.shard << " tore block "
                    << addr;
            }
        }

        // Recovery must leave every shard fully functional under
        // continued sealing + verification.
        for (BlockAddr addr = 0; addr < kBlocks; addr += 5) {
            const ShardSlot slot = system.router.route(addr);
            const auto version = static_cast<std::uint32_t>(500 + addr);
            stampPayload(slot.local, version, buf);
            system.controller(slot.shard).write(slot.local, buf);
            system.controller(slot.shard).read(slot.local, buf);
            EXPECT_EQ(payloadVersion(buf), version)
                << "post-recovery shard " << slot.shard << " broken";
        }
    }
    tmpTree("integrity_sharded_" + std::to_string(num_shards) +
            ".img"); // scrubs the trees
}

TEST(IntegrityShardedCrash, OneShardKillRecoversVerified)
{
    runShardedIntegrityKill(1);
}

TEST(IntegrityShardedCrash, TwoShardKillRecoversVerified)
{
    runShardedIntegrityKill(2);
}

TEST(IntegrityShardedCrash, FourShardKillRecoversVerified)
{
    runShardedIntegrityKill(4);
}

} // namespace
} // namespace psoram
