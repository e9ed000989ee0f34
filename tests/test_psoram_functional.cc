/**
 * @file
 * PsOramController functional tests, parameterized over every design
 * variant of §5.1: read-after-write correctness against a reference
 * map, stash behaviour, and per-design traffic relations.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/random.hh"
#include "sim/recovery_invariants.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

SystemConfig
smallConfig(DesignKind design, unsigned height = 5,
            std::uint64_t blocks = 48)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = height;
    config.bucket_slots = 4;
    config.num_blocks = blocks;
    config.stash_capacity = 64;
    config.wpq_entries = 96;
    config.cipher = CipherKind::Aes128Ctr;
    config.seed = 7;
    return config;
}

class PsOramDesigns : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(PsOramDesigns, WriteThenReadBack)
{
    System system = buildSystem(smallConfig(GetParam()));
    std::uint8_t in[kBlockDataBytes], out[kBlockDataBytes];
    stampPayload(3, 1, in);
    system.controller->write(3, in);
    system.controller->read(3, out);
    EXPECT_EQ(std::memcmp(in, out, kBlockDataBytes), 0);
}

TEST_P(PsOramDesigns, UntouchedBlockReadsZero)
{
    System system = buildSystem(smallConfig(GetParam()));
    std::uint8_t out[kBlockDataBytes];
    std::memset(out, 0xFF, sizeof(out));
    system.controller->read(11, out);
    for (const auto b : out)
        EXPECT_EQ(b, 0);
}

TEST_P(PsOramDesigns, RandomWorkloadMatchesReferenceMap)
{
    System system = buildSystem(smallConfig(GetParam()));
    PsOramController &oram = *system.controller;
    Rng rng(11);
    std::map<BlockAddr, std::uint32_t> reference;
    std::uint8_t buf[kBlockDataBytes];

    for (int op = 0; op < 1500; ++op) {
        const BlockAddr addr = rng.nextBelow(48);
        if (rng.nextBool(0.5)) {
            const auto version = static_cast<std::uint32_t>(op + 1);
            stampPayload(addr, version, buf);
            oram.write(addr, buf);
            reference[addr] = version;
        } else {
            oram.read(addr, buf);
            const auto it = reference.find(addr);
            EXPECT_EQ(payloadVersion(buf),
                      it == reference.end() ? 0u : it->second)
                << designName(GetParam()) << " op " << op << " addr "
                << addr;
        }
    }
}

TEST_P(PsOramDesigns, StashStaysBounded)
{
    System system = buildSystem(smallConfig(GetParam(), 6, 120));
    PsOramController &oram = *system.controller;
    Rng rng(13);
    std::uint8_t buf[kBlockDataBytes] = {};
    for (int op = 0; op < 2500; ++op) {
        stampPayload(op, 1, buf);
        oram.write(rng.nextBelow(120), buf);
    }
    EXPECT_LT(oram.stash().peakSize(), system.config.stash_capacity);
    EXPECT_EQ(oram.stash().overflowEvents(), 0u);
}

TEST_P(PsOramDesigns, AccessesProduceTraffic)
{
    System system = buildSystem(smallConfig(GetParam()));
    std::uint8_t buf[kBlockDataBytes] = {};
    system.controller->write(1, buf);
    const TrafficCounts counts = system.controller->traffic();
    EXPECT_GT(counts.reads, 0u);
    EXPECT_GT(counts.writes, 0u);
}

TEST_P(PsOramDesigns, LatencyAdvancesClock)
{
    System system = buildSystem(smallConfig(GetParam()));
    std::uint8_t buf[kBlockDataBytes] = {};
    const OramAccessInfo info = system.controller->write(1, buf);
    EXPECT_GT(info.nvm_cycles, 0u);
    EXPECT_EQ(system.controller->nowCycles(), info.nvm_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, PsOramDesigns,
    ::testing::Values(DesignKind::Baseline, DesignKind::FullNvm,
                      DesignKind::FullNvmStt, DesignKind::NaivePsOram,
                      DesignKind::PsOram, DesignKind::RcrBaseline,
                      DesignKind::RcrPsOram),
    [](const auto &info) {
        std::string name = designName(info.param);
        std::string out;
        for (const char c : name)
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += c;
        return out;
    });

TEST(PsOramTrafficRelations, PathAccessTrafficPerDesign)
{
    // One full (non-stash-hit) access: Baseline does Z(L+1) reads and
    // writes; PS-ORAM adds only the dirty PosMap entries; Naive adds
    // Z(L+1) metadata writes; recursive designs add the PoM path.
    const unsigned per_path = TreeGeometry{5, 4}.blocksPerPath(); // 24

    const auto traffic_of = [&](DesignKind kind) {
        System system = buildSystem(smallConfig(kind));
        std::uint8_t buf[kBlockDataBytes] = {};
        system.controller->write(1, buf);
        return system.controller->traffic();
    };

    const TrafficCounts baseline = traffic_of(DesignKind::Baseline);
    EXPECT_EQ(baseline.reads, per_path);
    EXPECT_EQ(baseline.writes, per_path);

    const TrafficCounts ps = traffic_of(DesignKind::PsOram);
    EXPECT_EQ(ps.reads, per_path);
    EXPECT_GE(ps.writes, per_path);
    EXPECT_LE(ps.writes, per_path + 4); // + dirty PosMap entries

    const TrafficCounts naive = traffic_of(DesignKind::NaivePsOram);
    EXPECT_EQ(naive.reads, per_path);
    EXPECT_EQ(naive.writes, 2u * per_path); // + all-entry metadata

    const TrafficCounts fullnvm = traffic_of(DesignKind::FullNvm);
    EXPECT_EQ(fullnvm.reads, per_path);
    // Stash fills and PosMap updates are on-chip NVM writes.
    EXPECT_GT(fullnvm.writes, 2u * per_path);

    const TrafficCounts rcr = traffic_of(DesignKind::RcrBaseline);
    EXPECT_GT(rcr.reads, per_path); // + PoM path
    EXPECT_GT(rcr.writes, per_path);
}

TEST(PsOramBackups, BackupCreatedForDirtyReaccessedBlock)
{
    System system = buildSystem(smallConfig(DesignKind::PsOram));
    PsOramController &oram = *system.controller;
    std::uint8_t buf[kBlockDataBytes] = {};
    stampPayload(5, 1, buf);
    oram.write(5, buf);
    // Evict block 5 out of the stash, then touch it again: the reload
    // must spawn a backup (step 4).
    for (BlockAddr a = 10; a < 40; ++a)
        oram.write(a, buf);
    const std::uint64_t backups_before = oram.backupsCreated();
    if (!oram.stash().find(5)) {
        stampPayload(5, 2, buf);
        oram.write(5, buf);
        EXPECT_GT(oram.backupsCreated(), backups_before);
    }
}

TEST(PsOramBackups, NoBackupsLingerInStashAfterEviction)
{
    // Claim 2 (§4.6): backups are always written back to the read path,
    // so stash occupancy is unchanged by the backup mechanism.
    System system = buildSystem(smallConfig(DesignKind::PsOram, 6, 120));
    PsOramController &oram = *system.controller;
    Rng rng(17);
    std::uint8_t buf[kBlockDataBytes] = {};
    for (int op = 0; op < 1000; ++op) {
        oram.write(rng.nextBelow(120), buf);
        EXPECT_EQ(oram.stash().size(), oram.stash().liveSize())
            << "backup left in stash after access " << op;
    }
}

TEST(PsOramTempPosMap, PendingEntriesTrackStashResidents)
{
    System system = buildSystem(smallConfig(DesignKind::PsOram, 6, 120));
    PsOramController &oram = *system.controller;
    Rng rng(19);
    std::uint8_t buf[kBlockDataBytes] = {};
    for (int op = 0; op < 500; ++op)
        oram.write(rng.nextBelow(120), buf);
    // Every pending temporary-PosMap entry must correspond to a live
    // stash-resident block, and vice versa.
    EXPECT_EQ(oram.tempPosMap().size(), oram.stash().liveSize());
    for (std::size_t i = 0; i < oram.stash().size(); ++i) {
        const StashEntry &entry = oram.stash().at(i);
        if (entry.is_backup)
            continue;
        const auto pending = oram.tempPosMap().get(entry.addr);
        ASSERT_TRUE(pending.has_value());
        EXPECT_EQ(*pending, entry.path);
    }
}

TEST(PsOramCommitted, CommittedPathDiffersWhilePending)
{
    // Z = 2 buckets create enough eviction contention that some blocks
    // linger in the stash with pending remaps.
    SystemConfig config = smallConfig(DesignKind::PsOram, 6, 120);
    config.bucket_slots = 2;
    System system = buildSystem(config);
    PsOramController &oram = *system.controller;
    Rng rng(23);
    std::uint8_t buf[kBlockDataBytes] = {};
    for (int op = 0; op < 300; ++op)
        oram.write(rng.nextBelow(120), buf);
    // For stash residents, the effective path equals the entry's path
    // (the temporary PosMap holds the pending remap).
    std::size_t pending_checked = 0;
    for (std::size_t i = 0; i < oram.stash().size(); ++i) {
        const StashEntry &entry = oram.stash().at(i);
        if (entry.is_backup)
            continue;
        EXPECT_EQ(oram.effectivePath(entry.addr), entry.path);
        ++pending_checked;
    }
    EXPECT_GT(pending_checked, 0u);
}

} // namespace
} // namespace psoram
