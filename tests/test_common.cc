/**
 * @file
 * Unit tests for the common infrastructure: RNG, bit utilities, config
 * store, statistics, the table printer, and CRC-32.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bitops.hh"
#include "common/config.hh"
#include "common/crc32.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "nvm/flight_recorder.hh"
#include "nvm/paged_disk.hh"
#include "oram/block.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
        for (int i = 0; i < 500; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextInRange(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all four values hit
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(13);
    int heads = 0;
    for (int i = 0; i < 20000; ++i)
        heads += rng.nextBool(0.3);
    EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(Rng, PathsCoverLeafSpaceUniformly)
{
    Rng rng(17);
    constexpr std::uint64_t kLeaves = 16;
    std::array<int, kLeaves> histogram{};
    constexpr int kDraws = 16000;
    for (int i = 0; i < kDraws; ++i)
        ++histogram[rng.nextPath(kLeaves)];
    for (const int count : histogram)
        EXPECT_NEAR(count, kDraws / kLeaves, 250);
}

TEST(Bitops, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(Bitops, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(Bitops, BitsExtract)
{
    EXPECT_EQ(bits(0xABCD, 4, 8), 0xBCu);
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
    EXPECT_EQ(bits(0xF0, 4, 4), 0xFu);
}

TEST(Bitops, DivCeil)
{
    EXPECT_EQ(divCeil(0, 5), 0u);
    EXPECT_EQ(divCeil(1, 5), 1u);
    EXPECT_EQ(divCeil(5, 5), 1u);
    EXPECT_EQ(divCeil(6, 5), 2u);
}

TEST(Config, TypedAccessorsAndDefaults)
{
    Config config;
    config.set("name", "psoram");
    config.setInt("height", 23);
    config.setDouble("util", 0.5);
    config.setBool("recursive", true);

    EXPECT_EQ(config.getString("name", "x"), "psoram");
    EXPECT_EQ(config.getInt("height", 0), 23);
    EXPECT_DOUBLE_EQ(config.getDouble("util", 0.0), 0.5);
    EXPECT_TRUE(config.getBool("recursive", false));
    EXPECT_EQ(config.getInt("missing", 7), 7);
    EXPECT_FALSE(config.has("missing"));
}

TEST(Config, ParseAssignment)
{
    Config config;
    EXPECT_TRUE(config.parseAssignment("wpq=4"));
    EXPECT_TRUE(config.parseAssignment("cipher=aes"));
    EXPECT_FALSE(config.parseAssignment("no-equals"));
    EXPECT_FALSE(config.parseAssignment("=value"));
    EXPECT_EQ(config.getInt("wpq", 0), 4);
    EXPECT_EQ(config.getString("cipher", ""), "aes");
}

TEST(Config, ParseArgsSkipsNonAssignments)
{
    const char *argv[] = {"prog", "height=6", "--flag", "z=2"};
    Config config;
    config.parseArgs(4, const_cast<char **>(argv));
    EXPECT_EQ(config.getInt("height", 0), 6);
    EXPECT_EQ(config.getInt("z", 0), 2);
    EXPECT_EQ(config.keys().size(), 2u);
}

TEST(Stats, CounterBasics)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    ++counter;
    counter += 5;
    EXPECT_EQ(counter.value(), 6u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Stats, DistributionTracksMoments)
{
    Distribution dist;
    dist.sample(1.0);
    dist.sample(5.0);
    dist.sample(3.0);
    EXPECT_EQ(dist.count(), 3u);
    EXPECT_DOUBLE_EQ(dist.mean(), 3.0);
    EXPECT_DOUBLE_EQ(dist.min(), 1.0);
    EXPECT_DOUBLE_EQ(dist.max(), 5.0);
}

TEST(Stats, GroupCounterValueLooksUpByName)
{
    StatGroup group("oram");
    Counter reads;
    reads += 42;
    group.addCounter("reads", &reads, "path reads");
    EXPECT_EQ(group.counterValue("reads"), 42u);
    EXPECT_EQ(group.counterValue("absent"), 0u);
}

TEST(Stats, LedgerDerivesTotalFromStampedWindows)
{
    // Stamps on one clock: each close() charges the time since the
    // previous stamp, a carve() moves a nested window apart, and the
    // sampled total is the sum of the windows.
    PhaseLatencyStats::Stamps stamps(100);
    stamps.close(PhaseLatencyStats::Remap, 103);
    stamps.close(PhaseLatencyStats::Load, 110);
    stamps.close(PhaseLatencyStats::Backup, 110);
    stamps.close(PhaseLatencyStats::Evict, 130);
    stamps.carve(PhaseLatencyStats::Evict, PhaseLatencyStats::Drain, 8);
    stamps.carve(PhaseLatencyStats::Backup, PhaseLatencyStats::Drain, 5);
    const PhaseLatencyStats::Windows expect = {3, 7, 0, 12, 8};
    EXPECT_EQ(stamps.windows(), expect);

    PhaseLatencyStats stats;
    stats.sample(stamps.windows());
    EXPECT_EQ(stats.total.count(), 1u);
    EXPECT_DOUBLE_EQ(stats.total.sum(), 30.0);
    EXPECT_DOUBLE_EQ(stats.phaseSum(), 30.0);
    EXPECT_DOUBLE_EQ(stats.evict.sum(), 12.0);

    // Windows that are closed twice accumulate (recovery's posmap
    // rebuild also takes the tail after the node repair).
    RecoveryStats::Stamps rec(0);
    rec.close(RecoveryStats::PosmapRebuild, 4);
    rec.close(RecoveryStats::NodeRepair, 6);
    rec.close(RecoveryStats::PosmapRebuild, 7);
    EXPECT_EQ(rec.windows()[RecoveryStats::PosmapRebuild], 5u);
    EXPECT_EQ(rec.windows()[RecoveryStats::NodeRepair], 2u);
}

TEST(Stats, LedgerRegistersWindowsTotalAndExtras)
{
    StatGroup group("g");
    PhaseLatencyStats phases;
    phases.registerWith(group, "phase");
    RecoveryStats recovery;
    ++recovery.nodes_repaired;
    recovery.registerWith(group, "recovery");

    const StatGroup::Snapshot snap = group.snapshot();
    std::set<std::string> dists;
    for (const auto &d : snap.dists)
        dists.insert(d.name);
    for (const char *name :
         {"phase.remap", "phase.load", "phase.backup", "phase.evict",
          "phase.drain", "phase.total", "phase.stash_hit",
          "recovery.wpq_replay_ns", "recovery.adr_redeliver_ns",
          "recovery.image_reload_ns", "recovery.posmap_rebuild_ns",
          "recovery.integrity_verify_ns", "recovery.node_repair_ns",
          "recovery.total_ns"})
        EXPECT_EQ(dists.count(name), 1u) << name;
    EXPECT_EQ(dists.size(), 14u);
    EXPECT_EQ(snap.counters.size(), 7u);
    EXPECT_EQ(group.counterValue("recovery.nodes_repaired"), 1u);
}

TEST(Stats, LedgerMergeWhileSamplingKeepsTheIdentity)
{
    // One thread samples each ledger while the main thread merges
    // read-side snapshots of it (the sharded engine's merged view).
    // TSan must see no race; once the sampler stops, the merged copy
    // holds the exact window-sum identity.
    PhaseLatencyStats phases;
    RecoveryStats recovery;
    constexpr int kSamples = 20000;
    std::thread sampler([&] {
        for (int i = 0; i < kSamples; ++i) {
            const std::uint64_t v = static_cast<std::uint64_t>(i % 13);
            phases.sample({v, v + 1, 2, v * 3, 5});
            recovery.sample({v, 1, v + 2, 3, v, 4});
            ++recovery.recoveries;
        }
    });
    std::uint64_t last = 0;
    for (int round = 0; round < 200; ++round) {
        PhaseLatencyStats merged;
        merged.merge(phases);
        RecoveryStats fleet;
        fleet.merge(recovery);
        EXPECT_GE(merged.total.count(), last);
        last = merged.total.count();
        std::this_thread::yield();
    }
    sampler.join();

    PhaseLatencyStats merged;
    merged.merge(phases);
    merged.merge(phases);
    EXPECT_EQ(merged.total.count(), 2u * kSamples);
    EXPECT_EQ(merged.phaseSum(), merged.total.sum());
    RecoveryStats fleet;
    fleet.merge(recovery);
    EXPECT_EQ(fleet.recoveries.value(), static_cast<std::uint64_t>(kSamples));
    EXPECT_EQ(fleet.phaseSum(), fleet.total.sum());

    fleet.reset();
    EXPECT_EQ(fleet.total.count(), 0u);
    EXPECT_EQ(fleet.recoveries.value(), 0u);
}

TEST(Table, FormatsAlignedColumns)
{
    TextTable table({"design", "overhead"});
    table.addRow({"PS-ORAM", TextTable::pct(0.0429)});
    table.addRow({"Naive", TextTable::pct(0.7392)});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("PS-ORAM"), std::string::npos);
    EXPECT_NE(out.find("+4.29%"), std::string::npos);
    EXPECT_NE(out.find("+73.92%"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

std::vector<std::uint8_t>
crcInput(std::size_t len)
{
    Rng rng(0xc5c32);
    std::vector<std::uint8_t> bytes(len);
    for (auto &b : bytes)
        b = static_cast<std::uint8_t>(rng.next());
    return bytes;
}

TEST(Crc32, KnownAnswers)
{
    const std::string_view check = "123456789";
    const auto *digits = reinterpret_cast<const std::uint8_t *>(
        check.data());
    EXPECT_EQ(crc32(digits, check.size()), 0xcbf43926u);
    EXPECT_EQ(crc32Scalar(digits, check.size()), 0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    EXPECT_EQ(crc32Scalar(nullptr, 0), 0u);

    // A page-sized input takes the folded path where the CPU has one;
    // the expected value is zlib's crc32() of the same bytes.
    std::vector<std::uint8_t> page(4096);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i * 31 + 7);
    EXPECT_EQ(crc32(page.data(), page.size()), 0x5d1c4ee3u);
    EXPECT_EQ(crc32Scalar(page.data(), page.size()), 0x5d1c4ee3u);
}

TEST(Crc32, MatchesScalarAtEveryLengthAndOffset)
{
    constexpr std::size_t kMaxLen = 4224;
    const auto bytes = crcInput(kMaxLen + 16);
    std::size_t mismatches = 0;
    for (std::size_t offset = 0; offset < 16; ++offset)
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const std::uint8_t *data = bytes.data() + offset;
            if (crc32(data, len) != crc32Scalar(data, len) &&
                mismatches++ == 0)
                ADD_FAILURE() << "first mismatch at offset " << offset
                              << ", length " << len;
        }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Crc32, MatchesScalarAtProductionSizes)
{
    const std::size_t sizes[] = {
        PagedDiskBackend::kPageBytes,   // page trailer payload
        PagedDiskBackend::kRecordBytes, // a whole page record
        32,                             // log-header fields
        FlightRecorder::kCrcCoverBytes - 4, // flight-recorder cover
        // A full WPQ round as one redo-log record: header plus one
        // slot span per entry.
        PagedDiskBackend::kLogRecordHeaderBytes +
            SystemConfig{}.wpq_entries *
                (PagedDiskBackend::kLogSpanHeaderBytes + kSlotBytes),
    };
    for (const std::size_t len : sizes) {
        const auto bytes = crcInput(len);
        EXPECT_EQ(crc32(bytes.data(), len), crc32Scalar(bytes.data(), len))
            << "length " << len;
    }
}

} // namespace
} // namespace psoram
