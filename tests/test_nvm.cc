/**
 * @file
 * NVM device model tests: timing presets, bank/channel scheduling,
 * functional store semantics, traffic and wear statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "nvm/bank.hh"
#include "nvm/channel.hh"
#include "nvm/device.hh"
#include "nvm/timing.hh"

namespace psoram {
namespace {

TEST(Timing, PresetsMatchTable3)
{
    const NvmTimingParams pcm = pcmTimings();
    EXPECT_EQ(pcm.tRCD, 48u);
    EXPECT_EQ(pcm.tWP, 60u);
    EXPECT_EQ(pcm.tCWD, 4u);
    EXPECT_EQ(pcm.tWTR, 3u);
    EXPECT_EQ(pcm.tRP, 1u);
    EXPECT_EQ(pcm.tCCD, 2u);
    EXPECT_EQ(pcm.clockMHz, 400u);

    const NvmTimingParams stt = sttramTimings();
    EXPECT_EQ(stt.tRCD, 14u);
    EXPECT_EQ(stt.tWP, 14u);
    EXPECT_EQ(stt.tCWD, 10u);
    EXPECT_EQ(stt.tWTR, 5u);

    EXPECT_EQ(nvmTechName(NvmTech::PCM), "PCM");
    EXPECT_EQ(nvmTechName(NvmTech::STTRAM), "STTRAM");
}

TEST(Bank, ReadLatencyIsRcdPlusBurst)
{
    const NvmTimingParams params = pcmTimings();
    Bank bank(params);
    const Cycle done = bank.access(100, false);
    EXPECT_EQ(done, 100 + params.tRCD + params.tBURST);
    EXPECT_EQ(bank.readCount(), 1u);
}

TEST(Bank, WriteOccupiesBankForWritePulse)
{
    const NvmTimingParams params = pcmTimings();
    Bank bank(params);
    const Cycle w = bank.access(0, true);
    EXPECT_EQ(w, params.tCWD + params.tBURST);
    // A read right behind the write waits for the write pulse + tWTR.
    const Cycle r = bank.access(0, false);
    EXPECT_GE(r, w + params.tWP);
    EXPECT_EQ(bank.writeCount(), 1u);
    EXPECT_EQ(bank.readCount(), 1u);
}

TEST(Bank, BackToBackReadsSpacedByCcd)
{
    const NvmTimingParams params = pcmTimings();
    Bank bank(params);
    const Cycle r1 = bank.access(0, false);
    const Cycle r2 = bank.access(0, false);
    EXPECT_EQ(r2 - r1, params.tRCD + params.tCCD + params.tRP);
}

TEST(Channel, ReadsToDifferentBanksPipeline)
{
    const NvmTimingParams params = pcmTimings();
    Channel channel(params, 8);
    // 8 reads to 8 distinct banks: the array accesses overlap and only
    // the bus serializes bursts.
    Cycle last = 0;
    for (unsigned bank = 0; bank < 8; ++bank)
        last = std::max(last, channel.access(bank, 0, false));
    EXPECT_LT(last, 8 * params.readLatency());
    EXPECT_GE(last, params.readLatency() + 7 * params.tBURST);
    EXPECT_EQ(channel.readCount(), 8u);
}

TEST(Channel, SameBankSerializes)
{
    const NvmTimingParams params = pcmTimings();
    Channel channel(params, 8);
    Cycle last = 0;
    for (int i = 0; i < 4; ++i)
        last = channel.access(0, 0, false);
    EXPECT_GE(last, 3 * (params.tRCD + params.tCCD));
}

TEST(Channel, RejectsBadBank)
{
    Channel channel(pcmTimings(), 2);
    EXPECT_DEATH(channel.access(2, 0, false), "bank index");
}

TEST(Device, FunctionalReadOfUnwrittenIsZero)
{
    NvmDevice device(pcmTimings(), 1, 8, 1 << 20);
    std::uint8_t buf[128];
    std::memset(buf, 0xFF, sizeof(buf));
    device.readBytes(1000, buf, sizeof(buf));
    for (const auto b : buf)
        EXPECT_EQ(b, 0);
}

TEST(Device, WriteReadRoundTripAcrossLines)
{
    NvmDevice device(pcmTimings(), 2, 4, 1 << 20);
    std::uint8_t out[200];
    for (int i = 0; i < 200; ++i)
        out[i] = static_cast<std::uint8_t>(i);
    device.writeBytes(37, out, sizeof(out)); // deliberately unaligned
    std::uint8_t in[200] = {};
    device.readBytes(37, in, sizeof(in));
    EXPECT_EQ(std::memcmp(in, out, sizeof(out)), 0);
}

TEST(Device, PartialLineWritePreservesNeighbors)
{
    NvmDevice device(pcmTimings(), 1, 4, 1 << 20);
    const std::uint8_t a = 0x11, b = 0x22;
    device.writeBytes(0, &a, 1);
    device.writeBytes(1, &b, 1);
    std::uint8_t back[2] = {};
    device.readBytes(0, back, 2);
    EXPECT_EQ(back[0], 0x11);
    EXPECT_EQ(back[1], 0x22);
}

TEST(Device, AccessCountsTraffic)
{
    NvmDevice device(pcmTimings(), 1, 8, 1 << 20);
    device.timing().accessOne(0, false, 0);
    device.timing().accessOne(64, false, 0);
    device.timing().accessOne(128, true, 0);
    EXPECT_EQ(device.timing().totalReads(), 2u);
    EXPECT_EQ(device.timing().totalWrites(), 1u);
}

TEST(Device, MultiLineAccessCountsPerLine)
{
    NvmDevice device(pcmTimings(), 1, 8, 1 << 20);
    device.timing().access(0, 256, true, 0); // 4 lines
    EXPECT_EQ(device.timing().totalWrites(), 4u);
}

TEST(Device, MoreChannelsFinishSooner)
{
    const auto run = [](unsigned channels) {
        NvmDevice device(pcmTimings(), channels, 8, 1 << 24);
        Cycle last = 0;
        for (Addr line = 0; line < 96; ++line)
            last = std::max(last, device.timing().accessOne(line * 64,
                                                            false, 0));
        return last;
    };
    const Cycle one = run(1);
    const Cycle two = run(2);
    const Cycle four = run(4);
    EXPECT_LT(two, one);
    EXPECT_LE(four, two);
}

TEST(Device, WearTracksPerLineWrites)
{
    NvmDevice device(pcmTimings(), 1, 8, 1 << 20);
    std::uint8_t byte = 1;
    for (int i = 0; i < 5; ++i)
        device.writeBytes(0, &byte, 1);
    device.writeBytes(64, &byte, 1);
    EXPECT_EQ(device.distinctLinesWritten(), 2u);
    EXPECT_EQ(device.maxLineWrites(), 5u);
    EXPECT_NEAR(device.meanLineWrites(), 3.0, 1e-9);
}

TEST(Device, SnapshotRestoreRoundTrip)
{
    NvmDevice device(pcmTimings(), 1, 8, 1 << 20);
    const std::uint8_t v1 = 0xAB;
    device.writeBytes(100, &v1, 1);
    const MemoryImage snapshot = device.image();

    const std::uint8_t v2 = 0xCD;
    device.writeBytes(100, &v2, 1);
    device.restoreImage(snapshot);

    std::uint8_t back = 0;
    device.readBytes(100, &back, 1);
    EXPECT_EQ(back, 0xAB);
}

TEST(Device, OutOfBoundsPanics)
{
    NvmDevice device(pcmTimings(), 1, 8, 1024);
    std::uint8_t buf[16];
    EXPECT_DEATH(device.readBytes(1020, buf, 16), "capacity");
    EXPECT_DEATH(device.writeBytes(1024, buf, 1), "capacity");
}

TEST(Device, BoundsCheckSurvivesAddressOverflow)
{
    // Regression: the old check computed `addr + len > capacity_`,
    // which wraps for addresses near the top of the 64-bit space and
    // silently admitted the access.
    NvmDevice device(pcmTimings(), 1, 8, 1024);
    std::uint8_t buf[64] = {};
    EXPECT_DEATH(device.readBytes(UINT64_MAX - 8, buf, 64), "capacity");
    EXPECT_DEATH(device.writeBytes(UINT64_MAX - 8, buf, 64), "capacity");
    // addr in range, but addr + len wraps past zero.
    EXPECT_DEATH(device.readBytes(512, buf, UINT64_MAX - 256),
                 "capacity");
    EXPECT_DEATH(device.writeBytes(512, buf, UINT64_MAX - 256),
                 "capacity");
    // The boundary itself stays legal.
    device.readBytes(1024 - 64, buf, 64);
    device.writeBytes(1024 - 64, buf, 64);
}

// The prefetching readv is a two-pass form of readBytes: every span
// must read exactly what a per-span readBytes reads, across 4 KiB
// page boundaries, over pages that were never allocated (zeros), and
// up to the last byte of the device.
TEST(Device, ReadvMatchesPerSpanReads)
{
    constexpr std::uint64_t kCapacity = 4 * NvmDevice::kPageBytes;
    NvmDevice device(pcmTimings(), 1, 8, kCapacity);
    std::vector<std::uint8_t> pattern(NvmDevice::kPageBytes);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 13 + 5);
    // Pages 0 and 2 allocated, page 1 never, page 3 only at its tail.
    device.writeBytes(0, pattern.data(), pattern.size());
    device.writeBytes(2 * NvmDevice::kPageBytes, pattern.data(),
                      pattern.size());
    device.writeBytes(kCapacity - 40, pattern.data(), 40);

    const std::vector<std::pair<Addr, std::size_t>> ranges = {
        {NvmDevice::kPageBytes - 50, 128},      // page 0 into page 1
        {NvmDevice::kPageBytes + 904, 96},      // inside page 1
        {2 * NvmDevice::kPageBytes - 70, 200},  // page 1 into page 2
        {2 * NvmDevice::kPageBytes + 37, 96},   // unaligned in page 2
        {3 * NvmDevice::kPageBytes - 10, 4106}, // page 2 to the end
        {kCapacity - 128, 128},                 // ends at capacity
        {kCapacity, 0},                         // empty, at capacity
    };
    std::vector<std::vector<std::uint8_t>> got, want;
    std::vector<ReadSpan> spans;
    for (const auto &[addr, len] : ranges) {
        got.emplace_back(len + 1, 0xAA);
        want.emplace_back(len + 1, 0xAA);
        device.readBytes(addr, want.back().data(), len);
    }
    for (std::size_t i = 0; i < ranges.size(); ++i)
        spans.push_back({ranges[i].first, got[i].data(), ranges[i].second});
    device.readv(spans);
    for (std::size_t i = 0; i < ranges.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "span " << i;
    // The span inside the never-allocated page reads as zeros.
    EXPECT_TRUE(std::all_of(got[1].begin(), got[1].end() - 1,
                            [](std::uint8_t b) { return b == 0; }));
}

// A span past capacity still panics in readv, and its bounds check
// runs before the prefetch pass indexes the page table.
TEST(DeviceDeathTest, ReadvPastCapacityPanics)
{
    NvmDevice device(pcmTimings(), 1, 8, 2 * NvmDevice::kPageBytes);
    std::uint8_t buf[128];
    const ReadSpan inside{0, buf, 64};
    const std::vector<ReadSpan> past = {
        inside, {2 * NvmDevice::kPageBytes - 64, buf, 65}};
    EXPECT_DEATH(device.readv(past), "capacity");
    // Far past the page table, without wrapping the address space.
    const std::vector<ReadSpan> far = {inside, {Addr{1} << 44, buf, 64}};
    EXPECT_DEATH(device.readv(far), "capacity");
    const std::vector<ReadSpan> top = {inside, {UINT64_MAX - 8, buf, 64}};
    EXPECT_DEATH(device.readv(top), "capacity");
    const std::vector<ReadSpan> wrap = {
        inside, {512, buf, UINT64_MAX - 256}};
    EXPECT_DEATH(device.readv(wrap), "capacity");
}

TEST(Device, ResetStatsClearsCountersAndWear)
{
    NvmDevice device(pcmTimings(), 1, 8, 1 << 20);
    std::uint8_t byte = 1;
    device.writeBytes(0, &byte, 1);
    device.timing().accessOne(0, true, 0);
    device.resetStats();
    EXPECT_EQ(device.timing().totalWrites(), 0u);
    EXPECT_EQ(device.distinctLinesWritten(), 0u);
}

} // namespace
} // namespace psoram
