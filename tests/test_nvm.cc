/**
 * @file
 * NVM device model tests: timing presets, bank/channel scheduling,
 * functional store semantics, traffic and wear statistics.
 */

#include <gtest/gtest.h>

#include <cstring>

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
