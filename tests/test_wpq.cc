/**
 * @file
 * Write Pending Queue and ADR domain tests: the start/end bracket
 * protocol, drain semantics, and the power-failure guarantees the
 * PS-ORAM eviction relies on (§4.2.2 step 5-B/5-C).
 */

#include <gtest/gtest.h>

#include <vector>

#include "nvm/device.hh"

#include "nvm/adr_domain.hh"
#include "nvm/wpq.hh"

namespace psoram {
namespace {

WpqEntry
entry(Addr addr, std::uint8_t value)
{
    WpqEntry e;
    e.addr = addr;
    e.data.assign(8, value);
    return e;
}

std::uint8_t
firstByteAt(const NvmDevice &device, Addr addr)
{
    std::uint8_t b = 0;
    device.readBytes(addr, &b, 1);
    return b;
}

class WpqTest : public ::testing::Test
{
  protected:
    NvmDevice device{pcmTimings(), 1, 8, 1 << 20};
};

TEST_F(WpqTest, RoundLifecycle)
{
    AdrDomain adr(4, 4);
    Wpq &wpq = adr.dataWpq();
    EXPECT_FALSE(wpq.open());
    adr.start();
    EXPECT_TRUE(wpq.open());
    EXPECT_TRUE(wpq.push(entry(0, 1)));
    EXPECT_TRUE(wpq.push(entry(64, 2)));
    adr.end();
    EXPECT_TRUE(wpq.committed());
    EXPECT_FALSE(wpq.open());

    adr.drain(device, 0);
    EXPECT_EQ(wpq.size(), 0u);
    EXPECT_EQ(firstByteAt(device, 0), 1);
    EXPECT_EQ(firstByteAt(device, 64), 2);
    EXPECT_EQ(wpq.totalDrained(), 2u);
}

TEST_F(WpqTest, PushBeyondCapacityRefused)
{
    Wpq wpq("q", 2);
    wpq.start();
    EXPECT_TRUE(wpq.push(entry(0, 1)));
    EXPECT_TRUE(wpq.push(entry(64, 2)));
    EXPECT_TRUE(wpq.full());
    EXPECT_FALSE(wpq.push(entry(128, 3)));
    EXPECT_EQ(wpq.size(), 2u);
}

TEST_F(WpqTest, CommittedRoundSurvivesPowerFailure)
{
    AdrDomain adr(4, 4);
    adr.start();
    adr.dataWpq().push(entry(0, 0xAA));
    adr.end(); // "end" was issued: ADR must flush this
    const std::size_t flushed = adr.crashFlush(device);
    EXPECT_EQ(flushed, 1u);
    EXPECT_EQ(firstByteAt(device, 0), 0xAA);
}

TEST_F(WpqTest, UncommittedRoundIsDiscarded)
{
    AdrDomain adr(4, 4);
    adr.start();
    adr.dataWpq().push(entry(0, 0xAA));
    // No end signal: the original NVM content must not be overwritten.
    const std::size_t flushed = adr.crashFlush(device);
    EXPECT_EQ(flushed, 0u);
    EXPECT_EQ(firstByteAt(device, 0), 0);
}

TEST_F(WpqTest, ProtocolViolationsPanic)
{
    Wpq wpq("q", 2);
    EXPECT_DEATH(wpq.push(entry(0, 1)), "without start");
    EXPECT_DEATH(wpq.end(), "without start");
    wpq.start();
    EXPECT_DEATH(wpq.start(), "round is open");
}

TEST_F(WpqTest, DrainBeforeEndPanics)
{
    AdrDomain adr(2, 2);
    adr.start();
    adr.dataWpq().push(entry(0, 1));
    EXPECT_DEATH(adr.drain(device, 0), "before end");
}

TEST_F(WpqTest, QueuedBytesSumsPayloads)
{
    Wpq wpq("q", 4);
    wpq.start();
    wpq.push(entry(0, 1));
    wpq.push(entry(64, 2));
    EXPECT_EQ(wpq.queuedBytes(), 16u);
}

TEST_F(WpqTest, DrainAdvancesTime)
{
    AdrDomain adr(8, 8);
    adr.start();
    for (int i = 0; i < 8; ++i)
        adr.dataWpq().push(entry(static_cast<Addr>(i) * 64, 1));
    adr.end();
    const Cycle done = adr.drain(device, 1000);
    EXPECT_GT(done, 1000u);
}

TEST_F(WpqTest, AdrDomainBracketsBothQueuesAtomically)
{
    AdrDomain adr(4, 4);
    adr.start();
    EXPECT_TRUE(adr.dataWpq().open());
    EXPECT_TRUE(adr.posmapWpq().open());
    adr.dataWpq().push(entry(0, 1));
    adr.posmapWpq().push(entry(4096, 2));
    adr.end();
    EXPECT_TRUE(adr.dataWpq().committed());
    EXPECT_TRUE(adr.posmapWpq().committed());
    EXPECT_EQ(adr.bytesPersisted(), 16u);

    adr.drain(device, 0);
    EXPECT_EQ(firstByteAt(device, 0), 1);
    EXPECT_EQ(firstByteAt(device, 4096), 2);
}

TEST_F(WpqTest, AdrCrashFlushIsConsistentAcrossQueues)
{
    AdrDomain adr(4, 4);
    adr.start();
    adr.dataWpq().push(entry(0, 1));
    adr.posmapWpq().push(entry(4096, 2));
    // Crash before end: BOTH queues drop their round — data and
    // metadata stay mutually consistent (the atomicity requirement of
    // §3.2).
    EXPECT_EQ(adr.crashFlush(device), 0u);
    EXPECT_EQ(firstByteAt(device, 0), 0);
    EXPECT_EQ(firstByteAt(device, 4096), 0);
}

TEST_F(WpqTest, ZeroCapacityIsFatal)
{
    EXPECT_DEATH(Wpq("bad", 0), "capacity");
}

// The payload array is not zero-filled at construction, so resize must
// write the bytes it grows over: they read as zero, also where an
// earlier, longer payload left its bytes behind.
TEST(WpqBytes, ResizeGrowsWithZeros)
{
    WpqBytes fresh;
    fresh.resize(16);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(fresh[i], 0) << i;

    WpqBytes reused;
    reused.assign(kWpqEntryBytes, 0xFF);
    reused.resize(8);
    reused.resize(kWpqEntryBytes);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(reused[i], 0xFF) << i;
    for (std::size_t i = 8; i < kWpqEntryBytes; ++i)
        EXPECT_EQ(reused[i], 0) << i;
}

// The flat queue drains in push order and refills after a drain.
TEST_F(WpqTest, DrainKeepsPushOrderAcrossRounds)
{
    Wpq wpq("data_wpq", 3);
    for (int round = 0; round < 2; ++round) {
        wpq.start();
        for (std::uint8_t i = 0; i < 3; ++i)
            ASSERT_TRUE(wpq.push(entry(4096 * i, 10 * round + i)));
        wpq.end();
        std::vector<WriteSpan> spans;
        wpq.appendSpans(spans);
        ASSERT_EQ(spans.size(), 3u);
        for (std::uint8_t i = 0; i < 3; ++i) {
            EXPECT_EQ(spans[i].addr, 4096u * i);
            EXPECT_EQ(spans[i].data[0], 10 * round + i);
        }
        device.writev(spans);
        wpq.retire(device.timing(), 0);
        EXPECT_EQ(wpq.size(), 0u);
    }
    EXPECT_EQ(wpq.totalPushed(), 6u);
    EXPECT_EQ(wpq.totalDrained(), 6u);
    EXPECT_EQ(wpq.totalRounds(), 2u);
    EXPECT_EQ(firstByteAt(device, 4096 * 2), 12);
}

} // namespace
} // namespace psoram
