/**
 * @file
 * Drainer tests: atomic round bracketing, multi-round splitting with a
 * limited persistence domain, and the metadata ordering rule (a PosMap
 * entry never commits before its block's data write).
 */

#include <gtest/gtest.h>

#include "nvm/device.hh"
#include "nvm/fault_injector.hh"

#include "psoram/drainer.hh"

namespace psoram {
namespace {

WpqEntry
dataEntry(Addr addr, std::uint8_t value)
{
    WpqEntry e;
    e.addr = addr;
    e.data.assign(16, value);
    return e;
}

PosmapWrite
posEntry(Addr addr, std::uint8_t value, std::size_t after_data)
{
    PosmapWrite w;
    w.entry.addr = addr;
    w.entry.data.assign(4, value);
    w.after_data = after_data;
    return w;
}

class DrainerTest : public ::testing::Test
{
  protected:
    /** Report @p drainer's round signals and the device's writes to
     *  one injector, as System::attachFaultInjector does. */
    void
    attach(Drainer &drainer)
    {
        drainer.domain().setFaultInjector(&injector_);
        device_.setFaultInjector(&injector_);
    }

    FaultInjector injector_;
    NvmDevice device_{pcmTimings(), 1, 8, 1 << 20};
};

TEST_F(DrainerTest, SingleRoundWhenEverythingFits)
{
    Drainer drainer(8, 8);
    EvictionBundle bundle;
    for (int i = 0; i < 6; ++i)
        bundle.data_writes.push_back(
            dataEntry(static_cast<Addr>(i) * 64, 1));
    bundle.posmap_writes.push_back(posEntry(4096, 2, 3));
    drainer.persist(bundle, device_, 0);
    EXPECT_EQ(drainer.roundsIssued(), 1u);
    EXPECT_EQ(drainer.splitEvictions(), 0u);
    EXPECT_EQ(drainer.entriesPersisted(), 7u);
}

TEST_F(DrainerTest, SplitsIntoRoundsWithSmallWpq)
{
    Drainer drainer(4, 4);
    EvictionBundle bundle;
    for (int i = 0; i < 10; ++i)
        bundle.data_writes.push_back(
            dataEntry(static_cast<Addr>(i) * 64, 1));
    drainer.persist(bundle, device_, 0);
    EXPECT_EQ(drainer.roundsIssued(), 3u); // 4 + 4 + 2
    EXPECT_EQ(drainer.splitEvictions(), 2u);
}

TEST_F(DrainerTest, AllDataReachesNvm)
{
    Drainer drainer(4, 4);
    EvictionBundle bundle;
    for (int i = 0; i < 9; ++i)
        bundle.data_writes.push_back(dataEntry(
            static_cast<Addr>(i) * 64, static_cast<std::uint8_t>(i)));
    drainer.persist(bundle, device_, 0);
    for (int i = 0; i < 9; ++i) {
        std::uint8_t b = 0;
        device_.readBytes(static_cast<Addr>(i) * 64, &b, 1);
        EXPECT_EQ(b, i);
    }
}

TEST_F(DrainerTest, PosmapEntryNeverCommitsBeforeItsData)
{
    // With a 2-entry WPQ and a metadata entry constrained to data index
    // 5, the entry must land in round 3 (after data 0..5 committed).
    Drainer drainer(2, 2);
    EvictionBundle bundle;
    for (int i = 0; i < 6; ++i)
        bundle.data_writes.push_back(
            dataEntry(static_cast<Addr>(i) * 64, 1));
    bundle.posmap_writes.push_back(posEntry(4096, 7, 5));

    // Track commit order through the round-commit boundaries: at every
    // commit, check whether the metadata is already durable while its
    // data is not (the earlier rounds have drained by then).
    int rounds_seen = 0;
    bool violation = false;
    attach(drainer);
    injector_.setObserver([&](PersistBoundary kind, std::uint64_t) {
        if (kind != PersistBoundary::RoundCommit)
            return;
        ++rounds_seen;
        std::uint8_t meta = 0;
        device_.readBytes(4096, &meta, 1);
        if (meta == 7) {
            std::uint8_t d = 0;
            device_.readBytes(4 * 64, &d, 1); // data index 4 < 5
            if (d == 0)
                violation = true;
        }
    });
    drainer.persist(bundle, device_, 0);
    EXPECT_FALSE(violation);
    EXPECT_GE(rounds_seen, 3);
}

TEST_F(DrainerTest, CrashBetweenRoundsKeepsPrefix)
{
    Drainer drainer(3, 3);
    EvictionBundle bundle;
    for (int i = 0; i < 9; ++i)
        bundle.data_writes.push_back(dataEntry(
            static_cast<Addr>(i) * 64, static_cast<std::uint8_t>(i + 1)));

    // Between rounds 2 and 3: the third round's start signal.
    attach(drainer);
    injector_.armAtKind(PersistBoundary::RoundStart, 3);
    EXPECT_THROW(drainer.persist(bundle, device_, 0), InjectedFault);
    EXPECT_EQ(drainer.roundsIssued(), 2u);
    drainer.domain().crashFlush(device_);

    // Rounds 1-2 (entries 0..5) are durable; round 3 never started.
    for (int i = 0; i < 6; ++i) {
        std::uint8_t b = 0;
        device_.readBytes(static_cast<Addr>(i) * 64, &b, 1);
        EXPECT_EQ(b, i + 1);
    }
    std::uint8_t b = 0;
    device_.readBytes(6 * 64, &b, 1);
    EXPECT_EQ(b, 0);
}

TEST_F(DrainerTest, CrashBeforeCommitDropsCurrentRoundOnly)
{
    Drainer drainer(3, 3);
    EvictionBundle bundle;
    for (int i = 0; i < 6; ++i)
        bundle.data_writes.push_back(dataEntry(
            static_cast<Addr>(i) * 64, static_cast<std::uint8_t>(i + 1)));

    // The second round's commit signal fires before it applies.
    attach(drainer);
    injector_.armAtKind(PersistBoundary::RoundCommit, 2);
    EXPECT_THROW(drainer.persist(bundle, device_, 0), InjectedFault);
    EXPECT_EQ(injector_.firedKind(), PersistBoundary::RoundCommit);
    drainer.domain().crashFlush(device_);

    for (int i = 0; i < 3; ++i) {
        std::uint8_t b = 0;
        device_.readBytes(static_cast<Addr>(i) * 64, &b, 1);
        EXPECT_EQ(b, i + 1) << "committed round lost";
    }
    for (int i = 3; i < 6; ++i) {
        std::uint8_t b = 0;
        device_.readBytes(static_cast<Addr>(i) * 64, &b, 1);
        EXPECT_EQ(b, 0) << "uncommitted round leaked";
    }
}

TEST_F(DrainerTest, CrashAfterCommitFlushesViaAdr)
{
    Drainer drainer(3, 3);
    EvictionBundle bundle;
    for (int i = 0; i < 3; ++i)
        bundle.data_writes.push_back(dataEntry(
            static_cast<Addr>(i) * 64, static_cast<std::uint8_t>(i + 1)));

    // The boundary right after the commit: the drain's first write.
    attach(drainer);
    injector_.armAtKind(PersistBoundary::RoundCommit, 1, 1);
    EXPECT_THROW(drainer.persist(bundle, device_, 0), InjectedFault);
    EXPECT_EQ(injector_.firedKind(), PersistBoundary::DrainWrite);
    drainer.domain().crashFlush(device_);
    for (int i = 0; i < 3; ++i) {
        std::uint8_t b = 0;
        device_.readBytes(static_cast<Addr>(i) * 64, &b, 1);
        EXPECT_EQ(b, i + 1) << "ADR failed to flush committed round";
    }
}

TEST_F(DrainerTest, DrainTimeGrowsWithEntries)
{
    Drainer drainer(96, 96);
    EvictionBundle small, large;
    for (int i = 0; i < 4; ++i)
        small.data_writes.push_back(
            dataEntry(static_cast<Addr>(i) * 64, 1));
    for (int i = 0; i < 90; ++i)
        large.data_writes.push_back(
            dataEntry(static_cast<Addr>(i) * 64, 1));
    const Cycle t_small = drainer.persist(small, device_, 0);
    NvmDevice device2{pcmTimings(), 1, 8, 1 << 20};
    Drainer drainer2(96, 96);
    const Cycle t_large = drainer2.persist(large, device2, 0);
    EXPECT_GT(t_large, t_small);
}

} // namespace
} // namespace psoram
