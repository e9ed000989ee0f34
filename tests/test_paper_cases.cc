/**
 * @file
 * Direct reproductions of the paper's §3.3 case studies (Figure 2) and
 * their §4.3 resolutions — one test per case, written to mirror the
 * paper's narrative:
 *
 *   Case 1: crash in step 3 (after the remap, during the path load)
 *   Case 2: crash in step 4 (path loaded, before eviction)
 *   Case 3: crash in step 5 (during the eviction / before the next
 *           access), including the Figure 3 overwritten-block scenario
 *
 * Each crash is injected at the persist boundary that leaves the same
 * durable state as the paper's crash moment (crash_points.hh): steps 3
 * and 4 write nothing durable, so a PS-ORAM crash in them is the crash
 * at the eviction's first round-start. After every recovery the
 * recovery-invariant checker runs over the whole address space before
 * the case's own assertions; on the Baseline it must report the loss.
 */

#include <gtest/gtest.h>

#include "crash_points.hh"
#include "sim/recovery_invariants.hh"

namespace psoram {
namespace {

using testing::CrashPoint;
using testing::armCrashPoint;
using testing::expectRecovered;
using testing::reportsLoss;

SystemConfig
caseConfig(DesignKind design)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 6;
    config.num_blocks = 100;
    config.stash_capacity = 64;
    config.cipher = CipherKind::FastStream;
    config.seed = 321;
    return config;
}

/** Populate every block (version addr + 1) with @p oracle tracking
 *  durability, so values are committed. */
void
populate(System &system, RecoveryOracle &oracle)
{
    system.controller->setCommitObserver(oracle.observer());
    std::uint8_t buf[kBlockDataBytes];
    for (BlockAddr addr = 0; addr < 100; ++addr) {
        const auto version = static_cast<std::uint32_t>(addr + 1);
        oracle.latest[addr] = version;
        stampPayload(addr, version, buf);
        system.controller->write(addr, buf);
    }
}

/** Read @p addr and return its payload version after recovery. */
std::uint32_t
recoveredVersion(System &system, BlockAddr addr)
{
    std::uint8_t buf[kBlockDataBytes];
    system.controller->read(addr, buf);
    return payloadVersion(buf);
}

TEST(PaperCase1, CrashDuringLoadRecoversViaUncommittedRemap)
{
    // §4.3 Case 1: the new path id lives only in the temporary PosMap;
    // a crash during step 3 loses it together with the stash, and the
    // (persistent) PosMap still holds the old, consistent mapping —
    // "the ORAM controller can re-read this path id ... and correctly
    // access the data of interest in the original path".
    FaultInjector injector;
    System system = buildSystem(caseConfig(DesignKind::PsOram));
    RecoveryOracle oracle;
    populate(system, oracle);

    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, CrashPoint::DuringLoad, 1);
    std::uint8_t buf[kBlockDataBytes];
    BlockAddr victim = kDummyBlockAddr;
    for (BlockAddr addr = 0; addr < 100 && victim == kDummyBlockAddr;
         ++addr) {
        if (system.controller->stash().find(addr))
            continue; // a stash hit would skip step 3
        try {
            system.controller->read(addr, buf);
        } catch (const InjectedFault &fault) {
            victim = addr;
            EXPECT_EQ(fault.kind(), PersistBoundary::RoundStart);
        }
    }
    ASSERT_NE(victim, kDummyBlockAddr);

    system.recoverController();
    expectRecovered(system, oracle);
    EXPECT_EQ(recoveredVersion(system, victim),
              static_cast<std::uint32_t>(victim + 1));
}

TEST(PaperCase2, CrashAfterLoadLosesNothingCommitted)
{
    // §4.3 Case 2: the path was fetched into the (volatile) stash but
    // the eviction has not rewritten the tree yet — the NVM still holds
    // every block; recovery re-reads them from the data content region.
    FaultInjector injector;
    System system = buildSystem(caseConfig(DesignKind::PsOram));
    RecoveryOracle oracle;
    populate(system, oracle);

    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, CrashPoint::AfterStashUpdate, 1);
    std::uint8_t buf[kBlockDataBytes];
    BlockAddr victim = kDummyBlockAddr;
    for (BlockAddr addr = 0; addr < 100 && victim == kDummyBlockAddr;
         ++addr) {
        if (system.controller->stash().find(addr))
            continue;
        try {
            system.controller->read(addr, buf);
        } catch (const InjectedFault &fault) {
            victim = addr;
            EXPECT_EQ(fault.kind(), PersistBoundary::RoundStart);
        }
    }
    ASSERT_NE(victim, kDummyBlockAddr);

    system.recoverController();
    expectRecovered(system, oracle);
    // The victim AND every other block of the loaded path survive.
    for (BlockAddr addr = 0; addr < 100; ++addr)
        EXPECT_EQ(recoveredVersion(system, addr),
                  static_cast<std::uint32_t>(addr + 1))
            << "addr " << addr;
}

TEST(PaperCase3, PartialWritebackCannotDestroyLiveBlocks)
{
    // §3.3 Case 3 / Figure 3: with a tiny (4-entry) WPQ the eviction
    // needs many rounds; a crash between any two rounds must not leave
    // a block overwritten whose relocated copy never became durable —
    // the scenario where blocks a and b are destroyed by c and f in
    // Figure 3. Safe placement + the atomic bracket prevent it at
    // every possible round boundary.
    for (std::uint64_t occurrence = 1; occurrence <= 40;
         occurrence += 3) {
        SystemConfig config = caseConfig(DesignKind::PsOram);
        config.wpq_entries = 4;
        FaultInjector injector;
        System system = buildSystem(config);
        RecoveryOracle oracle;
        populate(system, oracle);

        system.attachFaultInjector(&injector);
        armCrashPoint(system, injector, CrashPoint::BetweenRounds, occurrence);
        std::uint8_t buf[kBlockDataBytes];
        bool crashed = false;
        for (int op = 0; op < 60 && !crashed; ++op) {
            const BlockAddr addr = static_cast<BlockAddr>(op) % 100;
            stampPayload(addr, 1000 + op, buf);
            oracle.latest[addr] = static_cast<std::uint32_t>(1000 + op);
            const std::uint64_t rounds_before =
                system.controller->drainer()->roundsIssued();
            try {
                system.controller->write(addr, buf);
            } catch (const InjectedFault &fault) {
                crashed = true;
                // Between two rounds of one eviction: the next round
                // opens after an earlier round of this access drained.
                EXPECT_EQ(fault.kind(), PersistBoundary::RoundStart);
                EXPECT_GT(system.controller->drainer()->roundsIssued(),
                          rounds_before)
                    << "occurrence " << occurrence
                    << " crashed before the eviction's first round";
            }
        }
        ASSERT_TRUE(crashed) << "occurrence " << occurrence;

        system.recoverController();
        expectRecovered(system, oracle);
        for (BlockAddr addr = 0; addr < 100; ++addr) {
            const std::uint32_t v = recoveredVersion(system, addr);
            const std::uint32_t latest = oracle.latest[addr];
            if (latest == addr + 1) {
                // Untouched since populate: must hold its value.
                EXPECT_EQ(v, latest)
                    << "addr " << addr << " destroyed (Figure 3!)";
            } else {
                // Updated: old-or-new, never zero/garbage.
                EXPECT_TRUE(v == addr + 1 || v == latest)
                    << "addr " << addr << " got " << v;
            }
        }
    }
}

TEST(PaperCase1Baseline, SameCrashDestroysTheBaseline)
{
    // The §3.3 motivation: in the original Path ORAM the PosMap update
    // of step 2 is already in effect when the crash hits, and with a
    // volatile PosMap nothing can be located afterwards.
    // The Baseline's next boundary after step 2 is its eviction's
    // first direct write.
    FaultInjector injector;
    System system = buildSystem(caseConfig(DesignKind::Baseline));
    RecoveryOracle oracle;
    populate(system, oracle);

    system.attachFaultInjector(&injector);
    injector.armAtKind(PersistBoundary::DirectWrite, 1);
    std::uint8_t buf[kBlockDataBytes];
    bool crashed = false;
    for (BlockAddr addr = 0; addr < 100 && !crashed; ++addr) {
        try {
            system.controller->read(addr, buf);
        } catch (const InjectedFault &fault) {
            crashed = true;
            EXPECT_EQ(fault.kind(), PersistBoundary::DirectWrite);
        }
    }
    ASSERT_TRUE(crashed);

    system.recoverController();
    // Held to what crash consistency owes every completed write.
    oracle.durable = oracle.latest;
    EXPECT_TRUE(reportsLoss(checkRecoveryInvariants(system, oracle)));
    std::size_t lost = 0;
    for (BlockAddr addr = 0; addr < 100; ++addr)
        if (recoveredVersion(system, addr) !=
            static_cast<std::uint32_t>(addr + 1))
            ++lost;
    EXPECT_GT(lost, 0u);
}

} // namespace
} // namespace psoram
