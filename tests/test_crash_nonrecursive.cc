/**
 * @file
 * Crash-consistency tests for the non-recursive designs (§3.3 / §4.3).
 *
 * Every row runs through the crash harness (sim/crash_enumerator.hh):
 * a random versioned trace, a crash injected at the persist boundary of
 * a protocol point (crash_points.hh), the ADR flush + recovery
 * sequence, the recovery-invariant checker (I1–I5: every address
 * recovers a version between its last durable and its last written
 * one, untorn and reachable) and a verified post-recovery workload.
 * The scenario tests keep their hand-built state and run the same
 * checker.
 *
 * The Baseline and FullNVM designs are tested negatively: the paper's
 * case studies say they lose data, and the checker must report it.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "crash_points.hh"
#include "sim/crash_enumerator.hh"

namespace psoram {
namespace {

using testing::CrashPoint;
using testing::armCrashPoint;
using testing::crashAtPoint;
using testing::crashPointArming;
using testing::expectRecovered;
using testing::reportsLoss;

constexpr std::uint64_t kBlocks = 48;

SystemConfig
crashConfig(DesignKind design, std::size_t wpq = 96)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 5;
    config.bucket_slots = 4;
    config.num_blocks = kBlocks;
    config.stash_capacity = 64;
    config.wpq_entries = wpq;
    config.cipher = CipherKind::FastStream;
    config.seed = 99;
    return config;
}

/** @p ops accesses (60 % writes) of trace @p seed on @p system. */
CrashEnumConfig
crashCase(const SystemConfig &system, std::uint64_t seed, std::size_t ops)
{
    CrashEnumConfig config;
    config.system = system;
    config.trace = makeCrashTrace(seed, ops, kBlocks, 0.6);
    config.post_recovery_ops = 300;
    return config;
}

struct CrashCase
{
    CrashPoint point;
    std::uint64_t occurrence;
};

class PsOramCrash
    : public ::testing::TestWithParam<std::tuple<DesignKind, CrashCase>>
{
};

TEST_P(PsOramCrash, RecoversConsistently)
{
    const auto [design, crash] = GetParam();
    const CrashReplay replay = crashAtPoint(
        crashCase(crashConfig(design), 7, 400), crash.point,
        crash.occurrence);
    EXPECT_TRUE(replay.fired) << "crash point never reached";
    EXPECT_EQ(replay.kind, crashPointArming(crash.point).fires);
}

const CrashCase kCrashCases[] = {
    {CrashPoint::BetweenAccesses, 5},
    {CrashPoint::BetweenAccesses, 120},
    {CrashPoint::AfterRemap, 3},
    {CrashPoint::AfterRemap, 60},
    {CrashPoint::DuringLoad, 10},
    {CrashPoint::DuringLoad, 90},
    {CrashPoint::AfterStashUpdate, 7},
    {CrashPoint::AfterStashUpdate, 77},
    {CrashPoint::BeforeCommit, 4},
    {CrashPoint::BeforeCommit, 44},
    {CrashPoint::AfterCommit, 6},
    {CrashPoint::AfterCommit, 66},
};

INSTANTIATE_TEST_SUITE_P(
    Sites, PsOramCrash,
    ::testing::Combine(::testing::Values(DesignKind::PsOram,
                                         DesignKind::NaivePsOram),
                       ::testing::ValuesIn(kCrashCases)),
    [](const auto &info) {
        const DesignKind design = std::get<0>(info.param);
        const CrashCase crash = std::get<1>(info.param);
        std::string out;
        for (const char c : designName(design))
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += c;
        return out + "_" + crashPointArming(crash.point).label + "_" +
               std::to_string(crash.occurrence);
    });

/** Limited persistence domain (§4.2.3): 4-entry WPQs force multi-round
 *  evictions; crash windows between rounds must stay safe. */
class SmallWpqCrash : public ::testing::TestWithParam<CrashCase>
{
};

TEST_P(SmallWpqCrash, RecoversWithFourEntryWpq)
{
    const CrashCase crash = GetParam();
    const CrashReplay replay = crashAtPoint(
        crashCase(crashConfig(DesignKind::PsOram, 4), 13, 400),
        crash.point, crash.occurrence);
    EXPECT_TRUE(replay.fired) << "crash point never reached";
    EXPECT_EQ(replay.kind, crashPointArming(crash.point).fires);
    if (crash.point == CrashPoint::BetweenRounds) {
        EXPECT_TRUE(replay.mid_eviction)
            << "crashed before the eviction's first round";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rounds, SmallWpqCrash,
    ::testing::Values(CrashCase{CrashPoint::BetweenRounds, 2},
                      CrashCase{CrashPoint::BetweenRounds, 9},
                      CrashCase{CrashPoint::BetweenRounds, 33},
                      CrashCase{CrashPoint::BetweenRounds, 101},
                      CrashCase{CrashPoint::BeforeCommit, 15},
                      CrashCase{CrashPoint::AfterCommit, 15}),
    [](const auto &info) {
        return std::string(crashPointArming(info.param.point).label) +
               "_" + std::to_string(info.param.occurrence);
    });

TEST(PsOramCrashSweep, EveryEvictionBoundarySurvives)
{
    // Dense sweep: crash at every 7th commit boundary across several
    // runs — broad coverage of stash/temp states.
    for (std::uint64_t occurrence = 1; occurrence <= 120;
         occurrence += 7) {
        const CrashReplay replay = crashAtPoint(
            crashCase(crashConfig(DesignKind::PsOram), occurrence, 300),
            CrashPoint::AfterCommit, occurrence);
        EXPECT_TRUE(replay.fired);
        EXPECT_EQ(replay.kind, PersistBoundary::DrainWrite);
    }
}

TEST(BaselineCrash, LosesDataWithoutPersistence)
{
    // The paper's motivating failure: with no persistence support the
    // volatile stash and PosMap vanish; after a crash the tree cannot
    // be interpreted (§3.3 Case 1a).
    FaultInjector injector;
    System system = buildSystem(crashConfig(DesignKind::Baseline));
    RecoveryOracle oracle;
    Rng rng(5);
    std::uint8_t buf[kBlockDataBytes];
    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, CrashPoint::DuringDirectEviction, 80);

    bool crashed = false;
    for (int op = 0; op < 400 && !crashed; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        const auto version = static_cast<std::uint32_t>(op + 1);
        stampPayload(addr, version, buf);
        oracle.latest[addr] = version;
        try {
            system.controller->write(addr, buf);
            // Held to what crash consistency owes a completed write.
            oracle.durable[addr] = version;
        } catch (const InjectedFault &fault) {
            crashed = true;
            EXPECT_EQ(fault.kind(), PersistBoundary::DirectWrite);
        }
    }
    ASSERT_TRUE(crashed);

    system.recoverController();
    // Baseline must demonstrably lose data — that is the problem
    // statement of the paper.
    EXPECT_TRUE(reportsLoss(checkRecoveryInvariants(system, oracle)));
}

TEST(FullNvmCrash, NonAtomicMetadataLosesInFlightBlock)
{
    // §3.3 Case 1b: FullNVM persists the PosMap update (step 2) before
    // the data moves; a crash right after the remap makes the target
    // unreachable even though stash and PosMap survive in on-chip NVM.
    FaultInjector injector;
    System system = buildSystem(crashConfig(DesignKind::FullNvm));
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    Rng rng(21);
    std::uint8_t buf[kBlockDataBytes];

    // Phase 1: populate every block (no crash).
    for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
        const auto version = static_cast<std::uint32_t>(addr + 1);
        stampPayload(addr, version, buf);
        system.controller->write(addr, buf);
        oracle.latest[addr] = version;
    }

    // Phase 2: crash at the first persist boundary after the remap of
    // the 30th path access (the path observer runs right after step
    // 2). That is the on-chip stash write of the path's first block:
    // the on-chip PosMap already holds the new leaf, the stash does
    // not hold the block yet.
    system.attachFaultInjector(&injector);
    std::uint64_t remaps = 0;
    std::uint64_t writes_at_remap = 0;
    system.controller->setPathObserver([&](PathId) {
        if (++remaps == 30) {
            injector.armAt(injector.boundariesSeen() + 1);
            writes_at_remap = system.controller->traffic().writes;
        }
    });
    BlockAddr in_flight = kDummyBlockAddr;
    bool crashed = false;
    for (int op = 0; op < 300 && !crashed; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        try {
            system.controller->read(addr, buf);
        } catch (const InjectedFault &fault) {
            crashed = true;
            in_flight = addr;
            EXPECT_EQ(fault.kind(), PersistBoundary::DirectWrite);
            // No on-chip or NVM write since the remap: the crash hit
            // before the path reached the on-chip stash.
            EXPECT_EQ(system.controller->traffic().writes,
                      writes_at_remap);
        }
    }
    ASSERT_TRUE(crashed);

    system.recoverController();
    // Held to what crash consistency owes every completed write.
    oracle.durable = oracle.latest;
    EXPECT_TRUE(reportsLoss(checkRecoveryInvariants(system, oracle)));
    system.controller->read(in_flight, buf);
    // The block's data cannot be located: the PosMap (persistent in
    // on-chip NVM) already points at the new path, where nothing was
    // ever written.
    EXPECT_NE(payloadVersion(buf), oracle.latest[in_flight]);
}

TEST(PsOramCrashDetail, BackupRestoresPreCrashValue)
{
    // Focused §4.3 Case 3 scenario: block written, evicted, re-written
    // (new value only in the stash), crash before the new value
    // commits. Recovery must return the OLD value via the backup block.
    System system = buildSystem(crashConfig(DesignKind::PsOram));
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    std::uint8_t buf[kBlockDataBytes];

    stampPayload(5, 1, buf);
    system.controller->write(5, buf);
    oracle.latest[5] = 1;
    // Force block 5 out of the stash so it commits.
    for (BlockAddr a = 10; a < 40; ++a) {
        stampPayload(a, 1, buf);
        system.controller->write(a, buf);
        oracle.latest[a] = 1;
    }
    if (system.controller->stash().find(5) != nullptr)
        GTEST_SKIP() << "block 5 never evicted with this seed";
    ASSERT_EQ(oracle.durableOf(5), 1u);

    // Re-write with version 2; crash during the eviction of that very
    // access, before its round commits.
    FaultInjector injector;
    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, CrashPoint::BeforeCommit, 1);
    stampPayload(5, 2, buf);
    oracle.latest[5] = 2;
    EXPECT_THROW(system.controller->write(5, buf), InjectedFault);
    EXPECT_EQ(injector.firedKind(), PersistBoundary::RoundCommit);

    system.recoverController();
    expectRecovered(system, oracle);
    system.controller->read(5, buf);
    EXPECT_EQ(payloadVersion(buf), 1u)
        << "backup block failed to restore the committed value";
}

TEST(PsOramCrashDetail, RepeatedCrashesAndRecoveries)
{
    // Crash -> recover -> crash -> recover ... the system must stay
    // consistent across arbitrarily many failures.
    SystemConfig config = crashConfig(DesignKind::PsOram);
    FaultInjector injector;
    System system = buildSystem(config);
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    system.setRebindHook([&oracle](PsOramController &ctrl) {
        ctrl.setCommitObserver(oracle.observer());
    });
    system.attachFaultInjector(&injector);
    Rng rng(31);
    std::uint8_t buf[kBlockDataBytes];

    for (int round = 0; round < 6; ++round) {
        armCrashPoint(system, injector, CrashPoint::AfterCommit,
                      5 + static_cast<std::uint64_t>(round));
        bool crashed = false;
        for (int op = 0; op < 200 && !crashed; ++op) {
            const BlockAddr addr = rng.nextBelow(kBlocks);
            const auto version =
                static_cast<std::uint32_t>(1000 * round + op + 1);
            stampPayload(addr, version, buf);
            oracle.latest[addr] = version;
            try {
                system.controller->write(addr, buf);
            } catch (const InjectedFault &fault) {
                crashed = true;
                EXPECT_EQ(fault.kind(), PersistBoundary::DrainWrite);
            }
        }
        ASSERT_TRUE(crashed) << "round " << round;
        system.recoverController();
        SCOPED_TRACE("round " + std::to_string(round));
        expectRecovered(system, oracle);
        // Re-baseline the oracle to the recovered state: the value
        // read back is what is durable now.
        for (auto &[addr, latest] : oracle.latest) {
            system.controller->read(addr, buf);
            latest = payloadVersion(buf);
            oracle.durable[addr] = latest;
        }
    }
}

} // namespace
} // namespace psoram
