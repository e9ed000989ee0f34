/**
 * @file
 * Crash-consistency tests for the recursive designs (§4.4, §5.1).
 *
 * Rcr-PS-ORAM routes the PosMap ORAM path writes and the stash shadow
 * snapshots through the same atomic WPQ bracket as the data path, so a
 * crash anywhere either commits the whole access or aborts it cleanly.
 * Rcr-Baseline writes the PosMap tree directly and keeps the stash
 * volatile — the negative tests show it loses data.
 *
 * The protocol-point rows run through the crash harness
 * (sim/crash_enumerator.hh); the scenario tests build their state by
 * hand and run the same recovery-invariant checker.
 */

#include <gtest/gtest.h>


#include "common/random.hh"
#include "crash_points.hh"
#include "psoram/recovery.hh"
#include "sim/crash_enumerator.hh"

namespace psoram {
namespace {

using testing::CrashPoint;
using testing::armCrashPoint;
using testing::crashAtPoint;
using testing::crashPointArming;
using testing::expectRecovered;
using testing::reportsLoss;

constexpr std::uint64_t kBlocks = 64;

SystemConfig
rcrConfig(DesignKind design, std::size_t wpq = 256)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 5;
    config.bucket_slots = 4;
    config.num_blocks = kBlocks;
    config.stash_capacity = 48;
    // Recursive bundles carry the data path + PoM path + shadows; a
    // 256-entry WPQ keeps them in one bracket (the small-WPQ case is
    // exercised separately).
    config.wpq_entries = wpq;
    config.cipher = CipherKind::FastStream;
    config.seed = 55;
    return config;
}

struct CrashCase
{
    CrashPoint point;
    std::uint64_t occurrence;
};

class RcrPsOramCrash : public ::testing::TestWithParam<CrashCase>
{
};

TEST_P(RcrPsOramCrash, RecoversConsistently)
{
    const CrashCase crash = GetParam();
    CrashEnumConfig config;
    config.system = rcrConfig(DesignKind::RcrPsOram);
    config.trace = makeCrashTrace(17, 500, kBlocks, 0.6);
    config.post_recovery_ops = 300;
    const CrashReplay replay =
        crashAtPoint(config, crash.point, crash.occurrence);
    ASSERT_TRUE(replay.fired) << "crash point never reached";
    EXPECT_EQ(replay.kind, crashPointArming(crash.point).fires);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, RcrPsOramCrash,
    ::testing::Values(CrashCase{CrashPoint::BetweenAccesses, 10},
                      CrashCase{CrashPoint::BetweenAccesses, 150},
                      CrashCase{CrashPoint::AfterRemap, 5},
                      CrashCase{CrashPoint::AfterRemap, 80},
                      CrashCase{CrashPoint::DuringLoad, 12},
                      CrashCase{CrashPoint::AfterStashUpdate, 40},
                      CrashCase{CrashPoint::BeforeCommit, 8},
                      CrashCase{CrashPoint::BeforeCommit, 88},
                      CrashCase{CrashPoint::AfterCommit, 9},
                      CrashCase{CrashPoint::AfterCommit, 99}),
    [](const auto &info) {
        return std::string(crashPointArming(info.param.point).label) +
               "_" + std::to_string(info.param.occurrence);
    });

TEST(RcrPsOramCrash2, SmallWpqIsAutoRaisedToOneBracket)
{
    // The recursive eviction bundle must commit in a single atomic
    // bracket (the §4.2.3 multi-round ordering only covers the
    // non-recursive data path, see DESIGN.md): the system builder
    // raises an under-sized WPQ, and evictions then never split.
    System system = buildSystem(rcrConfig(DesignKind::RcrPsOram, 16));
    EXPECT_GT(system.params.design.wpq_entries, 16u);

    Rng rng(61);
    std::uint8_t buf[kBlockDataBytes];
    for (int op = 0; op < 300; ++op) {
        stampPayload(op, op + 1, buf);
        system.controller->write(rng.nextBelow(kBlocks), buf);
    }
    ASSERT_NE(system.controller->drainer(), nullptr);
    EXPECT_EQ(system.controller->drainer()->splitEvictions(), 0u);
}

TEST(RcrPsOramCrash2, ShadowStashRestoresResidentBlocks)
{
    // Focused check: a block resident in the stash at the last commit
    // must be restored from the shadow region by recovery. Z = 2
    // buckets guarantee eviction contention, so the stash is nonempty.
    SystemConfig config = rcrConfig(DesignKind::RcrPsOram);
    config.bucket_slots = 2;
    System system = buildSystem(config);
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    Rng rng(23);
    std::uint8_t buf[kBlockDataBytes];
    for (int op = 0; op < 150; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        const auto version = static_cast<std::uint32_t>(op + 1);
        stampPayload(addr, version, buf);
        system.controller->write(addr, buf);
        oracle.latest[addr] = version;
    }
    const std::size_t resident = system.controller->stash().liveSize();
    if (resident == 0)
        GTEST_SKIP() << "no stash residents with this seed";

    system.controller = RecoveryManager::recover(
        std::move(system.controller), *system.device);
    EXPECT_EQ(system.controller->stash().size(), resident);
    expectRecovered(system, oracle);

    for (const auto &[addr, version] : oracle.latest) {
        system.controller->read(addr, buf);
        EXPECT_EQ(payloadVersion(buf), version) << "addr " << addr;
    }
}

TEST(RcrBaselineCrash, VolatileStashLosesData)
{
    // Rcr-Baseline persists the PosMap through the PoM tree but keeps
    // the stash volatile: blocks resident at crash time are gone. Z = 2
    // buckets guarantee there are residents.
    SystemConfig config = rcrConfig(DesignKind::RcrBaseline);
    config.bucket_slots = 2;
    System system = buildSystem(config);
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    Rng rng(29);
    std::uint8_t buf[kBlockDataBytes];
    for (int op = 0; op < 200; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        const auto version = static_cast<std::uint32_t>(op + 1);
        stampPayload(addr, version, buf);
        system.controller->write(addr, buf);
        oracle.latest[addr] = version;
    }
    // Collect the stash residents before the "crash".
    std::vector<BlockAddr> residents;
    for (std::size_t i = 0; i < system.controller->stash().size(); ++i)
        if (!system.controller->stash().at(i).is_backup)
            residents.push_back(system.controller->stash().at(i).addr);
    if (residents.empty())
        GTEST_SKIP() << "no stash residents with this seed";

    system.recoverController();
    // Held to what crash consistency owes every completed write.
    oracle.durable = oracle.latest;
    EXPECT_TRUE(reportsLoss(checkRecoveryInvariants(system, oracle)));
    std::size_t lost = 0;
    for (const BlockAddr addr : residents) {
        system.controller->read(addr, buf);
        if (payloadVersion(buf) != oracle.latest[addr])
            ++lost;
    }
    EXPECT_GT(lost, 0u)
        << "Rcr-Baseline unexpectedly crash consistent";
}

TEST(RcrPsOramCrash2, RepeatedCrashRecoveryCycles)
{
    FaultInjector injector;
    System system = buildSystem(rcrConfig(DesignKind::RcrPsOram));
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    system.setRebindHook([&oracle](PsOramController &ctrl) {
        ctrl.setCommitObserver(oracle.observer());
    });
    system.attachFaultInjector(&injector);
    Rng rng(41);
    std::uint8_t buf[kBlockDataBytes];

    for (int round = 0; round < 4; ++round) {
        const CrashPoint point = round % 2 == 0 ? CrashPoint::BeforeCommit
                                                : CrashPoint::AfterCommit;
        armCrashPoint(system, injector, point,
                      7 + static_cast<std::uint64_t>(round) * 3);
        bool crashed = false;
        for (int op = 0; op < 250 && !crashed; ++op) {
            const BlockAddr addr = rng.nextBelow(kBlocks);
            const auto version =
                static_cast<std::uint32_t>(1000 * (round + 1) + op);
            stampPayload(addr, version, buf);
            oracle.latest[addr] = version;
            try {
                system.controller->write(addr, buf);
            } catch (const InjectedFault &fault) {
                crashed = true;
                EXPECT_EQ(fault.kind(), crashPointArming(point).fires);
            }
        }
        ASSERT_TRUE(crashed) << "round " << round;
        system.recoverController();
        SCOPED_TRACE("round " + std::to_string(round));
        expectRecovered(system, oracle);
        // Re-baseline the oracle to the recovered state.
        for (auto &[addr, latest] : oracle.latest) {
            system.controller->read(addr, buf);
            latest = payloadVersion(buf);
            oracle.durable[addr] = latest;
        }
    }
}

} // namespace
} // namespace psoram
