/**
 * @file
 * Crash-consistency tests for the non-recursive designs (§3.3 / §4.3).
 *
 * The harness runs a random workload with a versioned-payload oracle:
 * every write carries (addr, version); the controller's commit observer
 * records which version last became durable. A crash is injected at the
 * persist boundary of a protocol point (crash_points.hh), the ADR
 * flush + recovery sequence runs, and the test
 * checks the paper's guarantee: every address recovers a version
 * between its last durable version and its last written version
 * (atomic old-or-new), and the ORAM remains fully functional.
 *
 * The Baseline and FullNVM designs are tested negatively: the paper's
 * case studies say they lose data, and they must do so here too.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/random.hh"
#include "crash_points.hh"
#include "psoram/recovery.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

using testing::CrashPoint;
using testing::armCrashPoint;
using testing::crashPointArming;

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

void
payload(BlockAddr addr, std::uint32_t version, std::uint8_t *out)
{
    std::memset(out, 0, kBlockDataBytes);
    std::memcpy(out, &addr, sizeof(addr));
    std::memcpy(out + 8, &version, sizeof(version));
}

std::uint32_t
versionOf(const std::uint8_t *data)
{
    std::uint32_t version = 0;
    std::memcpy(&version, data + 8, sizeof(version));
    return version;
}

/** Versioned-payload oracle fed by the commit observer. */
struct Oracle
{
    std::map<BlockAddr, std::uint32_t> committed;
    std::map<BlockAddr, std::uint32_t> latest;

    CommitObserver
    observer()
    {
        return [this](BlockAddr addr,
                      const std::array<std::uint8_t, kBlockDataBytes>
                          &data) {
            const std::uint32_t version = versionOf(data.data());
            auto &slot = committed[addr];
            // Durability is monotonic: the observer must never report
            // an older version than one already durable.
            ASSERT_GE(version, slot);
            slot = version;
        };
    }
};

struct CrashRunResult
{
    bool crashed = false;
    BlockAddr in_flight = kDummyBlockAddr;
    PersistBoundary kind = PersistBoundary::RoundStart;
    /** An earlier round of the crashing access had committed. */
    bool mid_eviction = false;
};

/**
 * Run @p ops random accesses with a crash armed at (point, occurrence);
 * on crash, recover and verify the old-or-new guarantee for every
 * address; then run a post-recovery workload to confirm the ORAM still
 * functions.
 */
CrashRunResult
runCrashScenario(const SystemConfig &config, CrashPoint point,
                 std::uint64_t occurrence, int ops, std::uint64_t seed)
{
    FaultInjector injector;
    System system = buildSystem(config);
    Oracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, point, occurrence);

    Rng rng(seed);
    std::uint8_t buf[kBlockDataBytes];
    CrashRunResult result;

    for (int op = 0; op < ops; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        const bool is_write = rng.nextBool(0.6);
        const std::uint64_t rounds_before =
            system.controller->drainer()->roundsIssued();
        try {
            if (is_write) {
                const auto version = static_cast<std::uint32_t>(op + 1);
                payload(addr, version, buf);
                system.controller->write(addr, buf);
                oracle.latest[addr] = version;
            } else {
                system.controller->read(addr, buf);
            }
        } catch (const InjectedFault &fault) {
            result.crashed = true;
            result.in_flight = addr;
            result.kind = fault.kind();
            result.mid_eviction =
                system.controller->drainer()->roundsIssued() >
                rounds_before;
            // The write that crashed mid-flight may persist or abort.
            if (is_write)
                oracle.latest[addr] =
                    static_cast<std::uint32_t>(op + 1);
            break;
        }
    }
    if (!result.crashed)
        return result;

    // Power failure: ADR flush, volatile state lost, rebuild, recover.
    system.recoverController();
    system.controller->setCommitObserver(oracle.observer());

    // The paper's guarantee (§4.3): every block recovers a version
    // v with durable <= v <= latest; nothing is lost, nothing is torn.
    for (const auto &[addr, latest] : oracle.latest) {
        system.controller->read(addr, buf);
        const std::uint32_t v = versionOf(buf);
        const auto it = oracle.committed.find(addr);
        const std::uint32_t durable =
            it == oracle.committed.end() ? 0 : it->second;
        EXPECT_GE(v, durable)
            << "addr " << addr << " lost data at "
            << crashPointArming(point).label << " occurrence "
            << occurrence;
        EXPECT_LE(v, latest) << "addr " << addr << " corrupt";
        if (v != 0) {
            BlockAddr stored = 0;
            std::memcpy(&stored, buf, sizeof(stored));
            EXPECT_EQ(stored, addr) << "payload torn";
        }
    }

    // Recovery must leave a fully working ORAM: run a fresh verified
    // workload on top.
    std::map<BlockAddr, std::uint32_t> post;
    for (int op = 0; op < 300; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        if (rng.nextBool(0.5)) {
            const auto version =
                static_cast<std::uint32_t>(100000 + op);
            payload(addr, version, buf);
            system.controller->write(addr, buf);
            post[addr] = version;
        } else if (post.count(addr)) {
            system.controller->read(addr, buf);
            EXPECT_EQ(versionOf(buf), post[addr])
                << "post-recovery ORAM broken at op " << op;
        }
    }
    return result;
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
    const CrashRunResult result = runCrashScenario(
        crashConfig(design), crash.point, crash.occurrence, 400, 7);
    EXPECT_TRUE(result.crashed) << "crash point never reached";
    EXPECT_EQ(result.kind, crashPointArming(crash.point).fires);
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
    const CrashRunResult result =
        runCrashScenario(crashConfig(DesignKind::PsOram, 4), crash.point,
                         crash.occurrence, 400, 13);
    EXPECT_TRUE(result.crashed) << "crash point never reached";
    EXPECT_EQ(result.kind, crashPointArming(crash.point).fires);
    if (crash.point == CrashPoint::BetweenRounds) {
        EXPECT_TRUE(result.mid_eviction)
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
        const CrashRunResult result =
            runCrashScenario(crashConfig(DesignKind::PsOram),
                             CrashPoint::AfterCommit, occurrence, 300,
                             occurrence);
        EXPECT_TRUE(result.crashed);
        EXPECT_EQ(result.kind, PersistBoundary::DrainWrite);
    }
}

TEST(BaselineCrash, LosesDataWithoutPersistence)
{
    // The paper's motivating failure: with no persistence support the
    // volatile stash and PosMap vanish; after a crash the tree cannot
    // be interpreted (§3.3 Case 1a).
    FaultInjector injector;
    System system = buildSystem(crashConfig(DesignKind::Baseline));
    Rng rng(5);
    std::uint8_t buf[kBlockDataBytes];
    std::map<BlockAddr, std::uint32_t> latest;
    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, CrashPoint::DuringDirectEviction, 80);

    bool crashed = false;
    for (int op = 0; op < 400 && !crashed; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        const auto version = static_cast<std::uint32_t>(op + 1);
        payload(addr, version, buf);
        try {
            system.controller->write(addr, buf);
            latest[addr] = version;
        } catch (const InjectedFault &fault) {
            crashed = true;
            EXPECT_EQ(fault.kind(), PersistBoundary::DirectWrite);
        }
    }
    ASSERT_TRUE(crashed);

    system.recoverController();
    std::size_t lost = 0;
    for (const auto &[addr, version] : latest) {
        system.controller->read(addr, buf);
        if (versionOf(buf) != version)
            ++lost;
    }
    // Baseline must demonstrably lose data — that is the problem
    // statement of the paper.
    EXPECT_GT(lost, 0u);
}

TEST(FullNvmCrash, NonAtomicMetadataLosesInFlightBlock)
{
    // §3.3 Case 1b: FullNVM persists the PosMap update (step 2) before
    // the data moves; a crash right after the remap makes the target
    // unreachable even though stash and PosMap survive in on-chip NVM.
    FaultInjector injector;
    System system = buildSystem(crashConfig(DesignKind::FullNvm));
    Rng rng(21);
    std::uint8_t buf[kBlockDataBytes];
    std::map<BlockAddr, std::uint32_t> latest;

    // Phase 1: populate every block (no crash).
    for (BlockAddr addr = 0; addr < kBlocks; ++addr) {
        const auto version = static_cast<std::uint32_t>(addr + 1);
        payload(addr, version, buf);
        system.controller->write(addr, buf);
        latest[addr] = version;
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
    system.controller->read(in_flight, buf);
    // The block's data cannot be located: the PosMap (persistent in
    // on-chip NVM) already points at the new path, where nothing was
    // ever written.
    EXPECT_NE(versionOf(buf), latest[in_flight]);
}

TEST(PsOramCrashDetail, BackupRestoresPreCrashValue)
{
    // Focused §4.3 Case 3 scenario: block written, evicted, re-written
    // (new value only in the stash), crash before the new value
    // commits. Recovery must return the OLD value via the backup block.
    System system = buildSystem(crashConfig(DesignKind::PsOram));
    Oracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    std::uint8_t buf[kBlockDataBytes];

    payload(5, 1, buf);
    system.controller->write(5, buf);
    // Force block 5 out of the stash so it commits.
    for (BlockAddr a = 10; a < 40; ++a) {
        payload(a, 1, buf);
        system.controller->write(a, buf);
    }
    if (system.controller->stash().find(5) != nullptr)
        GTEST_SKIP() << "block 5 never evicted with this seed";
    ASSERT_EQ(oracle.committed[5], 1u);

    // Re-write with version 2; crash during the eviction of that very
    // access, before its round commits.
    FaultInjector injector;
    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, CrashPoint::BeforeCommit, 1);
    payload(5, 2, buf);
    EXPECT_THROW(system.controller->write(5, buf), InjectedFault);
    EXPECT_EQ(injector.firedKind(), PersistBoundary::RoundCommit);

    system.recoverController();
    system.controller->read(5, buf);
    EXPECT_EQ(versionOf(buf), 1u)
        << "backup block failed to restore the committed value";
}

TEST(PsOramCrashDetail, RepeatedCrashesAndRecoveries)
{
    // Crash -> recover -> crash -> recover ... the system must stay
    // consistent across arbitrarily many failures.
    SystemConfig config = crashConfig(DesignKind::PsOram);
    FaultInjector injector;
    System system = buildSystem(config);
    Oracle oracle;
    system.controller->setCommitObserver(oracle.observer());
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
            payload(addr, version, buf);
            try {
                system.controller->write(addr, buf);
                oracle.latest[addr] = version;
            } catch (const InjectedFault &fault) {
                crashed = true;
                oracle.latest[addr] = version;
                EXPECT_EQ(fault.kind(), PersistBoundary::DrainWrite);
            }
        }
        ASSERT_TRUE(crashed) << "round " << round;
        system.recoverController();
        system.controller->setCommitObserver(oracle.observer());
        for (const auto &[addr, latest] : oracle.latest) {
            system.controller->read(addr, buf);
            const std::uint32_t v = versionOf(buf);
            EXPECT_GE(v, oracle.committed.count(addr)
                             ? oracle.committed[addr] : 0u)
                << "round " << round << " addr " << addr;
            EXPECT_LE(v, latest);
            // Re-baseline the oracle to the recovered state: the value
            // read back is what is durable now.
            oracle.latest[addr] = v;
            oracle.committed[addr] = v;
        }
    }
}

} // namespace
} // namespace psoram
