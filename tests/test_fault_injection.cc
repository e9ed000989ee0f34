/**
 * @file
 * Exhaustive crash-point enumeration (sim/crash_enumerator.hh).
 *
 * These tests realize the paper's §4.3 argument mechanically: for a
 * fixed 64-access trace, *every* persist boundary the system crosses is
 * turned into a crash, recovered from, and checked against the full
 * recovery-invariant set. The matrix covers the non-recursive design at
 * limited (§4.2.3) and unlimited WPQ sizes, the Naive-PS-ORAM ablation,
 * and the recursive design.
 *
 * The negative control disables backup blocks (§4.2.2) and requires the
 * enumerator to *catch* the resulting data loss — a checker that passes
 * a known-broken build is itself broken.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <ostream>

#include "crash_points.hh"
#include "sim/crash_enumerator.hh"

namespace psoram {
namespace {

// ~40 % tree utilization: dense enough that evictions regularly fail
// to place re-accessed blocks (stash carry), which is exactly the
// state where the §4.2.2 backup blocks carry the recovery guarantee.
constexpr std::uint64_t kBlocks = 48;
constexpr std::size_t kTraceOps = 64;

SystemConfig
enumConfig(DesignKind design, std::size_t wpq = 96)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 4;
    config.bucket_slots = 4;
    config.num_blocks = kBlocks;
    config.stash_capacity = 64;
    config.wpq_entries = wpq;
    config.cipher = CipherKind::FastStream;
    config.seed = 1234;
    return config;
}

CrashEnumConfig
enumCase(DesignKind design, std::size_t wpq)
{
    CrashEnumConfig config;
    config.system = enumConfig(design, wpq);
    config.trace =
        makeCrashTrace(/*seed=*/42, kTraceOps, kBlocks, 0.6);
    return config;
}

void
expectAllCrashPointsRecover(const CrashEnumConfig &config)
{
    const CrashEnumSummary summary = enumerateCrashPoints(config);
    // The trace must actually exercise a meaningful boundary domain:
    // at minimum one round bracket per eviction-bearing access.
    EXPECT_GE(summary.total_boundaries, kTraceOps)
        << summary.describe();
    EXPECT_EQ(summary.replays, summary.total_boundaries);
    EXPECT_TRUE(summary.ok()) << summary.describe();
    testing::reportFailures(summary);
}

struct EnumCase
{
    DesignKind design;
    std::size_t wpq;
    const char *name;
};

/**
 * Print a case by name. gtest's default byte dump would include the
 * name pointer, so the listed test names (and the ctest names
 * discovered from them) would change from build to build.
 */
void
PrintTo(const EnumCase &c, std::ostream *os)
{
    *os << c.name;
}

class ExhaustiveCrashPoints : public ::testing::TestWithParam<EnumCase>
{
};

TEST_P(ExhaustiveCrashPoints, EveryPersistBoundaryRecovers)
{
    expectAllCrashPointsRecover(
        enumCase(GetParam().design, GetParam().wpq));
}

// §4.2.3 limited persistence domains {2, 8} force multi-round
// evictions with crash windows between rounds; 96 never splits a
// path (unlimited for this geometry). Recursive designs need the
// atomic bundle, so systemParams sizes their WPQ up internally.
const EnumCase kEnumCases[] = {
    {DesignKind::PsOram, 2, "PsOram_wpq2"},
    {DesignKind::PsOram, 8, "PsOram_wpq8"},
    {DesignKind::PsOram, 96, "PsOram_wpq96"},
    {DesignKind::NaivePsOram, 96, "NaivePsOram"},
    {DesignKind::RcrPsOram, 96, "RcrPsOram"},
};

INSTANTIATE_TEST_SUITE_P(Designs, ExhaustiveCrashPoints,
                         ::testing::ValuesIn(kEnumCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

TEST(CrashEnumeratorProbe, BoundaryPopulationIsDeterministic)
{
    // The whole scheme rests on replayability: two probe runs of the
    // same (config, trace) must see identical boundary sequences.
    const CrashEnumConfig config = enumCase(DesignKind::PsOram, 8);
    const std::vector<PersistBoundary> first = probeCrashPoints(config);
    EXPECT_EQ(first, probeCrashPoints(config));
    EXPECT_GT(first.size(), 0u);
}

TEST(CrashEnumeratorProbe, RoundBracketsBalance)
{
    // Every committed round opens exactly once: starts == commits when
    // no fault interrupts the trace.
    const std::vector<PersistBoundary> kinds =
        probeCrashPoints(enumCase(DesignKind::PsOram, 8));
    const auto count = [&kinds](PersistBoundary kind) {
        return std::count(kinds.begin(), kinds.end(), kind);
    };
    EXPECT_EQ(count(PersistBoundary::RoundStart),
              count(PersistBoundary::RoundCommit));
    EXPECT_GT(count(PersistBoundary::DrainWrite), 0);
}

/** Feed @p kinds to @p injector in order; return the 1-based position
 *  of the boundary that faulted, or 0 if none did. */
std::uint64_t
feed(FaultInjector &injector, std::initializer_list<PersistBoundary> kinds)
{
    std::uint64_t position = 0;
    for (const PersistBoundary kind : kinds) {
        ++position;
        try {
            injector.boundary(kind);
        } catch (const InjectedFault &fault) {
            EXPECT_EQ(fault.kind(), kind);
            return position;
        }
    }
    return 0;
}

TEST(FaultInjectorArming, ArmAtKindCountsItsKindFromTheCall)
{
    using B = PersistBoundary;
    FaultInjector injector;
    // Boundaries before the call do not count towards the occurrence.
    EXPECT_EQ(feed(injector, {B::RoundStart, B::RoundCommit}), 0u);
    injector.armAtKind(B::RoundCommit, 2);
    EXPECT_EQ(feed(injector, {B::RoundStart, B::RoundCommit, B::DrainWrite,
                              B::RoundStart, B::RoundCommit}),
              5u);
    EXPECT_TRUE(injector.fired());
    EXPECT_FALSE(injector.armed());
    EXPECT_EQ(injector.firedKind(), B::RoundCommit);
    EXPECT_EQ(injector.firedIndex(), 7u);
    EXPECT_EQ(injector.kindCount(B::RoundCommit), 3u);

    // It fires once; re-arming counts from the new call.
    EXPECT_EQ(feed(injector, {B::RoundCommit, B::RoundCommit}), 0u);
    injector.armAtKind(B::RoundCommit, 1);
    EXPECT_EQ(feed(injector, {B::DrainWrite, B::RoundCommit}), 2u);
    EXPECT_EQ(injector.firedIndex(), 11u);
}

TEST(FaultInjectorArming, ArmAtKindHonoursAfter)
{
    using B = PersistBoundary;
    FaultInjector injector;
    // The after-th boundary of any kind following the occurrence.
    injector.armAtKind(B::RoundCommit, 1, 2);
    EXPECT_EQ(feed(injector, {B::RoundStart, B::RoundCommit, B::DrainWrite,
                              B::RoundStart, B::DrainWrite}),
              4u);
    EXPECT_EQ(injector.firedKind(), B::RoundStart);
    EXPECT_EQ(injector.firedIndex(), 4u);
}

TEST(FaultInjectorArming, ArmAtAndResetKeepTheirBehaviour)
{
    using B = PersistBoundary;
    FaultInjector injector;
    // armAt counts every kind from the last reset().
    injector.armAt(3);
    EXPECT_EQ(feed(injector, {B::DirectWrite, B::RoundStart, B::DrainWrite}),
              3u);
    EXPECT_EQ(injector.firedIndex(), 3u);

    // armAt replaces a pending armAtKind.
    injector.armAtKind(B::RoundStart, 1);
    injector.armAt(5);
    EXPECT_EQ(feed(injector, {B::RoundStart, B::DrainWrite}), 2u);
    EXPECT_EQ(injector.firedKind(), B::DrainWrite);

    // reset() disarms a pending armAtKind and zeroes every count.
    injector.armAtKind(B::DrainWrite, 1);
    injector.reset();
    EXPECT_FALSE(injector.armed());
    EXPECT_FALSE(injector.fired());
    EXPECT_EQ(injector.boundariesSeen(), 0u);
    EXPECT_EQ(injector.kindCount(B::DrainWrite), 0u);
    EXPECT_EQ(feed(injector, {B::DrainWrite, B::DrainWrite}), 0u);
    injector.armAt(1);
    EXPECT_EQ(feed(injector, {B::DrainWrite}), 0u); // index 3 > 1
    EXPECT_FALSE(injector.fired());
}

TEST(CrashEnumeratorNegative, MissingBackupBlocksAreDetected)
{
    // Known-broken build: suppress §4.2.2 backup blocks. With a
    // 2-entry WPQ an eviction spans many rounds; a committed early
    // round destroys the re-accessed block's old tree copy while its
    // new value waits in a later, still-uncommitted round — without
    // the backup some inter-round crash point must lose data, and the
    // enumerator must say so.
    CrashEnumConfig config = enumCase(DesignKind::PsOram, 2);
    config.system.disable_backup_blocks = true;
    config.system.num_blocks = 60;
    config.trace = makeCrashTrace(/*seed=*/42, 96, 60, 0.8);
    const CrashEnumSummary summary = enumerateCrashPoints(config);
    EXPECT_FALSE(summary.ok())
        << "checker failed to detect data loss in a build without "
           "backup blocks: "
        << summary.describe();
    bool lost = false;
    for (const CrashPointFailure &failure : summary.failures)
        lost = lost || testing::reportsLoss(failure.violations);
    EXPECT_TRUE(lost) << "no failing crash point reports a lost block";
}

} // namespace
} // namespace psoram
