/**
 * @file
 * The protocol points the crash tests are named after (paper §3.3,
 * §4.3), each armed at the persist boundary that leaves the same
 * durable state.
 *
 * Between two persist boundaries nothing durable changes — that is
 * what a boundary is — so a crash at a protocol point leaves the same
 * NVM image as a crash at the next boundary after it, and the volatile
 * state is lost either way. DESIGN.md §10 gives the mapping; the table
 * below is its one copy.
 *
 * crashAtPoint() runs one harness replay armed at a protocol point,
 * expectRecovered() checks a hand-built scenario's recovered system,
 * reportFailures() reports an enumeration's violations, and
 * reportsLoss() is the verdict every negative control asserts.
 *
 * gtest prints a test parameter's bytes into the test name, so the
 * enumerator values are part of the parameterised names (new points go
 * at the end), and the enum is 64 bits wide so a {point, occurrence}
 * parameter has no padding bytes to print.
 */

#ifndef PSORAM_TESTS_CRASH_POINTS_HH
#define PSORAM_TESTS_CRASH_POINTS_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nvm/fault_injector.hh"
#include "sim/crash_enumerator.hh"
#include "sim/system.hh"

namespace psoram {
namespace testing {

enum class CrashPoint : std::uint64_t
{
    /** End of step 2: the remap is staged in the temporary PosMap. */
    AfterRemap,
    /** Step 3: the path load only reads. */
    DuringLoad,
    /** End of step 4: stash update and backup, nothing durable. */
    AfterStashUpdate,
    /** Step 5-B: entries pushed, the round not committed. */
    BeforeCommit,
    /** Step 5-C: the round committed, its drain not started. */
    AfterCommit,
    /** A later round of a multi-round eviction, before it opens. */
    BetweenRounds,
    /** A direct (non-WPQ) eviction write: Baseline, FullNVM. */
    DuringDirectEviction,
    /** Before an access starts. */
    BetweenAccesses,
};

struct CrashPointArming
{
    /** The test-name label. */
    const char *label;
    /** @{ FaultInjector::armAtKind(kind, occurrence, after). */
    PersistBoundary kind;
    std::uint64_t after;
    /** @} */
    /** The kind the InjectedFault reports. */
    PersistBoundary fires;
};

inline const CrashPointArming &
crashPointArming(CrashPoint point)
{
    using B = PersistBoundary;
    // Steps 2-4 write nothing durable in the persistent designs, so
    // their next boundary is the eviction's first round-start.
    static const CrashPointArming kTable[] = {
        {"afterremapstep2", B::RoundStart, 0, B::RoundStart},
        {"duringloadstep3", B::RoundStart, 0, B::RoundStart},
        {"afterstashupdatestep4", B::RoundStart, 0, B::RoundStart},
        // round-commit fires before the commit applies.
        {"beforecommitstep5B", B::RoundCommit, 0, B::RoundCommit},
        // The boundary right after the commit: the first drain-write.
        {"aftercommitstep5C", B::RoundCommit, 1, B::DrainWrite},
        // Armed by armCrashPoint: only a round-start that opens a later
        // round of a split eviction counts.
        {"betweenevictionrounds", B::RoundStart, 0, B::RoundStart},
        {"duringdirecteviction", B::DirectWrite, 0, B::DirectWrite},
        {"betweenaccesses", B::RoundStart, 0, B::RoundStart},
    };
    return kTable[static_cast<std::size_t>(point)];
}

/**
 * Arm @p injector, attached to @p system, at the @p occurrence-th
 * @p point counted from now. BetweenRounds counts the drainer's split
 * rounds: the drainer counts a split just before the later round's
 * start signal, so the observer arms that very round-start (it runs
 * before the armed check) once the count reaches its target. The
 * observer reads @p system's current controller, so it keeps working
 * across recoverController(); @p system must outlive its use.
 */
inline void
armCrashPoint(System &system, FaultInjector &injector, CrashPoint point,
              std::uint64_t occurrence)
{
    if (point != CrashPoint::BetweenRounds) {
        const CrashPointArming &arming = crashPointArming(point);
        injector.armAtKind(arming.kind, occurrence, arming.after);
        return;
    }
    const std::uint64_t target =
        system.controller->drainer()->splitEvictions() + occurrence;
    injector.setObserver([&system, &injector, target](
                             PersistBoundary kind, std::uint64_t index) {
        if (kind == PersistBoundary::RoundStart && !injector.fired() &&
            system.controller->drainer()->splitEvictions() == target)
            injector.armAt(index);
    });
}

/**
 * One harness replay of @p config crashed at the @p occurrence-th
 * @p point (sim/crash_enumerator.hh); every invariant violation is a
 * test failure.
 */
inline CrashReplay
crashAtPoint(const CrashEnumConfig &config, CrashPoint point,
             std::uint64_t occurrence)
{
    const CrashReplay replay = runArmedCrash(
        config, [point, occurrence](System &system, FaultInjector &injector) {
            armCrashPoint(system, injector, point, occurrence);
        });
    for (const std::string &v : replay.violations)
        ADD_FAILURE() << crashPointArming(point).label << " "
                      << occurrence << ": " << v;
    return replay;
}

/** Check every address of @p system, just recovered, against
 *  @p oracle; every violation is a test failure. */
inline void
expectRecovered(System &system, const RecoveryOracle &oracle)
{
    for (const std::string &v : checkRecoveryInvariants(system, oracle))
        ADD_FAILURE() << v;
}

/** Add every violation of @p summary as a test failure. */
inline void
reportFailures(const CrashEnumSummary &summary)
{
    for (const CrashPointFailure &failure : summary.failures)
        for (const std::string &v : failure.violations)
            ADD_FAILURE() << v;
}

/** A negative control's verdict: the recovery-invariant checker
 *  reported a lost or unreachable block (I3 or I4). */
inline bool
reportsLoss(const std::vector<std::string> &violations)
{
    for (const std::string &v : violations)
        if (v.find("I3: ") != std::string::npos ||
            v.find("I4: ") != std::string::npos)
            return true;
    return false;
}

} // namespace testing
} // namespace psoram

#endif // PSORAM_TESTS_CRASH_POINTS_HH
