/**
 * @file
 * Exhaustive crash-point enumerator.
 *
 * For a fixed (config, trace) pair the persist-boundary sequence is
 * deterministic: every WPQ round start/commit, every drained or direct
 * functional write, and every disk page write and fsync fires in the
 * same order on every run. The enumerator exploits this:
 *
 *   1. *Probe*: run the trace once with an unarmed FaultInjector and
 *      count the boundaries, B.
 *   2. *Replay*: for every k in [1, B], rebuild the system from
 *      scratch, arm the injector at boundary k, run the trace until
 *      the injected fault aborts it, apply the power-failure recovery
 *      sequence, and run the full recovery-invariant checker
 *      (sim/recovery_invariants.hh) plus a verified post-recovery
 *      workload.
 *
 * A design is crash-consistent under this model iff *no* k produces a
 * violation — the property the paper argues in §4.3, here checked at
 * every single durable-state transition rather than at hand-picked
 * protocol sites.
 */

#ifndef PSORAM_SIM_CRASH_ENUMERATOR_HH
#define PSORAM_SIM_CRASH_ENUMERATOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "nvm/fault_injector.hh"
#include "sim/recovery_invariants.hh"
#include "sim/system.hh"

namespace psoram {

/** One access of a crash trace. Versions are assigned 1..N in trace
 *  order so the oracle can tell every write apart. */
struct TraceOp
{
    BlockAddr addr;
    bool is_write;
    std::uint32_t version;
};

/** Deterministic random trace over @p num_blocks addresses. */
std::vector<TraceOp> makeCrashTrace(std::uint64_t seed, std::size_t ops,
                                    std::uint64_t num_blocks,
                                    double write_fraction = 0.6);

struct CrashEnumConfig
{
    SystemConfig system;
    std::vector<TraceOp> trace;
    /** Verified workload length run on top of every recovery. */
    std::size_t post_recovery_ops = 64;
    /** Replay every stride-th boundary only (1 = exhaustive). The
     *  torture harness uses larger strides for big traces. */
    std::uint64_t stride = 1;
    /**
     * Non-empty: record every armed replay into the trace ring buffers
     * (cleared per replay) and write the Chrome trace of a *failing*
     * replay here — enumerateCrashPoints() keeps the first failure's
     * trace, so a red run ships with the dying run's event timeline.
     */
    std::string trace_path;
    /**
     * Non-empty: on a *failing* replay, decode the dying system's
     * persistent flight ring (requires system.flight_recorder) and
     * write the human-readable black-box dump here, next to the trace.
     */
    std::string blackbox_path;
    /**
     * Non-null: every replay's recovery stats (phase latencies,
     * redelivery counters, black-box decode counts) are merged here
     * after its recovery — the harnesses export the aggregate.
     */
    RecoveryStats *recovery_stats = nullptr;
};

/** Outcome of one armed replay that produced violations. */
struct CrashPointFailure
{
    std::uint64_t boundary = 0;
    std::vector<std::string> violations;
};

struct CrashEnumSummary
{
    /** Boundaries the probe run counted (the enumeration domain). */
    std::uint64_t total_boundaries = 0;
    /** Replays actually executed (== total_boundaries / stride). */
    std::uint64_t replays = 0;
    /** Probe-run count per boundary kind, indexed by PersistBoundary. */
    std::array<std::uint64_t, kNumPersistBoundaryKinds> kind_counts{};
    std::vector<CrashPointFailure> failures;

    bool ok() const { return failures.empty(); }
    /** One-line human summary ("B boundaries, R replays, F failures"). */
    std::string describe() const;
};

/**
 * Run one armed replay: crash at boundary @p k, recover, check.
 * Exposed separately so the torture harness can replay single points.
 *
 * @return violation list (empty = invariants hold), each prefixed with
 *         the boundary index and kind.
 */
std::vector<std::string> runArmedCrash(const CrashEnumConfig &config,
                                       std::uint64_t k);

/** Probe + exhaustive replay of every persist boundary. */
CrashEnumSummary enumerateCrashPoints(const CrashEnumConfig &config);

} // namespace psoram

#endif // PSORAM_SIM_CRASH_ENUMERATOR_HH
