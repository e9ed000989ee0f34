/**
 * @file
 * The crash harness: the one code that drives a versioned trace into a
 * crash, recovers, and checks the result.
 *
 * For a fixed (config, trace) pair the persist-boundary sequence is
 * deterministic — every WPQ round start/commit, drained or direct
 * write, and disk log record, log sync, page write and fsync fires in
 * the same order on every run. The harness exploits this:
 *
 *   1. *Probe*: run the trace once unarmed and record the kind of every
 *      boundary, in order (probeCrashPoints).
 *   2. *Replay*: rebuild the system from scratch — on disk, from a
 *      fresh tree and log (removeDiskTrees) — arm the injector at
 *      boundary k or at a protocol point, run the trace until the fault
 *      aborts it, recover, and run the recovery-invariant checker
 *      (sim/recovery_invariants.hh, I1–I5 and monotonic durability)
 *      plus a verified post-recovery workload (runArmedCrash).
 *
 * enumerateCrashPoints replays every stride-th boundary. A design is
 * crash-consistent under this model iff *no* k produces a violation —
 * the property the paper argues in §4.3, checked at every durable-state
 * transition rather than at hand-picked protocol sites.
 */

#ifndef PSORAM_SIM_CRASH_ENUMERATOR_HH
#define PSORAM_SIM_CRASH_ENUMERATOR_HH

#include <array>
#include <cstdint>
#include <functional>
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
    /** Accesses per commit group (beginGroup/endGroup), as a shard
     *  worker runs a mailbox batch; 1 = each durable on return. */
    std::size_t commit_group = 1;
    /** Non-empty: runs between crash and recovery (negative controls). */
    std::function<void(System &)> before_recovery;
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

/** Outcome of one armed replay. */
struct CrashReplay
{
    bool fired = false;
    PersistBoundary kind = PersistBoundary::RoundStart;
    /** The fault cut an access after one of its WPQ rounds issued. */
    bool mid_eviction = false;
    std::vector<std::string> violations;
};

/** Arms a replay's injector; called once with the fresh system. */
using CrashArming = std::function<void(System &, FaultInjector &)>;

/** The boundary kinds of a clean run, in order (boundary k at k - 1). */
std::vector<PersistBoundary> probeCrashPoints(const CrashEnumConfig &config);

/** @{ One replay, crashed at boundary @p k or where @p arm arms it. */
CrashReplay runArmedCrash(const CrashEnumConfig &config, std::uint64_t k);
CrashReplay runArmedCrash(const CrashEnumConfig &config,
                          const CrashArming &arm);
/** @} */

/** Probe + replay of every stride-th persist boundary. */
CrashEnumSummary enumerateCrashPoints(const CrashEnumConfig &config);

/** Remove disk tree @p path, its redo log, and each `<path>.shardK`. */
void removeDiskTrees(const std::string &path);

} // namespace psoram

#endif // PSORAM_SIM_CRASH_ENUMERATOR_HH
