/**
 * @file
 * OramEngine: a batched asynchronous frontend over the PS-ORAM
 * controller.
 *
 * Callers submit read/write requests and receive completions through
 * poll()/drain(), either by callback or from the returned completion
 * records. The engine owns a FIFO request queue; the controller is only
 * driven when the caller polls, so submission never blocks on NVM
 * timing.
 *
 * drain() runs the queue as one commit group (PsOramController::
 * beginGroup/endGroup): on a backend that logs writes first (the disk
 * tree) the controller syncs once for the whole queue, and every
 * completion produced while a sync is pending — reads included, since
 * one may return a value written earlier in the group — is delivered
 * only after it. On a backend whose writes are durable at once nothing
 * waits, and completions flow per access. poll() on its own is a group
 * of one access run (durable on return).
 *
 * Back-to-back requests to the same logical block are *coalesced*: a
 * run of duplicate reads (or a write-led run) costs one path
 * load/eviction, and a read-then-write run costs two — the folded
 * writes land as one physical write of the final value. This mirrors
 * what a write-combining front buffer does for a DIMM, and it is safe
 * for obliviousness — the adversary observes one access where the
 * trace had a run of accesses to one (hidden) address, revealing
 * nothing about which address that was.
 */

#ifndef PSORAM_SIM_ENGINE_HH
#define PSORAM_SIM_ENGINE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "oram/block.hh"
#include "oram/controller.hh"
#include "psoram/psoram_controller.hh"

namespace psoram {

/** Engine tunables. */
struct EngineConfig
{
    /** Merge back-to-back same-block requests into one access. */
    bool coalesce = true;
    /** Keep completion records for takeCompletions(). The sharded
     *  engine's workers deliver completions through callbacks instead
     *  and turn recording off so long runs stay bounded. */
    bool record_completions = true;
};

class OramEngine
{
  public:
    using RequestId = std::uint64_t;
    using Config = EngineConfig;

    /**
     * Submit-side backpressure: a submit that would leave more than
     * this many requests pending drives the engine until the queue is
     * back under the bound, so open-loop producers cannot grow the
     * queue without limit.
     */
    static constexpr std::size_t kMaxPending = 1 << 16;

    /** Outcome of one submitted request. */
    struct Completion
    {
        RequestId id = 0;
        BlockAddr addr = kDummyBlockAddr;
        bool is_write = false;
        /** Served by an earlier request's physical access. */
        bool coalesced = false;
        /** Memory-side cycles from first controller activity of the
         *  request's batch to its completion. */
        Cycle latency_cycles = 0;
        /** Controller-level outcome of the batch's physical access. */
        OramAccessInfo info;
        /** Block contents observed by the request (read result, or the
         *  written data echoed back). */
        std::array<std::uint8_t, kBlockDataBytes> data{};
    };

    using Callback = std::function<void(const Completion &)>;

    explicit OramEngine(PsOramController &ctrl, Config config = Config())
        : ctrl_(ctrl), config_(config)
    {
    }

    OramEngine(const OramEngine &) = delete;
    OramEngine &operator=(const OramEngine &) = delete;

    /** @{ Enqueue a request; returns immediately. The write payload is
     *  copied. The callback (optional) fires during poll()/drain().
     *
     *  @p forced_id (0 = assign from the engine's own sequence) lets an
     *  outer frontend impose its request id, so trace events recorded by
     *  the controller correlate with the id the outer caller saw. The
     *  caller owns uniqueness of forced ids. */
    RequestId submitRead(BlockAddr addr, Callback callback = nullptr,
                         RequestId forced_id = 0);
    RequestId submitWrite(BlockAddr addr, const std::uint8_t *data,
                          Callback callback = nullptr,
                          RequestId forced_id = 0);
    /** @} */

    /**
     * Process the next batch (one coalescing run; a single request when
     * coalescing is off or neighbours differ) and deliver its
     * completions.
     * @return completions produced (0 when the queue is empty)
     */
    std::size_t poll();

    /** Process the whole queue as one commit group.
     *  @return total completions delivered. */
    std::size_t drain();

    std::size_t pending() const { return queue_.size(); }

    /** Completions accumulated since the last takeCompletions(). */
    std::vector<Completion> takeCompletions();

    /** Engine counters. Relaxed-atomic (common/stats.hh Counter) so the
     *  sharded frontend can merge per-shard stats while workers run. */
    struct Stats
    {
        Counter submitted;
        Counter completed;
        /** Controller accesses that touched the tree (no stash hit). */
        Counter physical_accesses;
        /** Requests absorbed into an earlier request's access. */
        Counter coalesced;
        /** Submits that found the queue over kMaxPending and had to
         *  drive the engine inline (saturation signal). */
        Counter backpressure_stalls;
        /** @{ Per drain() whose group synced the device: completions
         *  it released, and the sync's host time. */
        Distribution group_size;
        Distribution group_sync_ns;
        /** @} */
    };
    const Stats &stats() const { return stats_; }

    /** Register the engine counters with @p group (metrics export). */
    void registerStats(StatGroup &group) const;

    /** @{ Per-phase latency breakdown, delegated to the controller. */
    const PhaseLatencyStats &phaseHostNs() const
    {
        return ctrl_.phaseHostNs();
    }
    const PhaseLatencyStats &phaseSimCycles() const
    {
        return ctrl_.phaseSimCycles();
    }
    /** @} */

  private:
    struct Pending
    {
        RequestId id;
        BlockAddr addr;
        bool is_write;
        std::array<std::uint8_t, kBlockDataBytes> data;
        Callback callback;
    };

    void finish(const Pending &request, bool coalesced, Cycle start,
                const OramAccessInfo &info,
                const std::array<std::uint8_t, kBlockDataBytes> &block);

    /** Count, trace, call back and record one completion. */
    void complete(Completion completion, const Callback &callback);

    void backpressure();

    PsOramController &ctrl_;
    Config config_;
    std::deque<Pending> queue_;
    std::vector<Completion> completions_;
    /** Completions of the open commit group waiting for its sync. */
    std::vector<std::pair<Completion, Callback>> held_;
    Stats stats_;
    RequestId next_id_ = 1;
};

} // namespace psoram

#endif // PSORAM_SIM_ENGINE_HH
