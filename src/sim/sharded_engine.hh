/**
 * @file
 * ShardedOramEngine: a concurrent frontend over N PS-ORAM shards.
 *
 * Topology: one worker thread per shard plus one completion drain
 * thread.
 *
 *   submit*() --route--> per-shard mailbox --worker--> shard controller
 *                                                         |
 *   callbacks / takeCompletions() <-- drain thread <-- completion queue
 *
 * Each worker owns its shard's controller exclusively: it swaps its
 * mailbox empty and runs the batch on the controller in submission
 * order (an address always routes to the same shard, so requests to
 * one logical address keep their order). Workers never touch another
 * shard's state; the only shared structures are the mailboxes and the
 * completion queue, both mutex-guarded.
 *
 * Back-to-back requests to the same block inside one batch are
 * *coalesced*: a run of duplicate reads (or a write-led run) costs one
 * path load/eviction, and a read-then-write run costs two — the folded
 * writes land as one physical write of the final value, and each
 * request observes the block as of its queue position. This mirrors a
 * write-combining front buffer and is safe for obliviousness: the
 * adversary observes one access where the trace had a run of accesses
 * to one (hidden) address, revealing nothing about which address.
 *
 * Each swapped batch is one commit group (PsOramController::
 * beginGroup/endGroup): a shard on a backend that logs writes first
 * (the disk tree) runs the batch's k accesses, syncs its log once, and
 * only then releases the k completions — nothing is acknowledged
 * before it is durable. On a backend whose writes are durable at once
 * nothing waits, and completions flow per coalescing run.
 *
 * Completion callbacks fire on the drain thread — never on a worker and
 * never on the submitting thread — so user callbacks are serialized and
 * may safely touch shared caller state without locking against each
 * other. Do not submit new requests from inside a callback while
 * drain() is waiting.
 *
 * Statistics are per-shard relaxed counters on each worker, merged on
 * read; stats() is safe to call while workers run.
 */

#ifndef PSORAM_SIM_SHARDED_ENGINE_HH
#define PSORAM_SIM_SHARDED_ENGINE_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/sharding.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "oram/block.hh"
#include "oram/controller.hh"
#include "psoram/psoram_controller.hh"
#include "sim/sharded_system.hh"

namespace psoram {

/** Sharded-engine tunables. */
struct ShardedEngineConfig
{
    /** Per-shard same-block coalescing (see the file comment). */
    bool coalesce = true;
    /** Keep completion records for takeCompletions(); benches turn
     *  this off so multi-million-request runs stay bounded. */
    bool record_completions = true;
    /** Must be 0 or 1: each shard runs one access at a time. Kept
     *  only because the repository benchmark assigns it; removed in
     *  the next change to the benchmark. */
    unsigned pipeline_depth = 0;
};

class ShardedOramEngine
{
  public:
    using RequestId = std::uint64_t;
    using Config = ShardedEngineConfig;

    /** Submit-side backpressure: a submit to a shard whose mailbox
     *  holds this many requests blocks until the worker drains it
     *  below the bound. */
    static constexpr std::size_t kMaxMailbox = 1 << 16;

    /** Outcome of one submitted request. */
    struct Completion
    {
        RequestId id = 0;
        /** Logical (pre-routing) address. */
        BlockAddr addr = kDummyBlockAddr;
        /** Shard that served the request, and as what local address. */
        unsigned shard = 0;
        BlockAddr local_addr = 0;
        bool is_write = false;
        /** Served by an earlier request's physical access. */
        bool coalesced = false;
        /** Shard-controller cycles from the first activity of the
         *  request's coalescing run to its completion. */
        Cycle latency_cycles = 0;
        /** Controller-level outcome of the run's physical access. */
        OramAccessInfo info;
        /** Block contents observed by the request (read result, or the
         *  written data echoed back). */
        std::array<std::uint8_t, kBlockDataBytes> data{};
    };

    using Callback = std::function<void(const Completion &)>;

    /** Front @p system's shards (does not take ownership). */
    ShardedOramEngine(ShardedSystem &system, Config config = Config());

    /** Front explicit controllers (tests wire instrumented backends). */
    ShardedOramEngine(const ShardRouter &router,
                      std::vector<PsOramController *> controllers,
                      Config config = Config());

    /** Stops and joins the worker pool; pending requests complete. */
    ~ShardedOramEngine();

    ShardedOramEngine(const ShardedOramEngine &) = delete;
    ShardedOramEngine &operator=(const ShardedOramEngine &) = delete;

    /** @{ Enqueue a request onto its shard's mailbox; returns
     *  immediately. The write payload is copied. The callback fires on
     *  the drain thread. */
    RequestId submitRead(BlockAddr addr, Callback callback = nullptr);
    RequestId submitWrite(BlockAddr addr, const std::uint8_t *data,
                          Callback callback = nullptr);
    /** @} */

    /** Block until every submitted request has completed (callbacks
     *  included). */
    void drain();

    /** Requests submitted but not yet completed. */
    std::uint64_t pending() const;

    /** Completions accumulated since the last takeCompletions()
     *  (completion order; empty when record_completions is off). */
    std::vector<Completion> takeCompletions();

    unsigned numShards() const
    {
        return static_cast<unsigned>(workers_.size());
    }
    const ShardRouter &router() const { return router_; }

    /** Merged-on-read statistics snapshot. */
    struct StatsSnapshot
    {
        /** Requests a worker took from its mailbox. */
        std::uint64_t submitted = 0;
        /** Completions released (after their group's sync). */
        std::uint64_t completed = 0;
        /** Controller accesses that touched the tree (no stash hit). */
        std::uint64_t physical_accesses = 0;
        /** Requests absorbed into an earlier request's access. */
        std::uint64_t coalesced = 0;
        /** Controller-level accesses (stash hits included). */
        std::uint64_t controller_accesses = 0;
        std::uint64_t stash_hits = 0;
        /** Submits that parked on a full mailbox (kMaxMailbox bound) —
         *  the engine-side saturation signal (perfbench's
         *  engine.backpressure_waits). */
        std::uint64_t backpressure_waits = 0;
        /** @{ Commit groups that synced the device, and the
         *  completions they released (mean group size = ratio). */
        std::uint64_t group_syncs = 0;
        std::uint64_t group_requests = 0;
        /** @} */
    };

    /** One shard's counters (safe while workers run). */
    StatsSnapshot shardStats(unsigned shard) const;

    /** All shards merged (safe while workers run). */
    StatsSnapshot stats() const;

    /** @{ Per-phase latency breakdowns merged across every shard's
     *  controller (read-side snapshot merge; safe while workers run). */
    PhaseLatencyStats mergedPhaseHostNs() const;
    PhaseLatencyStats mergedPhaseSimCycles() const;
    /** @} */

  private:
    struct Request
    {
        RequestId id;
        BlockAddr global_addr;
        BlockAddr local_addr;
        bool is_write;
        std::array<std::uint8_t, kBlockDataBytes> data;
        Callback callback;
    };

    /** One shard's mailbox + thread + counters. */
    struct Worker
    {
        unsigned shard = 0;
        PsOramController *controller = nullptr;
        std::mutex mutex;
        std::condition_variable cv;
        /** Signals mailbox space to submitters blocked on the
         *  kMaxMailbox bound. */
        std::condition_variable space_cv;
        std::deque<Request> mailbox;
        bool stop = false;
        /** @{ Counters (StatsSnapshot has their meaning). */
        Counter submitted;
        Counter completed;
        Counter physical_accesses;
        Counter coalesced;
        Counter backpressure_waits;
        Counter group_syncs;
        Counter group_requests;
        /** @} */
        std::thread thread;
    };

    struct Delivery
    {
        Completion completion;
        Callback callback;
    };

    RequestId submit(BlockAddr addr, bool is_write,
                     const std::uint8_t *data, Callback callback);
    void workerLoop(Worker &worker);
    /** Run one swapped mailbox batch as one commit group. */
    void runBatch(Worker &worker, std::deque<Request> &batch);
    /** Count and trace completions, then hand the observed ones to the
     *  drain thread; @return how many nothing observes. */
    std::uint64_t release(Worker &worker,
                          std::vector<Delivery> &deliveries);
    void drainLoop();
    void start();

    ShardRouter router_;
    Config config_;
    std::vector<std::unique_ptr<Worker>> workers_;

    /** @{ Completion pipeline (drain thread). */
    std::mutex completion_mutex_;
    std::condition_variable completion_cv_;
    std::deque<Delivery> completion_queue_;
    bool completion_stop_ = false;
    std::thread drain_thread_;
    /** @} */

    /** @{ Retained completion records (takeCompletions()). */
    std::mutex records_mutex_;
    std::vector<Completion> records_;
    /** @} */

    /** @{ Idle tracking for drain(). */
    mutable std::mutex idle_mutex_;
    std::condition_variable idle_cv_;
    std::uint64_t completed_ = 0;
    /** @} */

    std::atomic<RequestId> next_id_{1};
    std::atomic<std::uint64_t> submitted_{0};
};

} // namespace psoram

#endif // PSORAM_SIM_SHARDED_ENGINE_HH
