/**
 * @file
 * ShardedOramEngine: a concurrent frontend over N PS-ORAM shards.
 *
 * Topology: one worker thread per shard plus one completion drain
 * thread.
 *
 *   submit*() --route--> per-shard mailbox --worker--> shard OramEngine
 *                                                         |
 *   callbacks / takeCompletions() <-- drain thread <-- completion queue
 *
 * Each worker owns its shard's controller exclusively: it swaps its
 * mailbox empty and pushes the batch through a per-shard OramEngine, so
 * same-block coalescing is per shard and requests to one logical
 * address retain submission order (an address always routes to the same
 * shard). Workers never touch another shard's state; the only shared
 * structures are the mailboxes and the completion queue, both
 * mutex-guarded.
 *
 * Each swapped batch is one commit group (OramEngine::drain): a shard
 * on a backend that logs writes first (the disk tree) runs the batch's
 * k accesses, syncs its log once, and only then releases the k
 * completions — nothing is acknowledged before it is durable. On a
 * backend whose writes are durable at once nothing waits, and
 * completions flow per access.
 *
 * Completion callbacks fire on the drain thread — never on a worker and
 * never on the submitting thread — so user callbacks are serialized and
 * may safely touch shared caller state without locking against each
 * other. Do not submit new requests from inside a callback while
 * drain() is waiting.
 *
 * Statistics are per-shard accumulators (the shard engines' relaxed
 * Counters) merged on read; stats() is safe to call while workers run.
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
#include "sim/engine.hh"
#include "sim/sharded_system.hh"

namespace psoram {

/** Sharded-engine tunables. */
struct ShardedEngineConfig
{
    /** Per-shard same-block coalescing (see OramEngine). */
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
        bool coalesced = false;
        /** Shard-controller cycles from the batch's first activity. */
        Cycle latency_cycles = 0;
        OramAccessInfo info;
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
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t physical_accesses = 0;
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

    /** One shard's mailbox + inner engine + thread. */
    struct Worker
    {
        unsigned shard = 0;
        PsOramController *controller = nullptr;
        std::unique_ptr<OramEngine> engine;
        std::mutex mutex;
        std::condition_variable cv;
        /** Signals mailbox space to submitters blocked on the
         *  kMaxMailbox bound. */
        std::condition_variable space_cv;
        std::deque<Request> mailbox;
        bool stop = false;
        /** Submits that blocked on this mailbox's kMaxMailbox bound. */
        Counter backpressure_waits;
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
    void drainLoop();
    void deliver(Completion completion, Callback callback);
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
