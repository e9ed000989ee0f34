/**
 * @file
 * BatchScheduler: cross-request admission in front of ShardedOramEngine.
 *
 * The per-shard OramEngine already coalesces *back-to-back* same-block
 * requests inside one mailbox batch; this scheduler generalizes that to
 * requests that are merely *concurrent* — submitted by different
 * threads or interleaved with other keys:
 *
 *  - **Read dedup.** The first read of a key becomes the leader and is
 *    submitted to the engine; reads of the same key arriving while the
 *    leader is in flight attach as waiters and never reach the engine.
 *    One physical ORAM access fans out to N completions. Under Zipfian
 *    skew this converts hot-key contention from serialized shard work
 *    into coalesced hits.
 *
 *  - **Read-after-write forwarding.** A read of a key with an
 *    in-flight write is served immediately from the pending write's
 *    payload (the value the read would observe anyway, since the
 *    engine orders same-key requests per shard). These complete inline
 *    on the *submitting* thread.
 *
 * Obliviousness: dedup only elides *duplicate* accesses to one hidden
 * address, exactly like the engine's run coalescing — the adversary
 * observes fewer accesses, never which addresses were equal (the
 * engine's traffic remains a sequence of uniformly distributed path
 * reads). Forwarded reads generate no tree traffic at all.
 *
 * Threading: submit* may be called from any thread. Leader/write
 * completions fire on the engine's drain thread; deduped waiters fire
 * on the drain thread inside the leader's completion; forwarded reads
 * fire inline on the submitter. Callbacks must not call back into the
 * scheduler while drain() is waiting (same rule as the engine).
 */

#ifndef PSORAM_SERVE_BATCH_SCHEDULER_HH
#define PSORAM_SERVE_BATCH_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "sim/sharded_engine.hh"

namespace psoram::serve {

struct BatchSchedulerConfig
{
    /** Attach concurrent same-key reads to the in-flight leader. */
    bool dedupe_reads = true;
    /** Serve reads of a key with an in-flight write from its payload. */
    bool forward_writes = true;
};

class BatchScheduler
{
  public:
    using RequestId = std::uint64_t;
    using Config = BatchSchedulerConfig;

    /** Outcome of one scheduled key access. */
    struct Result
    {
        BlockAddr addr = kDummyBlockAddr;
        bool is_write = false;
        /** Served without its own engine submission (dedup attach or
         *  pending-write forward). */
        bool coalesced = false;
        std::array<std::uint8_t, kBlockDataBytes> data{};
    };

    using Callback = std::function<void(const Result &)>;

    BatchScheduler(ShardedOramEngine &engine, Config config = Config());

    BatchScheduler(const BatchScheduler &) = delete;
    BatchScheduler &operator=(const BatchScheduler &) = delete;

    /** @{ Admit one request; returns immediately (a forwarded read may
     *  invoke @p callback inline before returning). */
    void submitRead(BlockAddr addr, Callback callback);
    void submitWrite(BlockAddr addr, const std::uint8_t *data,
                     Callback callback = nullptr);
    /** @} */

    /** Block until everything admitted so far has completed (all
     *  fan-out callbacks included). */
    void drain();

    /** Scheduler counters (relaxed; safe to read mid-run). */
    struct Stats
    {
        Counter reads;          ///< reads admitted
        Counter writes;         ///< writes admitted
        Counter engine_reads;   ///< reads actually submitted (leaders)
        Counter deduped_reads;  ///< reads attached to an in-flight leader
        Counter forwarded_reads; ///< reads served from a pending write
    };
    const Stats &stats() const { return stats_; }

    /** Register the scheduler counters with @p group (metrics export). */
    void registerStats(StatGroup &group) const;

    const ShardedOramEngine &engine() const { return engine_; }

  private:
    /** A parked duplicate read awaiting the leader. */
    struct Waiter
    {
        Callback callback;
    };

    /** In-flight leader read state, keyed by address. */
    struct InflightRead
    {
        std::vector<Waiter> waiters;
    };

    /** Latest pending write payload, keyed by address. */
    struct PendingWrite
    {
        std::array<std::uint8_t, kBlockDataBytes> data;
        /** Submission sequence: only the completion of the *latest*
         *  write erases the entry (an older completion must not drop a
         *  newer payload). */
        std::uint64_t seq = 0;
    };

    void completeLeader(BlockAddr addr,
                        const ShardedOramEngine::Completion &inner,
                        Callback leader_callback);

    ShardedOramEngine &engine_;
    Config config_;
    Stats stats_;

    std::mutex mutex_;
    std::unordered_map<BlockAddr, InflightRead> inflight_reads_;
    std::unordered_map<BlockAddr, PendingWrite> pending_writes_;
    std::uint64_t write_seq_ = 0;
};

} // namespace psoram::serve

#endif // PSORAM_SERVE_BATCH_SCHEDULER_HH
