/**
 * @file
 * Lightweight statistics framework in the spirit of gem5's Stats package.
 *
 * Components register named counters/histograms into a StatGroup; the
 * experiment harness dumps a group recursively to produce the per-design
 * statistics that feed the table/figure benches.
 *
 * Thread-safety contract (sharded engine): every primitive here may be
 * written from one worker thread while being read from another (live
 * stats polling, merged per-shard reporting). Counter increments are
 * relaxed atomics — monotonic event counts need no ordering, only
 * tear-freedom. Distribution/Histogram mutate several fields per sample
 * and take a per-object mutex; in the sharded engine each shard owns its
 * own instances, so the lock is uncontended on the hot path. Cross-shard
 * aggregation happens by *merging read-side snapshots*, never by sharing
 * one accumulator between workers.
 */

#ifndef PSORAM_COMMON_STATS_HH
#define PSORAM_COMMON_STATS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace psoram {

/** Monotonic event counter (relaxed-atomic; safe to read mid-run). */
class Counter
{
  public:
    Counter() = default;

    /**
     * Copying is *snapshot-copy*: the destination receives the source's
     * value as of one relaxed load. That is tear-free (the whole 64-bit
     * value is read atomically) but not synchronized — increments racing
     * with the copy land on exactly one side, so two snapshot-copies of
     * a live counter may differ. Never use copy-assignment to "merge"
     * two live counters: it *replaces* the destination (use += with
     * value() snapshots for read-side shard merges).
     */
    Counter(const Counter &other) : value_(other.value()) {}
    Counter &
    operator=(const Counter &other)
    {
        value_.store(other.value(), std::memory_order_relaxed);
        return *this;
    }

    Counter &
    operator++()
    {
        value_.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }
    Counter &
    operator+=(std::uint64_t n)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
        return *this;
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Running scalar statistic (min / max / mean / count). */
class Distribution
{
  public:
    Distribution() = default;

    /** Snapshot-copy under *both* mutexes: the copy observes one
     *  consistent (count, sum, min, max) tuple — no torn merges even
     *  while the source is being sampled by another thread. (These are
     *  deliberately user-provided; an implicitly generated copy would
     *  bitwise-read the fields outside the mutex and tear.) */
    Distribution(const Distribution &other);
    Distribution &operator=(const Distribution &other);

    void sample(double v);
    void reset();

    std::uint64_t count() const;
    double mean() const;
    double min() const;
    double max() const;
    double sum() const;

    /** One consistent (count, sum, min, max) view under a single lock
     *  (metrics export; four separate getters could tear mid-run). */
    struct Snapshot
    {
        std::uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;

        double mean() const { return count ? sum / count : 0.0; }
    };
    Snapshot snapshot() const;

    /** Fold @p other's samples into this one (read-side shard merge). */
    void merge(const Distribution &other);

  private:
    mutable std::mutex mutex_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-bucket histogram over [0, buckets * bucketWidth). */
class Histogram
{
  public:
    Histogram(std::size_t num_buckets, double bucket_width);

    /** Snapshot-copy under the mutex (see Distribution): the bucket
     *  array, overflow and total are captured as one consistent view. */
    Histogram(const Histogram &other);
    Histogram &operator=(const Histogram &other);

    void sample(double v);
    void reset();

    std::uint64_t bucketCount(std::size_t i) const;
    std::size_t numBuckets() const;
    double bucketWidth() const { return width_; }
    std::uint64_t overflow() const;
    std::uint64_t total() const;

    /** Smallest value v such that fraction() of samples are <= v. */
    double percentile(double fraction) const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::uint64_t> buckets_;
    double width_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * A named collection of statistics. Components own a StatGroup and
 * register members once at construction; the harness walks registered
 * entries to dump them. Registration and dumping may happen on
 * different threads (engine workers vs. the reporting thread).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &name, const Counter *c,
                    const std::string &desc);
    void addDistribution(const std::string &name, const Distribution *d,
                         const std::string &desc);

    const std::string &name() const { return name_; }

    /** Dump "group.stat value # desc" lines, gem5 stats.txt style. */
    void dump(std::ostream &os) const;

    /** Look up a registered counter value by name; 0 if absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /**
     * Point-in-time value copy of every registered stat (the metrics
     * exporter's input). Safe while owners keep mutating: counters are
     * relaxed-atomic, distributions snapshot under their own mutex.
     */
    struct Snapshot
    {
        struct CounterValue
        {
            std::string name;
            std::uint64_t value = 0;
            std::string desc;
        };
        struct DistValue
        {
            std::string name;
            Distribution::Snapshot stats;
            std::string desc;
        };

        std::string name;
        std::vector<CounterValue> counters;
        std::vector<DistValue> dists;
    };
    Snapshot snapshot() const;

  private:
    struct CounterEntry { const Counter *counter; std::string desc; };
    struct DistEntry { const Distribution *dist; std::string desc; };

    std::string name_;
    mutable std::mutex mutex_;
    std::map<std::string, CounterEntry> counters_;
    std::map<std::string, DistEntry> dists_;
};

/**
 * Per-phase access-latency breakdown for the five PS-ORAM protocol
 * phases (remap -> load -> backup -> evict -> drain), in whatever unit
 * the owner samples (the controller keeps one group in host nanoseconds
 * and one in simulated NVM cycles).
 *
 * Invariant the owner maintains: the five phase windows are adjacent
 * and `evict` *excludes* the WPQ drain nested inside it, so for every
 * access   remap + load + backup + evict + drain == total   exactly.
 * `stash_hit` tracks the step-1 fast path and is outside that identity
 * (stash hits never run the phases).
 */
struct PhaseLatencyStats
{
    Distribution remap;    ///< step 2: PosMap access + label backup
    Distribution load;     ///< step 3: path load
    Distribution backup;   ///< step 4: stash update + data backup
    Distribution evict;    ///< step 5 minus the WPQ drain
    Distribution drain;    ///< WPQ rounds: start/push/commit/drain
    Distribution total;    ///< steps 2-5 end to end (full accesses)
    Distribution stash_hit; ///< step-1 fast path (not part of total)

    /** One access's phase windows, sampled under the sum identity. */
    void sampleAccess(double remap_v, double load_v, double backup_v,
                      double evict_v, double drain_v, double total_v);

    /** Fold @p other in (read-side shard merge; safe mid-run). */
    void merge(const PhaseLatencyStats &other);

    void reset();

    /** Register every distribution as "<prefix>.<phase>". */
    void registerWith(StatGroup &group, const std::string &prefix) const;

    /** Sum over the five phase distributions' sample sums (== the sum
     *  of `total` up to floating-point association). */
    double phaseSum() const;
};

/**
 * Per-phase recovery-latency breakdown for the crash-recovery pipeline
 * (RecoveryManager::recover + System::recoverController), in host
 * nanoseconds.
 *
 * Invariant the owner maintains: the six phase windows are adjacent
 * timestamp deltas over one recovery, so for every sampled recovery
 *   wpq_replay + adr_redeliver + image_reload + posmap_rebuild
 *     + integrity_verify + node_repair == total   exactly.
 * Phases a recovery does not run (integrity off, ...) sample 0 so the
 * identity still holds. In time order the windows run adr_redeliver
 * (the ADR flush), wpq_replay (the device comes back up: a disk tree
 * replays its durable redo log — the WPQ rounds it logged — and
 * checkpoints; near zero on the memory backend), then the rest.
 */
struct RecoveryStats
{
    Distribution wpq_replay;       ///< device log replay (disk)
    Distribution adr_redeliver;    ///< ADR crashFlush of in-flight WPQs
    Distribution image_reload;     ///< controller/device image rebuild
    Distribution posmap_rebuild;   ///< volatile PosMap/stash/shadow redo
    Distribution integrity_verify; ///< record re-verification scan
    Distribution node_repair;      ///< stale interior-node repair
    Distribution total;            ///< whole recovery, end to end

    Counter recoveries;          ///< recoveries sampled (success only)
    Counter redelivered_entries; ///< WPQ entries crashFlush redelivered
    Counter records_verified;    ///< integrity records that verified
    Counter records_refused;     ///< recoveries refused (IntegrityError)
    Counter nodes_repaired;      ///< interior nodes rewritten
    Counter blackbox_events;     ///< flight-recorder events decoded
    Counter blackbox_torn;       ///< flight-recorder records torn/bad

    /** One recovery's phase windows, sampled under the sum identity. */
    void sampleRecovery(double wpq_replay_v, double adr_redeliver_v,
                        double image_reload_v, double posmap_rebuild_v,
                        double integrity_verify_v, double node_repair_v,
                        double total_v);

    /** Fold @p other in (read-side shard merge; safe mid-run). */
    void merge(const RecoveryStats &other);

    void reset();

    /** Register every stat as "<prefix>.<name>". */
    void registerWith(StatGroup &group, const std::string &prefix) const;

    /** Sum over the six phase distributions' sample sums (== the sum
     *  of `total` up to floating-point association). */
    double phaseSum() const;
};

} // namespace psoram

#endif // PSORAM_COMMON_STATS_HH
