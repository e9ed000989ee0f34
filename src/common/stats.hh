/**
 * @file
 * Lightweight statistics framework in the spirit of gem5's Stats package.
 *
 * Components register named counters/distributions into a StatGroup;
 * the metrics exporter snapshots a group to JSON. A WindowLedger splits
 * one operation's time into adjacent windows (the per-access and the
 * per-recovery breakdowns).
 *
 * Thread-safety contract (sharded engine): every primitive here may be
 * written from one worker thread while being read from another (live
 * stats polling, merged per-shard reporting). Counter increments are
 * relaxed atomics — monotonic event counts need no ordering, only
 * tear-freedom. A Distribution mutates several fields per sample and
 * takes a per-object mutex; in the sharded engine each shard owns its
 * own instances, so the lock is uncontended on the hot path. Cross-shard
 * aggregation happens by *merging read-side snapshots*, never by sharing
 * one accumulator between workers.
 */

#ifndef PSORAM_COMMON_STATS_HH
#define PSORAM_COMMON_STATS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
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

/**
 * A named collection of statistics. Components own a StatGroup and
 * register members once at construction; the metrics exporter walks
 * registered entries to snapshot them. Registration and snapshots may
 * happen on different threads (engine workers vs. the reporting
 * thread).
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
 * Adjacent-window ledger: one operation's time split into N windows
 * that tile it, sampled as one Distribution per window plus a `total`
 * that is derived — the sum of the windows — so for every sampled
 * operation   window_0 + ... + window_{N-1} == total   by construction.
 *
 * An instance (PhaseLatencyStats, RecoveryStats) is a struct deriving
 * from WindowLedger<Self, N> that declares its windows, its `total` and
 * any stats carried alongside as named members, plus a `kLayout` table
 * naming them; sampling, merge, reset, registration and the window sum
 * are written here once.
 */
template <typename Self, std::size_t N>
class WindowLedger
{
  public:
    /** One operation's window values, in the instance's window order. */
    using Windows = std::array<std::uint64_t, N>;

    /**
     * The stamp path: boundary stamps of one operation on one clock
     * (host ns or simulated cycles). Each close() ends the running
     * window at @p now and opens the next, so the closed windows tile
     * [start, last stamp] with no gap and no overlap.
     */
    class Stamps
    {
      public:
        explicit Stamps(std::uint64_t start) : last_(start) {}

        /** Charge [previous stamp, @p now) to window @p w. */
        void
        close(std::size_t w, std::uint64_t now)
        {
            windows_[w] += now - last_;
            last_ = now;
        }

        /** Move @p amount (at most all of window @p from) to window
         *  @p to: a window nested inside another is reported apart. */
        void
        carve(std::size_t from, std::size_t to, std::uint64_t amount)
        {
            amount = std::min(amount, windows_[from]);
            windows_[from] -= amount;
            windows_[to] += amount;
        }

        const Windows &windows() const { return windows_; }

      private:
        Windows windows_{};
        std::uint64_t last_;
    };

    /** A member stat and the name/description it registers under. */
    template <typename Stat>
    struct Entry
    {
        Stat Self::*member;
        const char *name;
        const char *desc;
    };

    /** What an instance declares: its windows in sample order, the
     *  derived total, and stats merged, reset and registered with the
     *  windows but outside the identity. */
    struct Layout
    {
        std::array<Entry<Distribution>, N> windows;
        Entry<Distribution> total;
        std::span<const Entry<Distribution>> extra_dists;
        std::span<const Entry<Counter>> counters;
    };

    /** One operation: window i samples @p w[i], `total` their sum. */
    void sample(const Windows &w);

    /** Fold @p other in (read-side shard merge; safe mid-run). */
    void merge(const Self &other);

    void reset();

    /** Register every stat as "<prefix>.<name>". */
    void registerWith(StatGroup &group, const std::string &prefix) const;

    /** Sum over the window distributions' sample sums (== the sum of
     *  `total` up to floating-point association). */
    double phaseSum() const;

  private:
    Self &self() { return static_cast<Self &>(*this); }
    const Self &self() const { return static_cast<const Self &>(*this); }
};

/**
 * Per-phase access-latency breakdown for the five PS-ORAM protocol
 * phases (remap -> load -> backup -> evict -> drain), in whatever unit
 * the owner stamps (the controller keeps one ledger in host nanoseconds
 * and one in simulated NVM cycles). `evict` excludes the WPQ drain
 * nested inside it (carved out into `drain`). `stash_hit` tracks the
 * step-1 fast path and is outside the identity (stash hits never run
 * the phases).
 */
struct PhaseLatencyStats : WindowLedger<PhaseLatencyStats, 5>
{
    enum Window : std::size_t { Remap, Load, Backup, Evict, Drain };

    Distribution remap;    ///< step 2: PosMap access + label backup
    Distribution load;     ///< step 3: path load
    Distribution backup;   ///< step 4: stash update + data backup
    Distribution evict;    ///< step 5 minus the WPQ drain
    Distribution drain;    ///< WPQ rounds: start/push/commit/drain
    Distribution total;    ///< steps 2-5 end to end (full accesses)
    Distribution stash_hit; ///< step-1 fast path (not part of total)

    static const Layout kLayout;
};

/**
 * Per-phase recovery-latency breakdown for the crash-recovery pipeline
 * (RecoveryManager::recover + System::recoverController), in host
 * nanoseconds. Phases a recovery does not run (integrity off, ...)
 * sample 0. In time order the windows run adr_redeliver (the ADR
 * flush), wpq_replay (the device comes back up: a disk tree replays
 * its durable redo log — the WPQ rounds it logged — and checkpoints;
 * near zero on the memory backend), image_reload, posmap_rebuild,
 * integrity_verify, node_repair, and a tail charged to posmap_rebuild.
 */
struct RecoveryStats : WindowLedger<RecoveryStats, 6>
{
    enum Window : std::size_t {
        WpqReplay,
        AdrRedeliver,
        ImageReload,
        PosmapRebuild,
        IntegrityVerify,
        NodeRepair
    };

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

    static const Layout kLayout;
};
} // namespace psoram

#endif // PSORAM_COMMON_STATS_HH
