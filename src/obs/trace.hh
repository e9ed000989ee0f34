/**
 * @file
 * Low-overhead tracing layer emitting Chrome trace_event JSON.
 *
 * One process-wide TraceRecorder owns a registry of per-thread ring
 * buffers; threads append events lock-light (one uncontended per-buffer
 * mutex acquisition per event, taken only so a concurrent snapshot /
 * JSON dump is race-free), and the buffers survive thread exit so a
 * worker pool's tracks are still present when the trace is written.
 *
 * Overhead contract:
 *  - tracing *disabled* (the default): every instrumentation site is a
 *    single relaxed atomic load — no clock read, no allocation, no lock.
 *  - tracing *enabled*: one steady_clock read per instant event, two per
 *    scope, plus the ring append. Rings are fixed-capacity and overwrite
 *    the oldest events (dropped counts are reported), so a run can never
 *    grow without bound.
 *  - compiled out entirely with -DPSORAM_TRACE_DISABLED (the macros
 *    below expand to nothing).
 *
 * The emitted file is the Chrome trace-event JSON object format
 * ({"traceEvents": [...]}); open it at https://ui.perfetto.dev or
 * chrome://tracing. Each registered thread is one track, named via
 * setThreadName() ("shard3.worker", "completions.drain", ...). Duration
 * events are complete events (ph "X"); correlation ids (the engine's
 * request ids) ride in args.id so one access can be followed from the
 * submitting thread through its shard worker's phase events.
 *
 * Event name/category strings must be string literals (or otherwise
 * outlive the recorder): events store the pointers, not copies.
 */

#ifndef PSORAM_OBS_TRACE_HH
#define PSORAM_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace psoram::obs {

/** One recorded event (complete or instant). */
struct TraceEvent
{
    const char *name = nullptr;
    const char *category = nullptr;
    /** 'X' = complete (ts + dur), 'i' = instant. */
    char phase = 'i';
    /** Nanoseconds since the recorder epoch (enable() / clear()). */
    std::uint64_t ts_ns = 0;
    /** Complete events only. */
    std::uint64_t dur_ns = 0;
    /** Recorder-assigned track id of the emitting thread. */
    std::uint32_t tid = 0;
    /** Correlation id (args.id); 0 = none. */
    std::uint64_t id = 0;
    /** Optional extra numeric argument (args.<arg_name>). */
    const char *arg_name = nullptr;
    std::int64_t arg = 0;
};

/** Host monotonic clock, nanoseconds (no recorder dependency). */
inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class TraceRecorder
{
  public:
    static constexpr std::size_t kDefaultRingCapacity = 1u << 16;

    /** The process-wide recorder (never destroyed). */
    static TraceRecorder &instance();

    /** Cheapest possible site check: one relaxed atomic load. */
    static bool
    enabled()
    {
        return enabled_flag_.load(std::memory_order_relaxed);
    }

    /** Start recording; resets the epoch and drops prior events.
     *  @p ring_capacity is events retained *per thread*. */
    void enable(std::size_t ring_capacity = kDefaultRingCapacity);

    /** Stop recording; buffered events remain snapshottable. */
    void disable();

    /** Drop every recorded event and restart the epoch (enabled state
     *  is unchanged). Safe while other threads record. */
    void clear();

    /** Name the calling thread's track (idempotent; works before
     *  enable(), so worker threads can name themselves at startup). */
    static void setThreadName(const std::string &name);

    /** @{ Event emission (no-ops while disabled). */
    static void instant(const char *category, const char *name,
                        std::uint64_t id = 0,
                        const char *arg_name = nullptr,
                        std::int64_t arg = 0);
    /** Record a complete event spanning [start_ns, now]. */
    static void complete(const char *category, const char *name,
                         std::uint64_t start_ns, std::uint64_t id = 0,
                         const char *arg_name = nullptr,
                         std::int64_t arg = 0);
    /** @} */

    /** Nanoseconds since the recorder epoch. */
    static std::uint64_t nowNs();

    /** All buffered events, merged across threads, sorted by ts. */
    std::vector<TraceEvent> snapshot() const;

    /** (tid, name) for every thread that named its track. */
    std::vector<std::pair<std::uint32_t, std::string>>
    threadNames() const;

    /** Events lost to ring overwrites since the last clear(). */
    std::uint64_t droppedEvents() const;

    /** Write {"traceEvents": [...]} Chrome trace JSON.
     *  @return false (with a warning on stderr) on I/O failure */
    bool writeTo(const std::string &path) const;

  private:
    struct ThreadBuffer
    {
        mutable std::mutex mutex;
        std::uint32_t tid = 0;
        std::string name;
        /** Ring storage (allocated lazily on the first event). */
        std::vector<TraceEvent> ring;
        std::size_t head = 0;      ///< next overwrite position
        std::uint64_t recorded = 0; ///< events ever pushed
    };

    TraceRecorder() = default;

    ThreadBuffer &threadBuffer();
    void push(const TraceEvent &event);

    static inline std::atomic<bool> enabled_flag_{false};
    /** Cache of the calling thread's buffer; the buffer is owned by
     *  (and lives as long as) the recorder, so it never dangles. */
    static thread_local ThreadBuffer *tls_buffer_;

    mutable std::mutex registry_mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    std::uint32_t next_tid_ = 1;
    std::atomic<std::size_t> ring_capacity_{kDefaultRingCapacity};
    std::atomic<std::uint64_t> epoch_ns_{0};
};

/** RAII duration event: records one complete event on destruction. */
class TraceScope
{
  public:
    TraceScope(const char *category, const char *name,
               std::uint64_t id = 0)
        : category_(category), name_(name), id_(id),
          start_ns_(TraceRecorder::enabled() ? TraceRecorder::nowNs()
                                             : kInactive)
    {
    }

    ~TraceScope()
    {
        if (start_ns_ != kInactive && TraceRecorder::enabled())
            TraceRecorder::complete(category_, name_, start_ns_, id_);
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    static constexpr std::uint64_t kInactive =
        ~static_cast<std::uint64_t>(0);

    const char *category_;
    const char *name_;
    std::uint64_t id_;
    std::uint64_t start_ns_;
};

} // namespace psoram::obs

#define PSORAM_OBS_CONCAT2(a, b) a##b
#define PSORAM_OBS_CONCAT(a, b) PSORAM_OBS_CONCAT2(a, b)

#ifndef PSORAM_TRACE_DISABLED
/** Duration event covering the enclosing scope. */
#define PSORAM_TRACE_SCOPE(category, name, id)                           \
    ::psoram::obs::TraceScope PSORAM_OBS_CONCAT(psoram_trace_scope_,     \
                                                __LINE__)(category,      \
                                                          name, id)
/** Zero-duration marker event. */
#define PSORAM_TRACE_INSTANT(category, name, id)                         \
    ::psoram::obs::TraceRecorder::instant(category, name, id)
/** Marker event with one extra numeric argument. */
#define PSORAM_TRACE_INSTANT_ARG(category, name, id, arg_name, arg)      \
    ::psoram::obs::TraceRecorder::instant(category, name, id, arg_name,  \
                                          arg)
#else
#define PSORAM_TRACE_SCOPE(category, name, id) ((void)0)
#define PSORAM_TRACE_INSTANT(category, name, id) ((void)0)
#define PSORAM_TRACE_INSTANT_ARG(category, name, id, arg_name, arg)      \
    ((void)0)
#endif

#endif // PSORAM_OBS_TRACE_HH
