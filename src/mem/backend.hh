/**
 * @file
 * Storage backend abstraction: the seam between the ORAM protocol stack
 * and the store beneath it.
 *
 * Controllers, WPQs, PosMap regions and shadow stashes all talk to this
 * interface. A backend stores bytes and knows which writes are durable
 * protocol points; nothing else:
 *
 *   - reads: readBytes, and readv for a whole path in one call; a
 *     never-written line reads as zero;
 *   - writes: one verb, writev, whose Durability says whether each
 *     span is an enumerable persist point (Noisy: a WPQ drain entry or
 *     a direct write, §4.2 step 5) or a write outside the protocol
 *     sequence (Quiet: streamed Merkle nodes, flight-recorder appends,
 *     tamper injection). writeBytes is the one-span form;
 *   - durability: sync makes every noisy write so far durable (a
 *     no-op where writes are durable at once), persistBarrier makes
 *     quiet writes durable too, and dropVolatile models losing RAM at
 *     a power failure;
 *   - a snapshot/restore image for the crash-injection framework.
 *
 * Timing is not a backend concern: each backend carries one NvmTiming
 * (nvm/timing.hh), and callers schedule the line transfers of the
 * traffic they move through timing() directly.
 *
 * Contract for writev: the same bytes land in span order, and a Noisy
 * call reports exactly one persist boundary per span, before that span
 * applies (the crash-point enumeration keeps per-entry granularity).
 * NvmDevice applies span by span; PagedDiskBackend reports all of a
 * call's span boundaries before sealing the call into one log record,
 * its durability atom. A Quiet call reports none.
 *
 * Implementations: NvmDevice (in-memory, the default and the model the
 * golden digests pin) and PagedDiskBackend (the tree in a real file
 * behind a page cache; with a cache at least as large as the tree it is
 * the in-core, file-backed case).
 */

#ifndef PSORAM_MEM_BACKEND_HH
#define PSORAM_MEM_BACKEND_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "nvm/timing.hh"

namespace psoram {

class FaultInjector;
class FlightRecorder;

/** One 64-byte backend line. */
using NvmLine = std::array<std::uint8_t, kBlockDataBytes>;

/** Sparse functional contents: line address -> line bytes. */
using MemoryImage = std::unordered_map<Addr, NvmLine>;

/**
 * One contiguous destination range of a vectored read: fill
 * @c data[0..len) from backend bytes starting at @c addr.
 */
struct ReadSpan
{
    Addr addr = 0;
    std::uint8_t *data = nullptr;
    std::size_t len = 0;
};

/** One contiguous source range of a vectored write. */
struct WriteSpan
{
    Addr addr = 0;
    const std::uint8_t *data = nullptr;
    std::size_t len = 0;
};

/** Whether a write is an enumerable persist point. */
enum class Durability
{
    /** Each span reports a DrainWrite/DirectWrite persist boundary. */
    Noisy,
    /** No boundary: bytes outside the protocol sequence, which
     *  recovery rebuilds or never orders against tree traffic. */
    Quiet,
};

class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;
    MemoryBackend(const MemoryBackend &) = delete;
    MemoryBackend &operator=(const MemoryBackend &) = delete;

    /** Functional read (no timing). Reads of unwritten lines are 0. */
    virtual void readBytes(Addr addr, std::uint8_t *out,
                           std::size_t len) const = 0;

    /**
     * Vectored read: PathLoader issues exactly one per path load, on
     * every design, with one span per slot (the whole authenticated
     * record when integrity is on). The default forwards span by span
     * to readBytes; backends with a per-call cost (disk) batch it.
     */
    virtual void
    readv(const ReadSpan *spans, std::size_t n) const
    {
        for (std::size_t i = 0; i < n; ++i)
            readBytes(spans[i].addr, spans[i].data, spans[i].len);
    }

    /** The one write verb (see the file comment for its contract). */
    virtual void writev(const WriteSpan *spans, std::size_t n,
                        Durability durability) = 0;

    /** @{ Convenience forms of readv/writev. */
    void
    readv(const std::vector<ReadSpan> &spans) const
    {
        readv(spans.data(), spans.size());
    }
    void
    writev(const std::vector<WriteSpan> &spans,
           Durability durability = Durability::Noisy)
    {
        writev(spans.data(), spans.size(), durability);
    }
    void
    writeBytes(Addr addr, const std::uint8_t *in, std::size_t len,
               Durability durability = Durability::Noisy)
    {
        const WriteSpan span{addr, in, len};
        writev(&span, 1, durability);
    }
    /** @} */

    /**
     * Durability point for noisy writes. In-memory backends store
     * every write durably at once and have nothing to do; a backend
     * that logs writes first (PagedDiskBackend) syncs its log tail
     * here. Callers that batch accesses (group commit) call it once
     * per batch and only then report the batch durable.
     *
     * @return whether anything was pending (an unsynced tail existed)
     */
    virtual bool sync() { return false; }

    /**
     * Whether noisy writes are waiting for sync() to become durable.
     * Never true on a backend whose writes are durable at once, so
     * callers can defer acknowledgements on exactly this property.
     */
    bool
    holdsUnsyncedTail() const
    {
        return unsynced_tail_.load();
    }

    /**
     * Durability barrier for *quiet* writes. In-memory backends need
     * nothing here; a write-back backend (PagedDiskBackend) takes a
     * checkpoint: its dirty page cache reaches the file, which is
     * fsynced. Never reports persist boundaries.
     */
    virtual void persistBarrier() {}

    /**
     * Crash model hook: discard any *volatile* state the backend holds
     * in front of its durable medium (e.g. a RAM page cache and an
     * unsynced log tail), then bring the medium back up as a reboot
     * would (PagedDiskBackend replays its durable log). The crash
     * framework calls this at the simulated power-failure point, after
     * the ADR flush, so recovery reads observe only what had
     * physically reached the medium. In-memory backends, whose whole
     * store models durable NVM, lose nothing.
     */
    virtual void dropVolatile() {}

    /** Zero the timing counters and any backend-specific statistics. */
    virtual void resetStats() { timing_.resetStats(); }

    /**
     * @{ Snapshot / restore of the functional contents; the
     * crash-injection framework uses this to model "persistent state
     * survives, volatile state is lost". The image is materialized on
     * demand (backends are free to store contents in a different
     * layout internally); all-zero lines may be elided.
     */
    virtual MemoryImage image() const = 0;
    virtual void restoreImage(const MemoryImage &img) = 0;
    /** @} */

    /** @{ The channel/bank model that times this store's traffic. */
    NvmTiming &timing() { return timing_; }
    const NvmTiming &timing() const { return timing_; }
    /** @} */

    /** Addressable capacity in bytes (bounds checking only). */
    std::uint64_t capacity() const { return capacity_; }

    /**
     * @{ Fault injection (nvm/fault_injector.hh). When set, the backend
     * reports every noisy span as a persist boundary so the crash-point
     * enumerator can abort execution at any of them. Null (the default)
     * costs one branch per write.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        fault_injector_ = injector;
    }
    FaultInjector *faultInjector() const { return fault_injector_; }
    /** @} */

    /**
     * @{ Flight recorder (nvm/flight_recorder.hh). When set, a backend
     * with a write-back cache (PagedDiskBackend) stamps a Checkpoint
     * marker at every persistBarrier. Non-owning; the owner must
     * outlive the backend's last write (sim::System orders its members
     * so).
     */
    void setFlightRecorder(FlightRecorder *recorder)
    {
        flight_recorder_ = recorder;
    }
    /** @} */

  protected:
    MemoryBackend(NvmTiming timing, std::uint64_t capacity_bytes)
        : timing_(std::move(timing)), capacity_(capacity_bytes)
    {
    }

    FaultInjector *fault_injector_ = nullptr;
    FlightRecorder *flight_recorder_ = nullptr;
    /** Set by a logging backend while holdsUnsyncedTail() is true. */
    mutable std::atomic<bool> unsynced_tail_{false};

  private:
    NvmTiming timing_;
    std::uint64_t capacity_;
};

} // namespace psoram

#endif // PSORAM_MEM_BACKEND_HH
