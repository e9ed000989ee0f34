/**
 * @file
 * Storage backend abstraction: the seam between the ORAM protocol stack
 * and the concrete memory model beneath it.
 *
 * Every component that used to hold a concrete NvmDevice reference —
 * controllers, WPQs, PosMap regions, shadow stashes — talks to this
 * interface instead. A backend provides three facets:
 *
 *   - a *functional* byte store (readBytes/writeBytes), sparse with
 *     zero-fill semantics for never-written lines;
 *   - *vectored* batch variants (readv/writev/writevQuiet) taking a
 *     span list, so a whole ORAM path or WPQ round crosses the seam as
 *     ONE operation — the unit a disk pread/pwrite batch or a future
 *     RPC round trip can be amortized over;
 *   - a *timing* model (access/accessOne) that schedules line transfers
 *     and returns completion cycles;
 *   - *observability*: traffic counters, wear statistics, and a
 *     snapshot/restore image used by the crash-injection framework.
 *
 * The vectored defaults forward span-by-span to the scalar ops, which
 * pins two invariants for backends that do not override them: the
 * functional byte sequence (and hence the golden traffic digests) is
 * identical to issuing the scalar calls one by one, and every span of a
 * noisy writev reports exactly one persist boundary in span order, so
 * the crash-point enumeration is unchanged.
 *
 * Implementations: NvmDevice (in-memory channel/bank model, the
 * default; keeps the scalar-forwarding defaults), FileBackedNvm (same
 * model, image persisted to disk across process restarts), and
 * PagedDiskBackend (out-of-core page-cached tree on a real file, with
 * genuinely batched vectored IO).
 */

#ifndef PSORAM_MEM_BACKEND_HH
#define PSORAM_MEM_BACKEND_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

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

class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /** @{ Functional access (no timing). Reads of unwritten lines are 0. */
    virtual void readBytes(Addr addr, std::uint8_t *out,
                           std::size_t len) const = 0;
    virtual void writeBytes(Addr addr, const std::uint8_t *in,
                            std::size_t len) = 0;
    /** @} */

    /**
     * Functional write that does NOT report a persist boundary: bytes
     * outside the enumerable protocol sequence, which recovery either
     * rebuilds (lazily streamed Merkle nodes) or never orders against
     * tree traffic. The flight recorder appends through it to a side
     * region that never aliases protocol addresses, and image
     * checkpoints use it for bulk loads. Default: forwards to
     * writeBytes (backends without an injector behave identically
     * either way).
     */
    virtual void
    writeBytesQuiet(Addr addr, const std::uint8_t *in, std::size_t len)
    {
        writeBytes(addr, in, len);
    }

    /**
     * @{ Vectored batch access: one call carries a whole path load or
     * WPQ round across the seam. The defaults forward
     * span-by-span to the scalar virtual ops, which makes them
     * *contractually equivalent* to a loop of scalar calls: the same
     * bytes move in the same order, and a noisy writev reports exactly
     * one persist boundary per span (the span is the durability atom —
     * a WPQ entry or an eviction slot — not the whole batch, so the
     * crash-point enumeration keeps per-entry granularity). Backends
     * with expensive per-call costs (disk seeks, RPC round trips)
     * override these to batch the physical IO; they must preserve both
     * properties. Timing stays a caller concern: callers schedule the
     * constituent line transfers through access/accessOne exactly as
     * they did around scalar calls.
     */
    virtual void
    readv(const ReadSpan *spans, std::size_t n) const
    {
        for (std::size_t i = 0; i < n; ++i)
            readBytes(spans[i].addr, spans[i].data, spans[i].len);
    }

    virtual void
    writev(const WriteSpan *spans, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            writeBytes(spans[i].addr, spans[i].data, spans[i].len);
    }

    virtual void
    writevQuiet(const WriteSpan *spans, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            writeBytesQuiet(spans[i].addr, spans[i].data, spans[i].len);
    }

    void
    readv(const std::vector<ReadSpan> &spans) const
    {
        readv(spans.data(), spans.size());
    }
    void
    writev(const std::vector<WriteSpan> &spans)
    {
        writev(spans.data(), spans.size());
    }
    void
    writevQuiet(const std::vector<WriteSpan> &spans)
    {
        writevQuiet(spans.data(), spans.size());
    }
    /** @} */

    /**
     * Durability barrier for *quiet* writes. In-memory backends need
     * nothing here; a write-back backend (PagedDiskBackend) flushes its
     * dirty page cache and fsyncs so the physical medium catches up.
     * Never reports persist boundaries: quiet writes are outside the
     * enumerable protocol sequence.
     */
    virtual void persistBarrier() {}

    /**
     * Crash model hook: discard any *volatile* state the backend holds
     * in front of its durable medium (e.g. a RAM page cache). The crash
     * framework calls this at the simulated power-failure point, before
     * the ADR flush replays in-flight WPQ entries, so recovery reads
     * observe only what had physically reached the medium. In-memory
     * backends, whose whole store models durable NVM, lose nothing.
     */
    virtual void dropVolatile() {}

    /**
     * Timing-only access: schedule @p len bytes starting at @p addr as
     * 64-byte line transfers.
     *
     * @param earliest cycle the request arrives at the memory controller
     * @return completion cycle of the last line transfer
     */
    virtual Cycle access(Addr addr, std::size_t len, bool is_write,
                         Cycle earliest) = 0;

    /**
     * Timing-only access of exactly one transaction (one burst) at the
     * line containing @p addr.
     */
    virtual Cycle accessOne(Addr addr, bool is_write, Cycle earliest) = 0;

    /** @{ Functional + timing in one call. */
    Cycle
    readTimed(Addr addr, std::uint8_t *out, std::size_t len,
              Cycle earliest)
    {
        readBytes(addr, out, len);
        return access(addr, len, false, earliest);
    }
    Cycle
    writeTimed(Addr addr, const std::uint8_t *in, std::size_t len,
               Cycle earliest)
    {
        writeBytes(addr, in, len);
        return access(addr, len, true, earliest);
    }
    /** @} */

    /** Addressable capacity in bytes (bounds checking only). */
    virtual std::uint64_t capacity() const = 0;

    /** @{ Aggregate traffic statistics. */
    virtual std::uint64_t totalReads() const = 0;
    virtual std::uint64_t totalWrites() const = 0;
    /** @} */

    /** @{ Wear statistics (NVM lifetime proxy). */
    virtual std::uint64_t distinctLinesWritten() const = 0;
    virtual std::uint64_t maxLineWrites() const = 0;
    virtual double meanLineWrites() const = 0;
    /** @} */

    virtual void resetStats() = 0;

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

    /**
     * @{ Fault injection (nvm/fault_injector.hh). When set, the backend
     * reports every functional write as a persist boundary so the
     * crash-point enumerator can abort execution at any of them. Null
     * (the default) costs one branch per write.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        fault_injector_ = injector;
    }
    FaultInjector *faultInjector() const { return fault_injector_; }
    /** @} */

    /**
     * @{ Flight recorder (nvm/flight_recorder.hh). When set, backends
     * with a checkpoint notion (FileBackedNvm) stamp a black-box marker
     * per image persist. Non-owning; the owner must outlive the
     * backend's last write (sim::System orders its members so).
     */
    void setFlightRecorder(FlightRecorder *recorder)
    {
        flight_recorder_ = recorder;
    }
    FlightRecorder *flightRecorder() const { return flight_recorder_; }
    /** @} */

  protected:
    FaultInjector *fault_injector_ = nullptr;
    FlightRecorder *flight_recorder_ = nullptr;
};

} // namespace psoram

#endif // PSORAM_MEM_BACKEND_HH
