/**
 * @file
 * Persistent flight recorder ("black box"): a small fixed-size ring of
 * CRC-stamped operational event records living in a reserved region of
 * the NVM address space, so a crash postmortem can see what the dying
 * run was doing at the persist boundary that killed it.
 *
 * What gets recorded — and why it is oblivious to record it — is
 * strictly limited to events the untrusted memory already observes as
 * NVM traffic shape: ADR round brackets (round ids), drain watermarks
 * and write-back checkpoint markers. No
 * block addresses, leaf labels, stash contents or payload bytes ever
 * enter a record; the recorder adds a constant-size append per event
 * that is independent of the access pattern (pinned by the
 * transparency differential in tests/test_recovery_obs.cc).
 *
 * Durability model: records are appended through quiet writev into a
 * reserved side region that never aliases protocol traffic, so the
 * recorder adds **zero** enumerable persist boundaries and cannot
 * perturb the crash-point population. The price is that the tail
 * record may be torn by a crash mid-append; decode() tolerates that by
 * CRC-checking every slot and skipping (while counting) corrupt ones.
 *
 * Ring layout (all little-endian, one 64-byte header + N 64-byte
 * records — record size matches the backend line size so one record is
 * one line write):
 *
 *   header:  u64 magic "PSFR0001" | u32 num_records | u32 record_bytes
 *   record:  u32 crc | u32 kind | u64 seq | u64 host_ns
 *            | u64 arg0 | u64 arg1 | u64 arg2  (zero-padded to 64)
 *
 * crc covers bytes [4, 48) — everything meaningful after the stamp.
 * Slot for seq s is s % num_records; the live tail is the maximum
 * valid seq. An all-zero slot is "never written" (backends zero-fill).
 */

#ifndef PSORAM_NVM_FLIGHT_RECORDER_HH
#define PSORAM_NVM_FLIGHT_RECORDER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mem/backend.hh"

namespace psoram {

/** Operational event kinds a backend's black box can hold. */
enum class FlightEventKind : std::uint16_t
{
    /** ADR bracket opened: arg0 = round id. */
    RoundStart = 1,
    /** ADR bracket committed: arg0 = round id, arg1 = data entries,
     *  arg2 = posmap entries. */
    RoundCommit = 2,
    /** Synchronous WPQ drain finished: arg0 = round id,
     *  arg1 = entries drained (the durable watermark). */
    DrainWatermark = 3,
    /* 4 was a write-behind retirement batch; the value stays
     * reserved so rings written by older builds decode unchanged. */
    /** Backend write-back checkpoint (PagedDiskBackend::persistBarrier),
     *  stamped before the flush. No arguments. */
    Checkpoint = 5,
    /** Recovery began: arg0 = prior events decoded,
     *  arg1 = torn records skipped. */
    RecoveryStart = 6,
    /** Recovery finished: arg0 = redelivered WPQ entries,
     *  arg1 = records verified, arg2 = nodes repaired. */
    RecoveryDone = 7,
};

const char *flightEventKindName(FlightEventKind kind);

/** One decoded black-box event. */
struct FlightEvent
{
    std::uint64_t seq = 0;
    std::uint64_t host_ns = 0;
    FlightEventKind kind = FlightEventKind::RoundStart;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint64_t arg2 = 0;
};

class FlightRecorder
{
  public:
    static constexpr std::uint64_t kMagic = 0x3130303052465350ULL; // "PSFR0001"
    static constexpr std::size_t kHeaderBytes = 64;
    static constexpr std::size_t kRecordBytes = 64;
    /** Default ring capacity (events); ~4 KiB + header per backend. */
    static constexpr std::size_t kDefaultRecords = 64;
    /** Byte offset the record CRC covers up to. */
    static constexpr std::size_t kCrcCoverBytes = 48;

    /** Reserved-region footprint for a ring of @p num_records. */
    static constexpr std::size_t
    regionBytes(std::size_t num_records)
    {
        return kHeaderBytes + num_records * kRecordBytes;
    }

    FlightRecorder(Addr base, std::size_t num_records);

    /**
     * Bind to @p device: decode whatever the region already holds (a
     * reopen finds the previous run's ring) and resume the sequence
     * counter past its tail; a virgin or unrecognizable region gets a
     * fresh header and a zeroed ring. Call once before record().
     */
    void attach(MemoryBackend &device);

    /**
     * Append one event. Thread-safe; the append is a single quiet
     * line write.
     */
    void record(MemoryBackend &device, FlightEventKind kind,
                std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
                std::uint64_t arg2 = 0);

    /** decode() result: surviving events plus degradation counters. */
    struct Decoded
    {
        /** Valid events, sequence-ascending (oldest surviving first). */
        std::vector<FlightEvent> events;
        /** Non-empty slots whose CRC failed (torn tail, scribbles). */
        std::uint64_t torn_records = 0;
        /** Header magic/geometry recognized. */
        bool header_valid = false;

        /** The decoded tail event, or null when the ring is empty. */
        const FlightEvent *tail() const
        {
            return events.empty() ? nullptr : &events.back();
        }
    };

    /** Read-only decode of the ring at @p base on @p device. */
    static Decoded decode(const MemoryBackend &device, Addr base,
                          std::size_t num_records);
    Decoded decode(const MemoryBackend &device) const
    {
        return decode(device, base_, num_records_);
    }

    /** Human-readable multi-line dump (failure reports, artifacts). */
    static std::string format(const Decoded &decoded);

    Addr base() const { return base_; }
    std::size_t numRecords() const { return num_records_; }
    std::uint64_t nextSeq() const;

  private:
    Addr base_;
    std::size_t num_records_;
    mutable std::mutex mutex_;
    std::uint64_t next_seq_ = 0;
};

} // namespace psoram

#endif // PSORAM_NVM_FLIGHT_RECORDER_HH
