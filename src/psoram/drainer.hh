/**
 * @file
 * Drainer: the PS-ORAM controller component that moves eviction data and
 * metadata into the WPQ pair and issues the atomic start/end signals
 * (paper §4.1, Figure 4).
 *
 * When an eviction produces more entries than one WPQ round can hold
 * (the limited-persistence-domain configuration, §4.2.3), the drainer
 * splits it into multiple rounds under two ordering rules that keep any
 * committed prefix of rounds recoverable:
 *
 *  1. Data writes are safe in any order: PS-ORAM's safe-placement
 *     eviction only ever overwrites dummy slots, stale copies, or the
 *     same block (identity rewrite) — the §4.2.3 write-order requirement
 *     holds by construction (see DESIGN.md).
 *  2. A PosMap entry (a -> l') may not commit *before* the round that
 *     writes block a to path l'; committing it later is safe (recovery
 *     then finds a's backup under the old mapping — the access aborts
 *     atomically).
 */

#ifndef PSORAM_PSORAM_DRAINER_HH
#define PSORAM_PSORAM_DRAINER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "nvm/adr_domain.hh"
#include "psoram/crash.hh"

namespace psoram {

/** A metadata write with its ordering constraint. */
struct PosmapWrite
{
    WpqEntry entry;
    /**
     * The entry may only enter a round once the first @p after_data
     * data writes have been committed (0 = unconstrained).
     */
    std::size_t after_data = 0;
};

/** A fully assembled eviction: everything that must persist atomically. */
struct EvictionBundle
{
    std::vector<WpqEntry> data_writes;
    /** Must be sorted by after_data (the controller emits them so). */
    std::vector<PosmapWrite> posmap_writes;
};

/** Hook invoked between rounds / around commit, for crash injection. */
using DrainCrashHook = std::function<void(CrashSite)>;

/**
 * Per-round finalizer: invoked once per WPQ round after every entry of
 * the round is staged and immediately before the "end" commit. It
 * receives the data entries of exactly this round and returns one
 * extra entry pushed last into the PosMap WPQ — inside the same ADR
 * bracket, so it commits atomically with the round it covers. The
 * integrity subsystem uses this for its per-round root record
 * (oram/integrity.hh). When set, persist() reserves one PosMap slot
 * per round for the returned entry.
 */
using RoundFinalizer =
    std::function<WpqEntry(const WpqEntry *round_data, std::size_t n)>;

class Drainer
{
  public:
    /**
     * @param data_capacity data-block WPQ entries per round
     * @param posmap_capacity PosMap WPQ entries per round
     */
    Drainer(std::size_t data_capacity, std::size_t posmap_capacity);

    /**
     * Persist @p bundle: split into WPQ-sized rounds, each bracketed by
     * start/end and drained to @p device.
     *
     * @param hook crash-injection callback (may throw CrashEvent)
     * @param earliest cycle the first round may begin draining
     * @return completion cycle of the last drain
     */
    Cycle persist(const EvictionBundle &bundle, MemoryBackend &device,
                  Cycle earliest, const DrainCrashHook &hook);

    AdrDomain &domain() { return adr_; }
    const AdrDomain &domain() const { return adr_; }

    /**
     * Append a finalizer entry to every round (see RoundFinalizer).
     * @pre the PosMap WPQ capacity is at least 2 (one slot is reserved)
     */
    void setRoundFinalizer(RoundFinalizer finalizer)
    {
        finalizer_ = std::move(finalizer);
    }

    std::uint64_t roundsIssued() const { return rounds_.value(); }
    std::uint64_t entriesPersisted() const { return entries_.value(); }
    std::uint64_t splitEvictions() const { return splits_.value(); }

    /**
     * Black-box the round brackets: when set, persist() appends a
     * RoundStart/RoundCommit record per WPQ round and a DrainWatermark
     * after each drain, as quiet writes to @p sink (the device the
     * controller drains through). Null detaches.
     */
    void setFlightRecorder(FlightRecorder *recorder, MemoryBackend *sink)
    {
        flight_ = recorder;
        flight_sink_ = recorder ? sink : nullptr;
    }

  private:
    AdrDomain adr_;
    RoundFinalizer finalizer_;
    FlightRecorder *flight_ = nullptr;
    MemoryBackend *flight_sink_ = nullptr;
    Counter rounds_;
    Counter entries_;
    Counter splits_;
};

} // namespace psoram

#endif // PSORAM_PSORAM_DRAINER_HH
