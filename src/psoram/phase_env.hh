/**
 * @file
 * PhaseEnv: the shared-subsystem view the protocol phase components
 * operate on.
 *
 * The controller owns the stash, position maps, WPQ drainer, codec and
 * so on; the phases borrow them through this struct. Tests assemble a
 * PhaseEnv from stand-alone subsystems to exercise one phase in
 * isolation — no controller required.
 *
 * Everything here is a non-owning reference/pointer; the env must not
 * outlive the subsystems it points at.
 */

#ifndef PSORAM_PSORAM_PHASE_ENV_HH
#define PSORAM_PSORAM_PHASE_ENV_HH

#include <functional>

#include "common/random.hh"
#include "common/stats.hh"
#include "mem/backend.hh"
#include "oram/block.hh"
#include "oram/posmap.hh"
#include "oram/recursive_posmap.hh"
#include "oram/stash.hh"
#include "oram/tree.hh"
#include "psoram/crash.hh"
#include "psoram/drainer.hh"
#include "psoram/params.hh"
#include "psoram/shadow_stash.hh"
#include "psoram/temp_posmap.hh"

namespace psoram {

class NvmDevice;

/** Protocol statistics the phases maintain (owned by the controller). */
struct ProtocolCounters
{
    Counter stash_hits;
    Counter backups;
    Counter stale_dropped;
    Counter forced_merges;
    Counter unplaced_carried;

    /** Plain-value copy for merged per-shard reporting. Counters are
     *  relaxed-atomic, so this is safe while the owning shard's worker
     *  is running. */
    struct Snapshot
    {
        std::uint64_t stash_hits = 0;
        std::uint64_t backups = 0;
        std::uint64_t stale_dropped = 0;
        std::uint64_t forced_merges = 0;
        std::uint64_t unplaced_carried = 0;
    };

    Snapshot
    snapshot() const
    {
        return Snapshot{stash_hits.value(), backups.value(),
                        stale_dropped.value(), forced_merges.value(),
                        unplaced_carried.value()};
    }
};

struct PhaseEnv
{
    /** @{ Configuration and geometry. */
    const PsOramParams &params;
    const TreeGeometry &geo;
    /** @} */

    /** @{ Shared machinery. */
    MemoryBackend &device;
    BlockCodec &codec;
    Rng &rng;
    Stash &stash;
    TempPosMap &temp;
    PosMap &volatile_posmap;
    PersistentPosMap &persistent_posmap;
    ProtocolCounters &counters;
    /** @} */

    /** @{ Optional subsystems (design dependent; may be null). */
    PosMapTreeLevel *pom = nullptr;
    ShadowStashRegion *shadow_data = nullptr;
    ShadowStashRegion *shadow_pom = nullptr;
    PersistentPosMap *pom_pos_region = nullptr;
    Drainer *drainer = nullptr;
    /** On-chip NVM buffer (FullNVM designs). */
    NvmDevice *onchip = nullptr;
    /** @} */

    /** @{ Controller callbacks (empty-safe). */
    std::function<void(CrashSite)> maybe_crash;
    /** Points at the controller's observer slot so setCommitObserver()
     *  takes effect without rebuilding the env. */
    const CommitObserver *commit_observer = nullptr;
    /** @} */

    /** Rotating line offset for the on-chip buffer's bank spread. */
    Cycle onchip_clock_skew = 0;

    /** Authenticated-record layer (oram/integrity.hh); the loader
     *  verifies and the evictor seals through it when set. Assigned
     *  after construction. */
    class IntegrityManager *integrity = nullptr;

    /** @{ Design predicates. */
    bool persistent() const
    {
        return params.design.persist != PersistMode::None;
    }
    bool recursive() const { return params.design.recursive_posmap; }
    bool usesBackups() const { return persistent() && !recursive(); }
    /** @} */

    void
    crashCheck(CrashSite site) const
    {
        if (maybe_crash)
            maybe_crash(site);
    }

    void
    notifyCommit(BlockAddr addr,
                 const std::array<std::uint8_t, kBlockDataBytes> &data)
        const
    {
        if (commit_observer && *commit_observer)
            (*commit_observer)(addr, data);
    }

    /** Committed (persistent) position of @p addr. */
    PathId committedPath(BlockAddr addr) const;

    /** @{ On-chip NVM buffer timing (no-ops without a buffer). */
    Cycle onChipRead(Cycle earliest);
    Cycle onChipWrite(Cycle earliest);
    /** @} */
};

} // namespace psoram

#endif // PSORAM_PSORAM_PHASE_ENV_HH
