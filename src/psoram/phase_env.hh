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

#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "mem/backend.hh"
#include "oram/block.hh"
#include "oram/posmap.hh"
#include "oram/recursive_posmap.hh"
#include "oram/stash.hh"
#include "oram/tree.hh"
#include "psoram/drainer.hh"
#include "psoram/params.hh"
#include "psoram/shadow_stash.hh"
#include "psoram/temp_posmap.hh"

namespace psoram {

/** Protocol statistics the phases maintain (owned by the controller). */
struct ProtocolCounters
{
    Counter stash_hits;
    Counter backups;
    Counter stale_dropped;
    Counter forced_merges;
    Counter unplaced_carried;
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
    /** On-chip NVM buffer timing (FullNVM designs). */
    NvmTiming *onchip = nullptr;
    /** @} */

    /** @{ Controller callbacks (empty-safe). */
    /** Points at the controller's observer slot so setCommitObserver()
     *  takes effect without rebuilding the env. */
    const CommitObserver *commit_observer = nullptr;
    /** Where notifications wait while the device holds an unsynced
     *  tail (the controller releases them after its sync). Null: the
     *  observer fires at once. */
    std::vector<DeferredCommit> *deferred_commits = nullptr;
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

    /** Report @p addr durable now, or once the device's log tail is
     *  synced (notifications keep their order either way). */
    void
    notifyCommit(BlockAddr addr,
                 const std::array<std::uint8_t, kBlockDataBytes> &data)
        const
    {
        if (commit_observer && *commit_observer)
            reportCommit(addr, data);
    }
    void reportCommit(BlockAddr addr,
                      const std::array<std::uint8_t, kBlockDataBytes> &data)
        const;

    /** Committed (persistent) position of @p addr. */
    PathId committedPath(BlockAddr addr) const;

    /** @{ On-chip NVM buffer timing (no-ops without a buffer). The
     *  buffer is non-volatile (recovery re-imports the FullNVM stash
     *  and PosMap), so onChipWrite() reports a direct-write persist
     *  boundary to the device's fault injector before the write it
     *  times takes effect. */
    Cycle onChipRead(Cycle earliest);
    Cycle onChipWrite(Cycle earliest);
    /** @} */
};

} // namespace psoram

#endif // PSORAM_PSORAM_PHASE_ENV_HH
