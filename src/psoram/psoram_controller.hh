/**
 * @file
 * PS-ORAM controller: the paper's crash-consistent ORAM controller
 * (Figure 4), configurable to every design variant of §5.1.
 *
 * The controller is a thin orchestrator over the protocol phase
 * components (paper §4.2.1), which communicate through an explicit
 * AccessContext:
 *
 *   1. Check Stash                      (orchestrator fast path)
 *   2. Access PosMap and Backup Label   (Remapper — remap staged in the
 *                                        temporary PosMap)
 *   3. Load Path                        (PathLoader)
 *   4. Update Stash and Backup Data     (orchestrator + BackupPlanner —
 *                                        backup under the old path id)
 *   5. PS-ORAM Eviction                 (Evictor — atomic WPQ bracket
 *                                        via the drainer)
 *
 * Eviction uses *safe placement*: loaded blocks are rewritten in place
 * (identity), backups land in the slot their block was loaded from, and
 * stash-carried blocks only fill dummy slots. Every eviction write
 * therefore overwrites a dummy, a stale copy, or the block itself, so
 * any committed prefix of WPQ rounds leaves the tree recoverable — this
 * realizes the write-ordering requirement of §4.2.3 by construction.
 *
 * Crash model: the stash, PosMap mirror, temporary PosMap and PoM
 * position tables are volatile; the NVM image plus committed WPQ rounds
 * survive. CrashPolicy hooks at each protocol site throw CrashEvent; the
 * harness then calls powerFailureFlush(), discards the controller, and
 * rebuilds one with recoverFromNvm().
 */

#ifndef PSORAM_PSORAM_PSORAM_CONTROLLER_HH
#define PSORAM_PSORAM_PSORAM_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/backend.hh"
#include "nvm/device.hh"
#include "oram/block.hh"
#include "oram/controller.hh"
#include "oram/integrity.hh"
#include "oram/posmap.hh"
#include "oram/recursive_posmap.hh"
#include "oram/stash.hh"
#include "oram/tree.hh"
#include "psoram/access_context.hh"
#include "psoram/backup_planner.hh"
#include "psoram/crash.hh"
#include "psoram/design.hh"
#include "psoram/drainer.hh"
#include "psoram/evictor.hh"
#include "psoram/params.hh"
#include "psoram/path_loader.hh"
#include "psoram/phase_env.hh"
#include "psoram/remapper.hh"
#include "psoram/shadow_stash.hh"
#include "psoram/temp_posmap.hh"

namespace psoram {

class PsOramController
{
  public:
    PsOramController(const PsOramParams &params, MemoryBackend &device);
    ~PsOramController();

    /** Read block @p addr into @p out (64 bytes). */
    OramAccessInfo read(BlockAddr addr, std::uint8_t *out);

    /** Write 64 bytes from @p in to block @p addr. */
    OramAccessInfo write(BlockAddr addr, const std::uint8_t *in);

    /** @{ Crash-injection plumbing. */
    void setCrashPolicy(CrashPolicy *policy) { crash_policy_ = policy; }

    /**
     * Report this controller's WPQ start/end signals as persist
     * boundaries (nvm/fault_injector.hh). Pass the same injector the
     * device reports to so the boundary numbering forms one sequence;
     * null detaches. No-op for designs without a persistence domain.
     */
    void attachFaultInjector(FaultInjector *injector)
    {
        if (drainer_)
            drainer_->domain().setFaultInjector(injector);
    }

    /** What the power-failure flush delivered (recovery accounting). */
    struct FlushOutcome
    {
        /** WPQ entries the ADR crash flush redelivered to the NVM. */
        std::size_t redelivered_entries = 0;
        /** Host timestamp that closes the (empty) wpq_replay window and
         *  opens the ADR redelivery (phase attribution; 0 when not
         *  requested). */
        std::uint64_t split_ns = 0;
    };

    /** ADR semantics at power failure: flush committed WPQ rounds.
     *  @param timed stamp FlushOutcome::split_ns (recovery stats) */
    FlushOutcome powerFailureFlush(bool timed = false);

    /** Adjacent-window timestamps recoverFromNvm() fills for the
     *  recovery phase breakdown (all hostNowNs; see common/stats.hh
     *  RecoveryStats for the identity they feed). */
    struct RecoveryTimings
    {
        /** Volatile-state rebuild (stash/PosMap/shadow restore) done. */
        std::uint64_t rebuild_done_ns = 0;
        /** Integrity record scan + root check done (== rebuild_done_ns
         *  when integrity is off). */
        std::uint64_t verify_done_ns = 0;
        /** Function exit (after interior-node repair + IV resume). */
        std::uint64_t end_ns = 0;
        std::uint64_t records_verified = 0;
        std::uint64_t nodes_repaired = 0;
    };

    /**
     * Rebuild volatile state from the persistent NVM image: reload the
     * shadow stashes and resume the region sequence counters. For the
     * non-recursive designs the committed PosMap lives in the trusted
     * NVM region and needs no eager rebuild.
     */
    void recoverFromNvm(RecoveryTimings *timings = nullptr);
    /** @} */

    /**
     * Black-box the protocol's round brackets and drain watermarks
     * (nvm/flight_recorder.hh): wires @p recorder through the drainer.
     * Null detaches. The recorder must outlive this controller.
     */
    void attachFlightRecorder(FlightRecorder *recorder);

    /** @{ FullNVM designs: the on-chip buffers are non-volatile. */
    struct OnChipNvState
    {
        std::vector<StashEntry> stash;
        std::unordered_map<BlockAddr, PathId> posmap;
    };
    OnChipNvState exportOnChipNvState() const;
    void importOnChipNvState(const OnChipNvState &state);
    /** @} */

    /** @{ Observers. */
    void setPathObserver(PathObserver observer)
    {
        observer_ = std::move(observer);
    }
    void setCommitObserver(CommitObserver observer)
    {
        commit_observer_ = std::move(observer);
    }
    /** @} */

    /** Committed (persistent) position of @p addr. */
    PathId committedPath(BlockAddr addr) const;

    /** Effective position: pending temporary-PosMap entry, else
     *  committed. */
    PathId effectivePath(BlockAddr addr) const;

    /** @{ Accessors for tests, benches and stats. */
    const PsOramParams &params() const { return params_; }
    const Stash &stash() const { return stash_; }
    const TempPosMap &tempPosMap() const { return temp_; }
    const Drainer *drainer() const { return drainer_.get(); }
    /** Integrity subsystem (null when params.integrity == Off). */
    const IntegrityManager *integrity() const
    {
        return integrity_.get();
    }
    const PosMapTreeLevel *pomLevel() const { return pom_.get(); }
    NvmDevice *onChipDevice() { return onchip_.get(); }

    std::uint64_t accessCount() const { return accesses_.value(); }
    std::uint64_t stashHits() const
    {
        return counters_.stash_hits.value();
    }
    std::uint64_t backupsCreated() const
    {
        return counters_.backups.value();
    }
    std::uint64_t staleDropped() const
    {
        return counters_.stale_dropped.value();
    }
    std::uint64_t forcedMerges() const
    {
        return counters_.forced_merges.value();
    }
    /** Cumulative live stash residue after evictions. */
    std::uint64_t unplacedCarried() const
    {
        return counters_.unplaced_carried.value();
    }
    /** Snapshot of every protocol counter (safe mid-run; the counters
     *  are relaxed-atomic). Sharded reporting merges these per shard. */
    ProtocolCounters::Snapshot protocolSnapshot() const
    {
        return counters_.snapshot();
    }
    Cycle nowCycles() const { return now_; }

    /** @{ Per-phase latency breakdown (remap/load/backup/evict/drain),
     *  maintained for every full (non-stash-hit) access. Host wall time
     *  attributes simulator CPU cost; sim cycles attribute modeled NVM
     *  time. Reading mid-run is safe (mutex-guarded distributions). */
    const PhaseLatencyStats &phaseHostNs() const { return phase_ns_; }
    const PhaseLatencyStats &phaseSimCycles() const
    {
        return phase_cycles_;
    }
    /** @} */

    /**
     * Correlation id for the *next* access (consumed by it; 0 restores
     * the per-controller automatic sequence). The engine frontends pass
     * their request id so one access is traceable from submit through
     * its phase events to completion.
     */
    void setNextAccessId(std::uint64_t id) { pending_access_id_ = id; }

    /** Register this controller's counters and phase latencies with
     *  @p group (metrics export; pointers remain owned here). */
    void registerStats(StatGroup &group) const;

    /** Total NVM traffic: main device plus on-chip NVM buffer writes
     *  (the FullNVM designs' dominant cost, counted as in Fig. 6). */
    TrafficCounts traffic() const;
    /** @} */

    /**
     * Test helper: walk @p addr's committed path in the NVM image and
     * return its committed data (what recovery would find).
     * @return false if no committed copy exists (never-persisted block)
     */
    bool committedDataInTree(BlockAddr addr, std::uint8_t *out) const;

  private:
    OramAccessInfo access(BlockAddr addr, bool is_write,
                          std::uint8_t *read_out,
                          const std::uint8_t *write_in);

    void maybeCrash(CrashSite site);

    bool persistent() const
    {
        return params_.design.persist != PersistMode::None;
    }
    bool recursive() const { return params_.design.recursive_posmap; }
    bool usesBackups() const
    {
        return persistent() && !recursive();
    }

    PsOramParams params_;
    MemoryBackend &device_;
    TreeGeometry geo_;
    BlockCodec codec_;
    Rng rng_;

    Stash stash_;
    TempPosMap temp_;
    /** Volatile PosMap (Baseline / FullNVM designs). */
    PosMap volatile_posmap_;
    /** Trusted-region persistent PosMap (non-recursive PS designs). */
    PersistentPosMap persistent_posmap_;

    /** Recursive machinery (null for non-recursive designs). */
    std::unique_ptr<PosMapTreeLevel> pom_;
    std::unique_ptr<ShadowStashRegion> shadow_data_;
    std::unique_ptr<ShadowStashRegion> shadow_pom_;
    /** Persisted PoM-block position region (Rcr-PS). */
    std::unique_ptr<PersistentPosMap> pom_pos_region_;

    std::unique_ptr<Drainer> drainer_;
    /** Authenticated records + Merkle tree (params.integrity != Off). */
    std::unique_ptr<IntegrityManager> integrity_;
    /** On-chip NVM buffer for FullNVM stash/PosMap. */
    std::unique_ptr<NvmDevice> onchip_;

    CrashPolicy *crash_policy_ = nullptr;
    PathObserver observer_;
    CommitObserver commit_observer_;

    Cycle now_ = 0;

    Counter accesses_;
    ProtocolCounters counters_;

    /** @{ Per-phase latency breakdowns (host ns / simulated cycles). */
    PhaseLatencyStats phase_ns_;
    PhaseLatencyStats phase_cycles_;
    /** @} */

    /** Engine-supplied id for the next access (0 = automatic). */
    std::uint64_t pending_access_id_ = 0;

    /** Reused per-access context (reset() keeps vector capacity). */
    AccessContext ctx_;

    /** @{ Protocol phases (constructed over env_ after all state). */
    std::unique_ptr<PhaseEnv> env_;
    std::unique_ptr<Remapper> remapper_;
    std::unique_ptr<PathLoader> loader_;
    std::unique_ptr<BackupPlanner> backup_planner_;
    std::unique_ptr<Evictor> evictor_;
    /** @} */
};

} // namespace psoram

#endif // PSORAM_PSORAM_PSORAM_CONTROLLER_HH
