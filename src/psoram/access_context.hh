/**
 * @file
 * AccessContext: the per-access state threaded through the protocol
 * phase components (Remapper -> PathLoader -> BackupPlanner -> Evictor).
 *
 * Each phase reads the fields earlier phases produced and fills in its
 * own; the controller orchestrates the sequence and owns the context
 * for exactly one access. Keeping the hand-off explicit (rather than
 * controller member state) is what makes the phases independently
 * testable and the orchestrator thin.
 */

#ifndef PSORAM_PSORAM_ACCESS_CONTEXT_HH
#define PSORAM_PSORAM_ACCESS_CONTEXT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "oram/controller.hh"
#include "psoram/drainer.hh"

namespace psoram {

/** Classification of one slot read during the path load (step 3). */
struct LoadedSlot
{
    unsigned level;
    unsigned slot;
    BlockAddr addr;      ///< kDummyBlockAddr when free/stale/dummy
    bool is_backup_site; ///< slot where the target was found
};

struct AccessContext
{
    /** @{ Set by the orchestrator before any phase runs. */
    BlockAddr addr = kDummyBlockAddr;
    bool is_write = false;
    Cycle start = 0; ///< memory-side clock when the access began
    /** Correlation id carried into every trace event of this access
     *  (the engine's request id when the frontend supplied one). */
    std::uint64_t access_id = 0;
    /** @} */

    /** @{ Filled by the Evictor for the per-phase latency breakdown:
     *  the slice of the eviction spent inside Drainer::persist(), in
     *  host nanoseconds and simulated cycles. Zero for designs without
     *  a persistence domain. */
    std::uint64_t drain_host_ns = 0;
    Cycle drain_cycles = 0;
    /** @} */

    /** Running completion cycle; each phase advances it. */
    Cycle t = 0;

    /** @{ Produced by the Remapper (step 2). */
    PathId leaf = kInvalidPath;     ///< committed path being accessed
    PathId new_leaf = kInvalidPath; ///< staged remap target
    /** PoM writes collected at step 2 that the Evictor must order
     *  (count of bundle.posmap_writes filled by the Remapper). */
    std::size_t pom_after_data = 0;
    /** @} */

    /** Produced by the PathLoader (step 3). */
    std::vector<LoadedSlot> slots;

    /** Assembled across phases, consumed by the Evictor (step 5). */
    EvictionBundle bundle;

    /** Per-access outcome returned to the caller. */
    OramAccessInfo info;

    /**
     * Reset to the freshly-constructed state while keeping vector
     * capacity, so one context can be reused across accesses without
     * per-access heap allocation. Also recovers from a context left
     * mid-flight by an InjectedFault.
     */
    void
    reset()
    {
        addr = kDummyBlockAddr;
        is_write = false;
        start = 0;
        access_id = 0;
        drain_host_ns = 0;
        drain_cycles = 0;
        t = 0;
        leaf = kInvalidPath;
        new_leaf = kInvalidPath;
        pom_after_data = 0;
        slots.clear();
        bundle.data_writes.clear();
        bundle.posmap_writes.clear();
        info = OramAccessInfo{};
    }
};

} // namespace psoram

#endif // PSORAM_PSORAM_ACCESS_CONTEXT_HH
