/**
 * @file
 * Recovery orchestration (paper §4.3): rebuild a working ORAM controller
 * from the persistent NVM image after a power failure.
 *
 * The sequence a real system performs on power-up is:
 *
 *   1. ADR drains the committed WPQ rounds to the NVM (this happened at
 *      failure time — powerFailureFlush()), and the medium comes back
 *      up: a disk tree replays its durable redo log.
 *   2. A fresh controller attaches to the NVM. Its committed PosMap is
 *      already in the trusted NVM region (non-recursive) or the PosMap
 *      ORAM trees (recursive); nothing volatile survived.
 *   3. Recursive PS designs reload the stash shadow regions.
 *
 * RecoveryManager packages that sequence for the harness and the tests,
 * and splits its host time into the RecoveryStats windows.
 */

#ifndef PSORAM_PSORAM_RECOVERY_HH
#define PSORAM_PSORAM_RECOVERY_HH

#include <cstdint>
#include <memory>

#include "psoram/psoram_controller.hh"

namespace psoram {

class FlightRecorder;

class RecoveryManager
{
  public:
    /**
     * Simulate the power failure on @p crashed (ADR flush), destroy it,
     * and build a recovered controller over the same device.
     *
     * For FullNVM designs the on-chip buffers are non-volatile: their
     * content is carried over (that alone does not make the design
     * crash consistent — the data/metadata updates are not atomic,
     * which the tests demonstrate).
     *
     * @param stats when set, one per-phase latency sample plus the
     *        recovery counters land here (common/stats.hh); a refused
     *        recovery (IntegrityError) bumps records_refused and
     *        rethrows without sampling the distributions.
     * @param flight when set, the persistent black box is decoded
     *        after the power-failure flush and BEFORE any other
     *        recovery write (counters + trace tail), and
     *        RecoveryStart/RecoveryDone records bracket the rebuild.
     */
    static std::unique_ptr<PsOramController>
    recover(std::unique_ptr<PsOramController> crashed, MemoryBackend &device,
            RecoveryStats *stats = nullptr, FlightRecorder *flight = nullptr);
};

} // namespace psoram

#endif // PSORAM_PSORAM_RECOVERY_HH
