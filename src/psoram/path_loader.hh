/**
 * @file
 * PathLoader: protocol step 3 — load every slot of the accessed path
 * in one vectored read, verify every record (integrity on), then decode
 * and classify each block (live copy into the stash, backup of a dirty
 * stash resident, or stale/dummy to drop).
 *
 * The classification realizes the paper's footnote-1 staleness rule: a
 * tree copy is live only if it matches the committed PosMap record
 * (path AND remap epoch); everything else is treated as a dummy.
 */

#ifndef PSORAM_PSORAM_PATH_LOADER_HH
#define PSORAM_PSORAM_PATH_LOADER_HH

#include <vector>

#include "mem/backend.hh"
#include "oram/block.hh"
#include "psoram/access_context.hh"
#include "psoram/phase_env.hh"

namespace psoram {

class PathLoader
{
  public:
    explicit PathLoader(PhaseEnv &env) : env_(env) {}

    /**
     * Read ctx.leaf's path, fill ctx.slots with the classification of
     * every slot, and advance ctx.t by the transfer + decrypt time.
     */
    void run(AccessContext &ctx);

  private:
    /** Classify one decoded block during the path load. */
    void classify(const PlainBlock &block, BlockAddr target, PathId leaf,
                  LoadedSlot &slot_info);

    PhaseEnv &env_;

    /** @{ run()'s vectored-read scratch: one record per path slot. */
    std::vector<std::uint8_t> records_;
    std::vector<ReadSpan> spans_;
    /** @} */
};

} // namespace psoram

#endif // PSORAM_PSORAM_PATH_LOADER_HH
