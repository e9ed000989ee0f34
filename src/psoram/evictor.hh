/**
 * @file
 * Evictor: protocol step 5 — PS-ORAM eviction (paper §4.2.1/§4.2.3).
 *
 * Non-recursive persistent designs use *safe placement*: backups return
 * to their load slot (identity rewrite of the committed value), stash
 * blocks only fill previously-dummy slots, and writes are emitted
 * dummy-slots-first — so any committed prefix of WPQ rounds leaves the
 * tree recoverable. Recursive designs commit the whole eviction (data
 * path + PoM path + stash shadows) in one atomic bracket; non-persistent
 * designs do a classic greedy write-back with no crash guarantees.
 */

#ifndef PSORAM_PSORAM_EVICTOR_HH
#define PSORAM_PSORAM_EVICTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "nvm/wpq.hh"
#include "oram/block.hh"
#include "psoram/access_context.hh"
#include "psoram/phase_env.hh"

namespace psoram {

class Evictor
{
  public:
    explicit Evictor(PhaseEnv &env) : env_(env) {}

    /**
     * Place stash blocks onto ctx.leaf's path, emit the re-encrypted
     * path (and metadata) into ctx.bundle, and persist it — atomically
     * through the WPQ drainer for the PS designs, directly otherwise.
     * Advances ctx.t to the completion cycle and notifies the commit
     * observer of every block that became durable.
     */
    void run(AccessContext &ctx);

  private:
    /** Record of one placement (for commit bookkeeping). */
    struct Placed
    {
        BlockAddr addr;
        PathId path;
        std::uint32_t epoch;
        std::array<std::uint8_t, kBlockDataBytes> data;
        bool is_backup;
        std::size_t write_index; // filled when writes are emitted
        unsigned level, slot;
    };

    /** Pass-A sink candidate: a live stash entry and its max depth. */
    struct Cand
    {
        BlockAddr addr;
        unsigned max_level;
    };

    /**
     * Per-access working set, preallocated and reused across run()
     * calls (clearing keeps vector capacity) so the eviction performs
     * no heap allocation in steady state. Path-indexed vectors use
     * [level * bucket_slots + slot].
     */
    struct EvictScratch
    {
        std::vector<PlainBlock> plan;
        std::vector<std::uint8_t> used;
        std::vector<std::uint8_t> prev_live;
        /** Slot -> 1 + index into placed (0 = path dummy). */
        std::vector<std::uint32_t> slot_writer;
        std::vector<Placed> placed;
        std::vector<Cand> cands;
        /** Per-level ascending free-slot lists with fill/consume marks. */
        std::vector<std::uint32_t> free_slots;
        std::vector<std::uint32_t> free_count;
        std::vector<std::uint32_t> free_cursor;
        /** Greedy eviction: cached commonLevel per stash position,
         *  mirrored through the stash's swap-with-last removals. */
        std::vector<unsigned> depths;
        /** Data-write index -> 1 + index into placed (0 = dummy). */
        std::vector<std::uint32_t> write_placed;
        std::vector<WpqEntry> data_writes;
        /** @{ The batch encode: plan slot and destination bytes of
         *  each data write, in emission order, and its keystream. */
        std::vector<const PlainBlock *> emit_blocks;
        std::vector<std::uint8_t *> emit_dsts;
        CodecScratch keystream;
        /** @} */
        /** Non-persistent write-back: one span per data write. */
        std::vector<WriteSpan> spans;
    };

    PhaseEnv &env_;
    EvictScratch scratch_;
};

} // namespace psoram

#endif // PSORAM_PSORAM_EVICTOR_HH
