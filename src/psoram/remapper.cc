#include "psoram/remapper.hh"

#include <algorithm>

namespace psoram {

void
Remapper::run(AccessContext &ctx)
{
    const BlockAddr addr = ctx.addr;
    PathId new_leaf = env_.rng.nextPath(env_.geo.numLeaves());

    if (!env_.recursive()) {
        PathId leaf;
        if (env_.persistent()) {
            leaf = env_.committedPath(addr);
            // Remap to a *different* leaf: if the new label equaled the
            // old one, the backup block and the re-labeled live block
            // would carry identical header paths and the staleness rule
            // (footnote 1) could no longer tell them apart.
            while (new_leaf == leaf && env_.geo.numLeaves() > 1)
                new_leaf = env_.rng.nextPath(env_.geo.numLeaves());
            // Stage the remap; the main PosMap keeps the old mapping
            // until the block's eviction round commits.
            if (env_.temp.full())
                ++env_.counters.forced_merges;
            env_.temp.put(addr, new_leaf);
        } else {
            leaf = env_.volatile_posmap.get(addr);
            env_.volatile_posmap.set(addr, new_leaf);
            if (env_.onchip) {
                // FullNVM: the PosMap lives in on-chip NVM.
                ctx.t = env_.onChipRead(ctx.t);
                ctx.t = env_.onChipWrite(ctx.t);
            }
        }
        ctx.leaf = leaf;
        ctx.new_leaf = new_leaf;
        return;
    }

    // Recursive: one PosMap ORAM access, write-through with the new
    // label (the recursive baseline's inherent persistence).
    Cycle read_chain = ctx.t;
    const auto read_hook = [&](Addr a) {
        read_chain = std::max(
            env_.device.accessOne(a, false, ctx.t),
            read_chain + env_.params.controller_block_cycles);
    };
    const std::uint32_t new_word =
        PersistentPosMap::encodeEntry(new_leaf);
    PosMapTreeLevel::AccessOutcome outcome =
        env_.pom->accessEntry(addr, new_word, read_hook);
    ctx.t = read_chain;

    if (env_.persistent()) {
        // Rcr-PS-ORAM: the PoM path write joins the atomic bracket.
        // Its ordering constraint (not before the data/shadow write of
        // the accessed block) is filled in by the Evictor.
        for (const auto &write : outcome.writes) {
            PosmapWrite pw;
            pw.entry.addr = write.addr;
            pw.entry.data.assign(write.data.begin(), write.data.end());
            ctx.bundle.posmap_writes.push_back(std::move(pw));
        }
        // Position entries for dirty entry blocks that returned to the
        // tree in this eviction.
        for (const auto &[idx, pos] : outcome.placed) {
            if (!env_.pom->isPositionDirty(idx))
                continue;
            PosmapWrite pw;
            pw.entry.addr = env_.pom_pos_region->entryAddr(idx);
            const auto record = PersistentPosMap::encodeRecord(pos, 0);
            pw.entry.data.assign(record.begin(), record.end());
            ctx.bundle.posmap_writes.push_back(std::move(pw));
            env_.pom->clearPositionDirty(idx);
        }
        ctx.pom_after_data = ctx.bundle.posmap_writes.size();
    } else {
        // Rcr-Baseline: direct, non-atomic writes to the PoM tree.
        Cycle wdone = ctx.t;
        for (const auto &write : outcome.writes) {
            env_.device.writeBytes(write.addr, write.data.data(),
                                   write.data.size());
            wdone = std::max(
                wdone, env_.device.accessOne(write.addr, true, ctx.t));
        }
        ctx.t = wdone;
    }

    const std::uint32_t old_word = outcome.old_word;
    ctx.leaf = (old_word & kPosEntryValid)
        ? static_cast<PathId>(old_word & ~kPosEntryValid)
        : initialPath(env_.params.seed, addr, env_.geo.numLeaves());
    ctx.new_leaf = new_leaf;
}

} // namespace psoram
