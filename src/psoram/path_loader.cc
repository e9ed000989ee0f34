#include "psoram/path_loader.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "oram/controller.hh"
#include "oram/integrity.hh"

namespace psoram {

void
PathLoader::classify(const PlainBlock &block, BlockAddr target,
                     PathId leaf, LoadedSlot &slot_info)
{
    slot_info.addr = kDummyBlockAddr;
    slot_info.is_backup_site = false;
    if (block.isDummy())
        return;

    if (env_.recursive()) {
        // Recursive designs never leave stale copies behind (the whole
        // path is rewritten each eviction and no backups are planted);
        // dedupe against the stash is sufficient.
        if (env_.stash.find(block.addr))
            return;
        StashEntry entry;
        entry.addr = block.addr;
        entry.path = block.path;
        entry.data = block.data;
        env_.stash.insert(entry);
        slot_info.addr = block.addr;
        return;
    }

    const PersistentPosMap::Entry committed = env_.persistent()
        ? env_.persistent_posmap.readFullEntry(env_.device, block.addr)
        : PersistentPosMap::Entry{
              env_.volatile_posmap.get(block.addr), 0};
    const bool matches_committed = env_.persistent()
        ? (block.path == committed.path &&
           block.epoch == committed.epoch)
        : block.path == committed.path;

    if (env_.stash.find(block.addr) != nullptr) {
        if (env_.usesBackups() && matches_committed) {
            // The stash holds a newer (dirty) copy; this tree copy is
            // the block's last committed value. Keep it circulating as
            // a backup so a crash that loses the stash can recover it
            // (generalized form of the paper's step-4 backup).
            StashEntry backup;
            backup.addr = block.addr;
            backup.path = block.path;
            backup.epoch = block.epoch;
            backup.data = block.data;
            backup.is_backup = true;
            env_.stash.insert(backup);
            ++env_.counters.backups;
            slot_info.addr = block.addr;
            slot_info.is_backup_site = true;
            return;
        }
        ++env_.counters.stale_dropped;
        return;
    }

    // A live copy must match the committed PosMap record (path AND
    // remap epoch). Exception: in the non-persistent designs the PosMap
    // was already overwritten with the new label at step 2, so the
    // genuine target copy still carries the path being loaded.
    const bool is_live = (!env_.persistent() && block.addr == target)
        ? block.path == leaf
        : matches_committed;
    if (!is_live) {
        // An invalidated backup or an old copy: treat as dummy
        // (paper footnote 1).
        ++env_.counters.stale_dropped;
        return;
    }

    StashEntry entry;
    entry.addr = block.addr;
    entry.path = block.path;
    entry.epoch = block.epoch;
    entry.data = block.data;
    env_.stash.insert(entry);
    slot_info.addr = block.addr;
}

void
PathLoader::run(AccessContext &ctx)
{
    const TreeGeometry &geo = env_.geo;
    const unsigned total = geo.blocksPerPath();
    const Cycle start = ctx.t;
    ctx.slots.reserve(total);

    // One vectored read carries the whole path (Path ORAM reads the
    // path into the stash before it processes any block). With
    // integrity on each span is the whole authenticated record.
    const std::size_t span_bytes =
        env_.integrity ? kIntegrityRecordBytes : kSlotBytes;
    records_.resize(std::size_t{total} * span_bytes);
    spans_.clear();
    for (unsigned level = 0; level <= geo.height; ++level) {
        const BucketId bucket = geo.bucketAt(ctx.leaf, level);
        for (unsigned s = 0; s < geo.bucket_slots; ++s)
            spans_.push_back({env_.params.data_layout.slotAddr(bucket, s),
                              records_.data() + spans_.size() * span_bytes,
                              span_bytes});
    }
    env_.device.readv(spans_);

    // Refuse a tampered path before a single record is decrypted or
    // classified, so a refused load leaves the stash untouched.
    if (env_.integrity) {
        for (unsigned i = 0; i < total; ++i)
            env_.integrity->verifyRecord(
                geo.bucketAt(ctx.leaf, i / geo.bucket_slots),
                i % geo.bucket_slots, spans_[i].data);
    }

    // Timing is scheduled slot by slot in path order, independent of
    // the functional read order above.
    Cycle proc = start;
    for (unsigned i = 0; i < total; ++i) {
        const Cycle rd =
            env_.device.timing().accessOne(spans_[i].addr, false, start);
        proc = std::max(rd, proc) + env_.params.controller_block_cycles;
    }

    // FullNVM: every loaded block is written into the on-chip NVM stash
    // (onChipWrite is a no-op for the other designs). Each write times
    // against the whole path transfer: the buffer's banks pipeline
    // among themselves, but the fill phase serializes against the path
    // (the single controller port), which is what makes the FullNVM
    // designs pay close to one extra NVM pass per access (§5.2.1 a).
    // The write's persist boundary precedes the block's classification
    // into the stash.
    Cycle filled = proc;
    for (unsigned i = 0; i < total; ++i) {
        filled = std::max(filled, env_.onChipWrite(proc));
        SlotBytes raw;
        std::memcpy(raw.data(), spans_[i].data, kSlotBytes);
        LoadedSlot slot_info{i / geo.bucket_slots, i % geo.bucket_slots,
                             kDummyBlockAddr, false};
        classify(env_.codec.decode(raw), ctx.addr, ctx.leaf, slot_info);
        ctx.slots.push_back(slot_info);
    }
    ctx.t = filled + kAesLatencyCpuCycles / kCpuCyclesPerNvmCycle;
}

} // namespace psoram
