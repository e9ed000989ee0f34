#include "oram/controller.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"

namespace psoram {

PathOramController::PathOramController(const PathOramParams &params,
                                       MemoryBackend &device)
    : params_(params), device_(device), geo_(params.layout.geometry),
      posmap_(params.num_blocks, geo_.numLeaves(), params.seed),
      stash_(params.stash_capacity), codec_(params.key, params.cipher),
      rng_(params.seed ^ 0x5ca1ab1edeadbeefULL)
{
    if (params_.num_blocks > geo_.numSlots())
        PSORAM_FATAL("logical blocks (", params_.num_blocks,
                     ") exceed tree slots (", geo_.numSlots(), ")");
}

OramAccessInfo
PathOramController::read(BlockAddr addr, std::uint8_t *out)
{
    return access(addr, false, out, nullptr);
}

OramAccessInfo
PathOramController::write(BlockAddr addr, const std::uint8_t *in)
{
    return access(addr, true, nullptr, in);
}

OramAccessInfo
PathOramController::access(BlockAddr addr, bool is_write,
                           std::uint8_t *read_out,
                           const std::uint8_t *write_in)
{
    if (addr >= params_.num_blocks)
        PSORAM_PANIC("ORAM access beyond logical capacity: ", addr);
    ++accesses_;
    OramAccessInfo info;

    // Step 1: check stash.
    if (StashEntry *hit = stash_.find(addr)) {
        if (is_write)
            std::memcpy(hit->data.data(), write_in, kBlockDataBytes);
        else
            std::memcpy(read_out, hit->data.data(), kBlockDataBytes);
        ++stash_hits_;
        info.stash_hit = true;
        stash_.sampleOccupancy();
        return info;
    }

    // Step 2: access PosMap; remap to a fresh random path.
    const PathId leaf = posmap_.get(addr);
    const PathId new_leaf = rng_.nextPath(geo_.numLeaves());
    posmap_.set(addr, new_leaf);
    info.leaf = leaf;
    if (observer_)
        observer_(leaf);

    // Step 3: load path into the stash.
    const Cycle start = now_;
    Cycle t = loadPath(leaf, start);

    // Step 4: update stash; serve the request.
    StashEntry *entry = stash_.find(addr);
    if (!entry) {
        // First touch of this block: materialize an all-zero block (the
        // tree is lazily initialized).
        StashEntry fresh;
        fresh.addr = addr;
        stash_.insert(fresh);
        entry = stash_.find(addr);
    }
    entry->path = new_leaf;
    if (is_write)
        std::memcpy(entry->data.data(), write_in, kBlockDataBytes);
    else
        std::memcpy(read_out, entry->data.data(), kBlockDataBytes);

    // Step 5: evict along the just-read path.
    t = evictPath(leaf, t);

    now_ = t;
    info.nvm_cycles = t - start;
    stash_.sampleOccupancy();
    return info;
}

Cycle
PathOramController::loadPath(PathId leaf, Cycle start)
{
    Cycle done = start;
    for (unsigned level = 0; level <= geo_.height; ++level) {
        const BucketId bucket = geo_.bucketAt(leaf, level);
        for (unsigned slot = 0; slot < geo_.bucket_slots; ++slot) {
            const Addr slot_addr = params_.layout.slotAddr(bucket, slot);
            SlotBytes raw{};
            device_.readBytes(slot_addr, raw.data(), kSlotBytes);
            done = std::max(done, device_.timing().accessOne(
                                      slot_addr, false, start));
            const PlainBlock block = codec_.decode(raw);
            if (block.isDummy())
                continue;
            // Classic Path ORAM never leaves a second copy of a block
            // in the tree (every eviction rewrites the full loaded
            // path), so the only duplicate to guard against is a newer
            // copy already in the stash. Note the header path of the
            // access target intentionally differs from the PosMap here
            // — it was remapped in step 2.
            if (stash_.find(block.addr))
                continue;
            StashEntry entry;
            entry.addr = block.addr;
            entry.path = block.path;
            entry.data = block.data;
            stash_.insert(entry);
        }
    }
    // Decryption of the final block: one pipelined AES latency.
    return done + kAesLatencyCpuCycles / kCpuCyclesPerNvmCycle;
}

std::vector<StashEntry>
PathOramController::pickForBucket(PathId leaf, unsigned level)
{
    std::vector<StashEntry> picked;
    for (std::size_t i = 0;
         i < stash_.size() && picked.size() < geo_.bucket_slots;) {
        const StashEntry &entry = stash_.at(i);
        if (geo_.commonLevel(entry.path, leaf) >= level) {
            picked.push_back(entry);
            stash_.removeAt(i); // swap-with-last: do not advance i
        } else {
            ++i;
        }
    }
    return picked;
}

Cycle
PathOramController::evictPath(PathId leaf, Cycle start)
{
    // Encryption of the first bucket adds one pipelined AES latency.
    const Cycle issue = start + kAesLatencyCpuCycles /
                        kCpuCyclesPerNvmCycle;
    Cycle done = issue;
    // Greedy fill from the leaf up: deepest placement first maximizes
    // future eviction opportunities.
    for (int level = static_cast<int>(geo_.height); level >= 0; --level) {
        const BucketId bucket =
            geo_.bucketAt(leaf, static_cast<unsigned>(level));
        std::vector<StashEntry> chosen =
            pickForBucket(leaf, static_cast<unsigned>(level));
        for (unsigned slot = 0; slot < geo_.bucket_slots; ++slot) {
            PlainBlock block = slot < chosen.size()
                ? chosen[slot].toBlock()
                : PlainBlock::dummy();
            const SlotBytes raw = codec_.encode(block);
            const Addr slot_addr = params_.layout.slotAddr(bucket, slot);
            device_.writeBytes(slot_addr, raw.data(), kSlotBytes);
            done = std::max(done, device_.timing().accessOne(
                                      slot_addr, true, issue));
        }
    }
    return done;
}

bool
PathOramController::debugFindInTree(BlockAddr addr, std::uint8_t *out) const
{
    const PathId leaf = posmap_.get(addr);
    for (unsigned level = 0; level <= geo_.height; ++level) {
        const BucketId bucket = geo_.bucketAt(leaf, level);
        for (unsigned slot = 0; slot < geo_.bucket_slots; ++slot) {
            SlotBytes raw{};
            device_.readBytes(params_.layout.slotAddr(bucket, slot),
                              raw.data(), kSlotBytes);
            const PlainBlock block = codec_.decode(raw);
            if (!block.isDummy() && block.addr == addr &&
                block.path == leaf) {
                std::memcpy(out, block.data.data(), kBlockDataBytes);
                return true;
            }
        }
    }
    return false;
}

} // namespace psoram
