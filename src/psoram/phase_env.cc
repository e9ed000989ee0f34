#include "psoram/phase_env.hh"

#include <cstring>

#include "nvm/fault_injector.hh"
#include "nvm/timing.hh"

namespace psoram {

void
PhaseEnv::reportCommit(
    BlockAddr addr,
    const std::array<std::uint8_t, kBlockDataBytes> &data) const
{
    if (deferred_commits &&
        (!deferred_commits->empty() || device.holdsUnsyncedTail())) {
        deferred_commits->push_back({addr, data});
        return;
    }
    (*commit_observer)(addr, data);
}

PathId
PhaseEnv::committedPath(BlockAddr addr) const
{
    if (recursive()) {
        // For recursive designs the PosMap entry is written through at
        // access time; the effective value is the committed one up to
        // the in-flight bracket. Resolve via the PoM level.
        const std::uint64_t b = addr / kEntriesPerPosBlock;
        const unsigned offset =
            static_cast<unsigned>(addr % kEntriesPerPosBlock);
        std::uint32_t word = 0;
        if (const StashEntry *entry = pom->stash().find(b)) {
            std::memcpy(&word,
                        entry->data.data() + offset * sizeof(word),
                        sizeof(word));
        } else {
            // Walk the block's path in the NVM image.
            const PathId pos = pom->blockPosition(b);
            const TreeGeometry &pg = pom->params().layout.geometry;
            for (unsigned level = 0; level <= pg.height && word == 0;
                 ++level) {
                const BucketId bucket = pg.bucketAt(pos, level);
                for (unsigned s = 0; s < pg.bucket_slots; ++s) {
                    SlotBytes raw{};
                    device.readBytes(
                        pom->params().layout.slotAddr(bucket, s),
                        raw.data(), kSlotBytes);
                    const PlainBlock block = codec.decode(raw);
                    if (!block.isDummy() && block.addr == b) {
                        std::memcpy(
                            &word,
                            block.data.data() + offset * sizeof(word),
                            sizeof(word));
                        break;
                    }
                }
            }
        }
        if (word & kPosEntryValid)
            return static_cast<PathId>(word & ~kPosEntryValid);
        return initialPath(params.seed, addr, geo.numLeaves());
    }
    if (persistent())
        return persistent_posmap.readEntry(device, addr);
    return volatile_posmap.get(addr);
}

Cycle
PhaseEnv::onChipRead(Cycle earliest)
{
    if (!onchip)
        return earliest;
    // Round-robin the on-chip buffer's lines to exercise its banks.
    static constexpr Addr kStride = kBlockDataBytes;
    onchip_clock_skew = (onchip_clock_skew + kStride) & 0xffff;
    return onchip->accessOne(onchip_clock_skew, false, earliest);
}

Cycle
PhaseEnv::onChipWrite(Cycle earliest)
{
    if (!onchip)
        return earliest;
    if (FaultInjector *injector = device.faultInjector())
        injector->boundary(PersistBoundary::DirectWrite);
    static constexpr Addr kStride = kBlockDataBytes;
    onchip_clock_skew = (onchip_clock_skew + kStride) & 0xffff;
    return onchip->accessOne(onchip_clock_skew, true, earliest);
}

} // namespace psoram
