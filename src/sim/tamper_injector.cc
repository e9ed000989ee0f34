#include "sim/tamper_injector.hh"

#include <cstring>

#include "common/log.hh"
#include "oram/integrity.hh"

namespace psoram {

const char *
tamperKindName(TamperKind kind)
{
    switch (kind) {
    case TamperKind::FlipCipherByte:
        return "flip-cipher-byte";
    case TamperKind::FlipTagByte:
        return "flip-tag-byte";
    case TamperKind::TruncateTag:
        return "truncate-tag";
    case TamperKind::ReplayRecord:
        return "replay-record";
    case TamperKind::WipeRecord:
        return "wipe-record";
    case TamperKind::FlipMerkleNode:
        return "flip-merkle-node";
    case TamperKind::FlipRootRecord:
        return "flip-root-record";
    }
    return "?";
}

TamperInjector::TamperInjector(MemoryBackend &device,
                               const TreeLayout &layout,
                               Addr root_record_base,
                               Addr merkle_region_base)
    : device_(device), layout_(layout),
      root_record_base_(root_record_base),
      merkle_region_base_(merkle_region_base)
{
}

void
TamperInjector::snapshotRecord(BucketId bucket, unsigned slot)
{
    snapshot_addr_ = layout_.slotAddr(bucket, slot);
    snapshot_.resize(layout_.record_bytes);
    device_.readBytes(snapshot_addr_, snapshot_.data(),
                      snapshot_.size());
    have_snapshot_ = true;
}

Addr
TamperInjector::apply(TamperKind kind, BucketId bucket, unsigned slot)
{
    const Addr record_addr = layout_.slotAddr(bucket, slot);
    const std::uint64_t record_bytes = layout_.record_bytes;
    std::vector<std::uint8_t> buf(record_bytes);
    ++applications_;
    switch (kind) {
    case TamperKind::FlipCipherByte:
        device_.readBytes(record_addr, buf.data(), record_bytes);
        buf[0] ^= 0x01;
        device_.writeBytes(record_addr, buf.data(), record_bytes,
                           Durability::Quiet);
        return record_addr;
    case TamperKind::FlipTagByte:
        device_.readBytes(record_addr, buf.data(), record_bytes);
        buf[kRecordTagOffset] ^= 0x01;
        device_.writeBytes(record_addr, buf.data(), record_bytes,
                           Durability::Quiet);
        return record_addr;
    case TamperKind::TruncateTag:
        device_.readBytes(record_addr, buf.data(), record_bytes);
        std::memset(buf.data() + kRecordTagOffset + Gcm::kTagBytes / 2,
                    0, Gcm::kTagBytes / 2);
        device_.writeBytes(record_addr, buf.data(), record_bytes,
                           Durability::Quiet);
        return record_addr;
    case TamperKind::ReplayRecord:
        if (!have_snapshot_)
            PSORAM_PANIC("ReplayRecord tamper without a prior "
                         "snapshotRecord()");
        device_.writeBytes(snapshot_addr_, snapshot_.data(),
                           snapshot_.size(), Durability::Quiet);
        return snapshot_addr_;
    case TamperKind::WipeRecord:
        std::fill(buf.begin(), buf.end(), std::uint8_t{0});
        device_.writeBytes(record_addr, buf.data(), record_bytes,
                           Durability::Quiet);
        return record_addr;
    case TamperKind::FlipMerkleNode: {
        const Addr node_addr =
            merkle_region_base_ +
            bucket * IntegrityManager::kHashBytes;
        std::uint8_t hash[IntegrityManager::kHashBytes];
        device_.readBytes(node_addr, hash, sizeof(hash));
        hash[0] ^= 0x01;
        device_.writeBytes(node_addr, hash, sizeof(hash),
                           Durability::Quiet);
        return node_addr;
    }
    case TamperKind::FlipRootRecord: {
        std::uint8_t root[IntegrityManager::kRootRecordBytes];
        device_.readBytes(root_record_base_, root, sizeof(root));
        // Hit the Merkle-root field: the most load-bearing bytes.
        root[32] ^= 0x01;
        device_.writeBytes(root_record_base_, root, sizeof(root),
                           Durability::Quiet);
        return root_record_base_;
    }
    }
    PSORAM_PANIC("unknown tamper kind");
}

void
TamperInjector::armAt(std::uint64_t boundary_index, TamperKind kind,
                      BucketId bucket, unsigned slot)
{
    armed_ = true;
    fired_ = false;
    target_ = boundary_index;
    armed_kind_ = kind;
    armed_bucket_ = bucket;
    armed_slot_ = slot;
}

void
TamperInjector::attachTo(FaultInjector &injector)
{
    injector.setObserver(
        [this](PersistBoundary, std::uint64_t index) {
            if (!armed_ || index != target_)
                return;
            armed_ = false;
            fired_ = true;
            apply(armed_kind_, armed_bucket_, armed_slot_);
        });
}

void
TamperInjector::reset()
{
    armed_ = false;
    fired_ = false;
    target_ = 0;
    applications_ = 0;
}

} // namespace psoram
