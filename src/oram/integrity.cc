#include "oram/integrity.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"
#include "obs/trace.hh"

namespace psoram {

namespace {

/** Root record layout (kRootRecordBytes = 128):
 *    [0, 8)    magic "PSORINT1"
 *    [8, 16)   commit sequence number, little-endian
 *    [16, 24)  version watermark (every issued version is below it)
 *    [24, 32)  slot-codec IV watermark
 *    [32, 64)  Merkle root hash (zero in mac mode)
 *    [64, 96)  reserved, zero
 *    [96, 112) GMAC tag over (record address, seq, payload[0, 96))
 *    [112, 128) reserved, zero
 */
constexpr std::uint64_t kRootMagic = 0x31544e49524f5350ULL; // "PSORINT1"
constexpr std::size_t kRootSeqOffset = 8;
constexpr std::size_t kRootVersionOffset = 16;
constexpr std::size_t kRootIvOffset = 24;
constexpr std::size_t kRootHashOffset = 32;
constexpr std::size_t kRootTagOffset = 96;
constexpr std::size_t kRootPayloadBytes = 96;

std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    return v;
}

void
storeLe64(std::uint8_t *p, std::uint64_t v)
{
    std::memcpy(p, &v, 8);
}

bool
allZero(const std::uint8_t *p, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        if (p[i] != 0)
            return false;
    return true;
}

/**
 * The GMAC subkey is derived from the system key instead of reusing it:
 * the slot codec runs CTR under the raw key, and a keystream block that
 * happened to hit counter block 0^128 would equal the GHASH subkey —
 * key separation removes the interaction outright.
 */
Aes128::Key
deriveMacKey(const Aes128::Key &key)
{
    Aes128 kdf(key);
    Aes128::Block label = {'p', 's', 'o', 'r', 'a', 'm', '.', 'g',
                           'm', 'a', 'c', '.', 'k', 'd', 'f', '1'};
    kdf.encryptBlock(label);
    Aes128::Key derived;
    std::copy(label.begin(), label.end(), derived.begin());
    return derived;
}

} // namespace

const char *
integrityModeName(IntegrityMode mode)
{
    switch (mode) {
    case IntegrityMode::Off:
        return "off";
    case IntegrityMode::Mac:
        return "mac";
    case IntegrityMode::Tree:
        return "tree";
    }
    return "?";
}

bool
parseIntegrityMode(const std::string &text, IntegrityMode &out)
{
    if (text == "off")
        out = IntegrityMode::Off;
    else if (text == "mac")
        out = IntegrityMode::Mac;
    else if (text == "tree")
        out = IntegrityMode::Tree;
    else
        return false;
    return true;
}

const char *
IntegrityError::kindName(Kind kind)
{
    switch (kind) {
    case Kind::MacMismatch:
        return "mac-mismatch";
    case Kind::HashMismatch:
        return "hash-mismatch";
    case Kind::RootMismatch:
        return "root-mismatch";
    case Kind::TornRecord:
        return "torn-record";
    }
    return "?";
}

IntegrityError::IntegrityError(Kind kind, Addr addr,
                               const std::string &detail)
    : std::runtime_error(std::string("integrity violation (") +
                         kindName(kind) + ") at NVM address " +
                         std::to_string(addr) + ": " + detail),
      kind_(kind), addr_(addr)
{
}

IntegrityManager::IntegrityManager(const Aes128::Key &key,
                                   IntegrityMode mode,
                                   const TreeLayout &layout,
                                   Addr root_record_base,
                                   Addr merkle_region_base)
    : mode_(mode), layout_(layout), root_record_base_(root_record_base),
      merkle_region_base_(merkle_region_base), gmac_(deriveMacKey(key))
{
    if (mode_ == IntegrityMode::Off)
        PSORAM_PANIC("IntegrityManager constructed with mode=off");
    if (layout_.record_bytes != kIntegrityRecordBytes)
        PSORAM_PANIC("integrity requires ", kIntegrityRecordBytes,
                     "-byte records, layout has ", layout_.record_bytes);
    initFresh();
}

void
IntegrityManager::initFresh()
{
    next_version_ = 1;
    commit_seq_ = 0;
    nodes_repaired_ = 0;
    dirty_nodes_.clear();
    if (mode_ != IntegrityMode::Tree) {
        node_hash_.assign(1, Sha256::Digest{});
        return;
    }

    const TreeGeometry &geo = layout_.geometry;
    const std::uint8_t zero_record[kIntegrityRecordBytes] = {};
    const Sha256::Digest d_rec =
        Sha256::digest(zero_record, sizeof(zero_record));
    Sha256 h;
    for (unsigned s = 0; s < geo.bucket_slots; ++s)
        h.update(d_rec.data(), d_rec.size());
    const Sha256::Digest d_bucket = h.finish();

    // Per-level defaults for the all-zero tree, leaves up.
    std::vector<Sha256::Digest> d_node(geo.levels());
    for (unsigned level = geo.levels(); level-- > 0;) {
        h.reset();
        h.update(d_bucket.data(), d_bucket.size());
        if (level + 1 < geo.levels()) {
            h.update(d_node[level + 1].data(), kHashBytes);
            h.update(d_node[level + 1].data(), kHashBytes);
        }
        d_node[level] = h.finish();
    }

    rec_hash_.assign(geo.numSlots(), d_rec);
    bucket_hash_.assign(geo.numBuckets(), d_bucket);
    node_hash_.resize(geo.numBuckets());
    for (unsigned level = 0; level < geo.levels(); ++level) {
        const std::uint64_t first = (1ULL << level) - 1;
        const std::uint64_t last =
            std::min<std::uint64_t>((2ULL << level) - 1,
                                    geo.numBuckets());
        for (std::uint64_t b = first; b < last; ++b)
            node_hash_[b] = d_node[level];
    }
}

Gcm::Tag
IntegrityManager::recordTag(Addr record_addr, std::uint64_t version,
                            const std::uint8_t *cipher) const
{
    // IV = (version, record index): the version counter never repeats,
    // so no (key, IV) pair is ever reused.
    Gcm::Iv iv{};
    storeLe64(iv.data(), version);
    const std::uint32_t idx = static_cast<std::uint32_t>(
        (record_addr - layout_.base) / layout_.record_bytes);
    std::memcpy(iv.data() + 8, &idx, 4);

    std::uint8_t aad[16 + kSlotBytes];
    storeLe64(aad, record_addr);
    storeLe64(aad + 8, version);
    std::memcpy(aad + 16, cipher, kSlotBytes);
    return gmac_.mac(iv, aad, sizeof(aad));
}

Gcm::Tag
IntegrityManager::rootRecordTag(std::uint64_t seq,
                                const std::uint8_t *payload) const
{
    Gcm::Iv iv{};
    storeLe64(iv.data(), seq);
    std::memset(iv.data() + 8, 0xFF, 4); // disjoint from record IVs

    std::uint8_t aad[16 + kRootPayloadBytes];
    storeLe64(aad, root_record_base_);
    storeLe64(aad + 8, seq);
    std::memcpy(aad + 16, payload, kRootPayloadBytes);
    return gmac_.mac(iv, aad, sizeof(aad));
}

void
IntegrityManager::sealRecord(BucketId bucket, unsigned slot,
                             const SlotBytes &cipher, std::uint8_t *out)
{
    const Addr addr = layout_.slotAddr(bucket, slot);
    const std::uint64_t version = next_version_++;
    std::memset(out, 0, kIntegrityRecordBytes);
    std::memcpy(out, cipher.data(), kSlotBytes);
    const Gcm::Tag tag = recordTag(addr, version, cipher.data());
    std::memcpy(out + kRecordTagOffset, tag.data(), tag.size());
    storeLe64(out + kRecordVersionOffset, version);
}

void
IntegrityManager::verifyRecord(BucketId bucket, unsigned slot,
                               const std::uint8_t *record) const
{
    const Addr addr = layout_.slotAddr(bucket, slot);
    if (mode_ == IntegrityMode::Tree) {
        // The trusted in-RAM hash pins the exact record bytes written
        // last — catches modification AND replay/wipe in one check.
        const Sha256::Digest computed =
            Sha256::digest(record, kIntegrityRecordBytes);
        const std::uint64_t idx = layout_.recordIndex(bucket, slot);
        if (computed != rec_hash_[idx])
            throw IntegrityError(
                IntegrityError::Kind::HashMismatch, addr,
                "record hash disagrees with the trusted Merkle state");
    }

    const std::uint64_t version =
        loadLe64(record + kRecordVersionOffset);
    if (version == 0) {
        if (!allZero(record, kIntegrityRecordBytes))
            throw IntegrityError(
                IntegrityError::Kind::TornRecord, addr,
                "unversioned record with non-zero content");
        return; // never-written slot, decodes as a dummy
    }
    Gcm::Tag stored;
    std::memcpy(stored.data(), record + kRecordTagOffset,
                stored.size());
    if (!Gcm::tagsEqual(stored, recordTag(addr, version, record)))
        throw IntegrityError(IntegrityError::Kind::MacMismatch, addr,
                             "record tag verification failed");
}

Sha256::Digest
IntegrityManager::bucketHashFor(BucketId bucket) const
{
    Sha256 h;
    const std::uint64_t first =
        bucket * layout_.geometry.bucket_slots;
    for (unsigned s = 0; s < layout_.geometry.bucket_slots; ++s)
        h.update(rec_hash_[first + s].data(), kHashBytes);
    return h.finish();
}

Sha256::Digest
IntegrityManager::nodeHashFor(BucketId bucket) const
{
    const std::uint64_t num_buckets = layout_.geometry.numBuckets();
    Sha256 h;
    h.update(bucket_hash_[bucket].data(), kHashBytes);
    if (2 * bucket + 1 < num_buckets)
        h.update(node_hash_[2 * bucket + 1].data(), kHashBytes);
    if (2 * bucket + 2 < num_buckets)
        h.update(node_hash_[2 * bucket + 2].data(), kHashBytes);
    return h.finish();
}

void
IntegrityManager::refreshBucketPath(BucketId bucket, bool mark_dirty)
{
    bucket_hash_[bucket] = bucketHashFor(bucket);
    for (BucketId node = bucket;;) {
        node_hash_[node] = nodeHashFor(node);
        if (mark_dirty)
            dirty_nodes_.insert(node);
        if (node == 0)
            break;
        node = (node - 1) / 2;
    }
}

std::uint64_t
IntegrityManager::recordIndexFor(Addr addr) const
{
    const std::uint64_t footprint = layout_.footprintBytes();
    if (addr < layout_.base || addr >= layout_.base + footprint ||
        (addr - layout_.base) % layout_.record_bytes != 0)
        PSORAM_PANIC("integrity round write at ", addr,
                     " is not a data-tree record address");
    return (addr - layout_.base) / layout_.record_bytes;
}

void
IntegrityManager::noteRoundWrite(Addr addr, const std::uint8_t *record,
                                 std::size_t len)
{
    const std::uint64_t idx = recordIndexFor(addr);
    if (len != layout_.record_bytes)
        PSORAM_PANIC("integrity round write of ", len,
                     " bytes, expected a full record of ",
                     layout_.record_bytes);
    if (mode_ != IntegrityMode::Tree)
        return;
    rec_hash_[idx] = Sha256::digest(record, kIntegrityRecordBytes);
    refreshBucketPath(
        static_cast<BucketId>(idx / layout_.geometry.bucket_slots),
        /*mark_dirty=*/true);
}

WpqEntry
IntegrityManager::makeRootRecord(std::uint64_t next_slot_iv)
{
    std::uint8_t payload[kRootRecordBytes] = {};
    const std::uint64_t seq = ++commit_seq_;
    storeLe64(payload, kRootMagic);
    storeLe64(payload + kRootSeqOffset, seq);
    storeLe64(payload + kRootVersionOffset, next_version_);
    storeLe64(payload + kRootIvOffset, next_slot_iv);
    if (mode_ == IntegrityMode::Tree)
        std::memcpy(payload + kRootHashOffset, node_hash_[0].data(),
                    kHashBytes);
    const Gcm::Tag tag = rootRecordTag(seq, payload);
    std::memcpy(payload + kRootTagOffset, tag.data(), tag.size());

    WpqEntry entry;
    entry.addr = root_record_base_;
    entry.data.assign(payload, payload + kRootRecordBytes);
    return entry;
}

void
IntegrityManager::streamDirtyNodes(MemoryBackend &device)
{
    if (mode_ != IntegrityMode::Tree || dirty_nodes_.empty())
        return;
    for (const BucketId node : dirty_nodes_)
        device.writeBytes(merkle_region_base_ + node * kHashBytes,
                          node_hash_[node].data(), kHashBytes,
                          Durability::Quiet);
    dirty_nodes_.clear();
}

IntegrityManager::RecoveryScan
IntegrityManager::recoverFromDevice(MemoryBackend &device,
                                    RecoveryStats::Stamps *stamps)
{
    PSORAM_TRACE_SCOPE("recovery", "integrity_recover", 0);
    RecoveryScan scan;
    initFresh();

    const TreeGeometry &geo = layout_.geometry;
    std::uint8_t record[kIntegrityRecordBytes];
    std::uint64_t max_version = 0;
    std::uint64_t max_slot_iv = 0;
    for (BucketId b = 0; b < geo.numBuckets(); ++b) {
        for (unsigned s = 0; s < geo.bucket_slots; ++s) {
            const Addr addr = layout_.slotAddr(b, s);
            device.readBytes(addr, record, sizeof(record));
            const std::uint64_t version =
                loadLe64(record + kRecordVersionOffset);
            if (version == 0) {
                if (!allZero(record, sizeof(record)))
                    throw IntegrityError(
                        IntegrityError::Kind::TornRecord, addr,
                        "unversioned record with non-zero content");
            } else {
                Gcm::Tag stored;
                std::memcpy(stored.data(), record + kRecordTagOffset,
                            stored.size());
                if (!Gcm::tagsEqual(stored,
                                    recordTag(addr, version, record)))
                    throw IntegrityError(
                        IntegrityError::Kind::MacMismatch, addr,
                        "record tag verification failed during "
                        "recovery");
                ++scan.records_verified;
                max_version = std::max(max_version, version);
                max_slot_iv =
                    std::max(max_slot_iv, loadLe64(record));
            }
            if (mode_ == IntegrityMode::Tree)
                rec_hash_[layout_.recordIndex(b, s)] =
                    Sha256::digest(record, sizeof(record));
        }
    }
    if (mode_ == IntegrityMode::Tree)
        for (BucketId b = geo.numBuckets(); b-- > 0;) {
            bucket_hash_[b] = bucketHashFor(b);
            node_hash_[b] = nodeHashFor(b);
        }

    std::uint8_t root[kRootRecordBytes];
    device.readBytes(root_record_base_, root, sizeof(root));
    if (allZero(root, sizeof(root))) {
        // No round ever committed: the tree must still be untouched
        // (every committed round carries a root record).
        if (max_version != 0)
            throw IntegrityError(
                IntegrityError::Kind::RootMismatch, root_record_base_,
                "versioned records present without a committed root "
                "record");
        next_version_ = 1;
        commit_seq_ = 0;
    } else {
        if (loadLe64(root) != kRootMagic)
            throw IntegrityError(IntegrityError::Kind::RootMismatch,
                                 root_record_base_,
                                 "root record magic mismatch");
        const std::uint64_t seq = loadLe64(root + kRootSeqOffset);
        Gcm::Tag stored;
        std::memcpy(stored.data(), root + kRootTagOffset,
                    stored.size());
        if (!Gcm::tagsEqual(stored, rootRecordTag(seq, root)))
            throw IntegrityError(IntegrityError::Kind::RootMismatch,
                                 root_record_base_,
                                 "root record tag verification failed");
        next_version_ = loadLe64(root + kRootVersionOffset);
        scan.slot_iv_floor = loadLe64(root + kRootIvOffset);
        commit_seq_ = seq;
        if (max_version >= next_version_)
            throw IntegrityError(
                IntegrityError::Kind::RootMismatch, root_record_base_,
                "record version at or beyond the committed watermark");
        if (mode_ == IntegrityMode::Tree &&
            std::memcmp(root + kRootHashOffset, node_hash_[0].data(),
                        kHashBytes) != 0)
            throw IntegrityError(
                IntegrityError::Kind::RootMismatch, root_record_base_,
                "recomputed Merkle root disagrees with the committed "
                "root record");
    }

    if (stamps)
        stamps->close(RecoveryStats::IntegrityVerify, obs::hostNowNs());
    if (mode_ == IntegrityMode::Tree) {
        // The persisted interior nodes are an untrusted accelerator:
        // lazily streamed, possibly stale after a crash. Repair, never
        // believe.
        PSORAM_TRACE_SCOPE("recovery", "node_repair", 0);
        std::uint8_t stored[kHashBytes];
        for (BucketId b = 0; b < geo.numBuckets(); ++b) {
            device.readBytes(merkle_region_base_ + b * kHashBytes,
                             stored, sizeof(stored));
            if (std::memcmp(stored, node_hash_[b].data(), kHashBytes) !=
                0) {
                device.writeBytes(
                    merkle_region_base_ + b * kHashBytes,
                    node_hash_[b].data(), kHashBytes, Durability::Quiet);
                ++scan.nodes_repaired;
            }
        }
    }
    dirty_nodes_.clear();
    scan.slot_iv_floor = std::max(scan.slot_iv_floor, max_slot_iv);
    nodes_repaired_ = scan.nodes_repaired;
    return scan;
}

} // namespace psoram
