/**
 * @file
 * Memory-integrity subsystem: authenticated bucket records and a
 * persistent Merkle tree over the ORAM tree (ROADMAP item 4).
 *
 * The paper's threat model gives the attacker the NVM: CTR encryption
 * alone accepts any bit-flip, any stale-record replay, and any
 * zero-wipe — including during crash recovery, when the recovery scan
 * consumes whatever bytes the NVM holds. This layer closes that hole
 * in two escalation steps (SystemConfig::integrity):
 *
 *   mac  — every tree record carries a GMAC tag (crypto/gcm.hh) bound
 *          to its NVM address and a globally monotonic version via the
 *          AAD and a never-repeating IV. In-place modification and
 *          cross-slot splicing are detected; *replaying* a stale
 *          (record, tag) pair or wiping a record back to the
 *          never-written all-zero state is NOT (the pair is internally
 *          consistent) — the documented mac-mode gap.
 *   tree — additionally maintains a SHA-256 Merkle tree congruent with
 *          the bucket tree. The trusted root lives in controller RAM
 *          and is persisted *atomically with every ADR round commit*
 *          as a root record riding the PosMap WPQ, so any committed
 *          prefix of rounds carries a root that matches exactly the
 *          records that prefix wrote: replay, wipe and rollback of any
 *          record are detected at read and at recovery.
 *
 * Persist-ordering / crash-consistency argument (DESIGN.md §15):
 *
 *   - The durability atom is the *record* (slot ciphertext + tag +
 *     version in one WPQ entry), not the bucket: WPQ rounds may split
 *     mid-bucket (wpq_entries < Z), and a tag spanning a bucket would
 *     tear across rounds. Binding tag to record keeps every committed
 *     prefix self-consistent.
 *   - Interior Merkle nodes are *streamed lazily* with quiet writes
 *     (no persist boundaries, off the enumerable crash surface) after
 *     round commit; recovery never trusts them — it recomputes every
 *     node from the verified records and repairs the persisted copies.
 *     Only the root record is load-bearing, and it commits inside the
 *     existing ADR bracket: the access path gains zero new persist
 *     boundary kinds.
 *   - The root record lives in the same trusted persistent region the
 *     paper already assumes for the PosMap ("Trusted-NVM-region
 *     persistent PosMap", oram/posmap.hh): an attacker who can roll
 *     back the *entire* NVM including that region to a consistent old
 *     snapshot defeats any integrity scheme without a hardware
 *     monotonic counter; everything short of that is detected.
 *
 * Scope: persistent non-recursive PS-ORAM, the designs whose eviction
 * puts whole records through the WPQ the root record binds to
 * (sim/system.cc enforces this). The freshness cache is per-controller
 * state, touched only by the thread driving that controller.
 */

#ifndef PSORAM_ORAM_INTEGRITY_HH
#define PSORAM_ORAM_INTEGRITY_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/stats.hh"
#include "crypto/gcm.hh"
#include "crypto/sha256.hh"
#include "mem/backend.hh"
#include "nvm/wpq.hh"
#include "oram/block.hh"
#include "oram/tree.hh"

namespace psoram {

enum class IntegrityMode { Off, Mac, Tree };

const char *integrityModeName(IntegrityMode mode);

/** Parse "off" / "mac" / "tree". @return false on unknown input */
bool parseIntegrityMode(const std::string &text, IntegrityMode &out);

/**
 * Authenticated record layout (TreeLayout::record_bytes = 128):
 *
 *   [0, 96)    slot ciphertext (the historical wire format, unchanged)
 *   [96, 112)  GMAC tag over (record NVM address, version, ciphertext)
 *   [112, 120) record version, little-endian (0 = never written)
 *   [120, 128) reserved, zero
 */
inline constexpr std::uint64_t kIntegrityRecordBytes = 128;
inline constexpr std::size_t kRecordTagOffset = kSlotBytes;
inline constexpr std::size_t kRecordVersionOffset = kSlotBytes + 16;

/** Typed refusal: a record, node or root failed verification. */
class IntegrityError : public std::runtime_error
{
  public:
    enum class Kind
    {
        /** GMAC tag does not match the record content. */
        MacMismatch,
        /** Record hash disagrees with the trusted Merkle state
         *  (stale replay, wipe, or rollback of a single record). */
        HashMismatch,
        /** Persisted root record is missing, malformed, or disagrees
         *  with the recomputed tree root. */
        RootMismatch,
        /** Record is neither all-zero nor carries a version — a torn
         *  or spliced write that no crash can produce. */
        TornRecord,
    };

    IntegrityError(Kind kind, Addr addr, const std::string &detail);

    Kind kind() const { return kind_; }
    Addr addr() const { return addr_; }

    static const char *kindName(Kind kind);

  private:
    Kind kind_;
    Addr addr_;
};

class IntegrityManager
{
  public:
    static constexpr std::size_t kHashBytes = Sha256::kDigestBytes;
    static constexpr std::size_t kRootRecordBytes = 128;

    /** Recovery scan outcome (also the I5 invariant-check evidence). */
    struct RecoveryScan
    {
        /** Versioned (written) records whose tags verified. */
        std::uint64_t records_verified = 0;
        /** Persisted interior nodes rewritten because they lagged the
         *  recomputed tree (lazy staleness after a crash). */
        std::uint64_t nodes_repaired = 0;
        /** Codec IV watermark from the root record (resume floor). */
        std::uint64_t slot_iv_floor = 0;
    };

    /**
     * @param key the system key (the GMAC subkey is derived from it)
     * @param mode Mac or Tree (Off never constructs a manager)
     * @param layout data-tree layout with record_bytes == 128
     * @param root_record_base NVM address of the per-round root record
     * @param merkle_region_base base of the persisted interior-node
     *        array (numBuckets * 32 bytes); 0 in mac mode
     */
    IntegrityManager(const Aes128::Key &key, IntegrityMode mode,
                     const TreeLayout &layout, Addr root_record_base,
                     Addr merkle_region_base);

    IntegrityMode mode() const { return mode_; }

    /**
     * Eviction write-back: format @p cipher plus a fresh version and
     * its tag into @p out (kIntegrityRecordBytes bytes).
     */
    void sealRecord(BucketId bucket, unsigned slot,
                    const SlotBytes &cipher, std::uint8_t *out);

    /**
     * Read-path verification of a record read from the device.
     * @throws IntegrityError on any mismatch
     */
    void verifyRecord(BucketId bucket, unsigned slot,
                      const std::uint8_t *record) const;

    /**
     * WPQ drain: account one data record entering the committing
     * round (updates the Merkle path of its bucket).
     */
    void noteRoundWrite(Addr addr, const std::uint8_t *record,
                        std::size_t len);

    /**
     * The root record for the round about to commit; rides the PosMap
     * WPQ inside the same ADR bracket as the data it covers.
     * @param next_slot_iv the codec's IV watermark to persist
     */
    WpqEntry makeRootRecord(std::uint64_t next_slot_iv);

    /**
     * Lazily persist interior nodes dirtied since the last call, as
     * quiet writes (no persist boundaries). No-op in mac mode.
     */
    void streamDirtyNodes(MemoryBackend &device);

    /**
     * Full recovery scan: verify every record on @p device, rebuild
     * the Merkle state, check it against the persisted root record,
     * repair stale interior nodes, and resume the version counter.
     * @param stamps when set, closes the integrity_verify window once
     *        the record scan and root check are done
     * @throws IntegrityError when any node fails verification
     */
    RecoveryScan recoverFromDevice(MemoryBackend &device,
                                   RecoveryStats::Stamps *stamps = nullptr);

    /** Trusted current root (tree mode). */
    const Sha256::Digest &root() const { return node_hash_[0]; }

    std::uint64_t nextVersion() const { return next_version_; }
    std::uint64_t commitSeq() const { return commit_seq_; }

    /** Interior nodes repaired by the last recoverFromDevice(). */
    std::uint64_t nodesRepaired() const { return nodes_repaired_; }

  private:
    std::uint64_t recordIndexFor(Addr addr) const;
    Gcm::Tag recordTag(Addr record_addr, std::uint64_t version,
                       const std::uint8_t *cipher) const;
    Gcm::Tag rootRecordTag(std::uint64_t seq,
                           const std::uint8_t *payload) const;

    /** Reset hashes to the all-zero-tree defaults. */
    void initFresh();

    /** Recompute bucket + ancestor node hashes from rec_hash_. */
    void refreshBucketPath(BucketId bucket, bool mark_dirty);
    Sha256::Digest bucketHashFor(BucketId bucket) const;
    Sha256::Digest nodeHashFor(BucketId bucket) const;

    IntegrityMode mode_;
    TreeLayout layout_;
    Addr root_record_base_;
    Addr merkle_region_base_;
    Gcm gmac_;

    std::uint64_t next_version_ = 1;
    std::uint64_t commit_seq_ = 0;
    std::uint64_t nodes_repaired_ = 0;

    /** @{ Tree-mode trusted state (drive-thread only). */
    std::vector<Sha256::Digest> rec_hash_;    // per record
    std::vector<Sha256::Digest> bucket_hash_; // per bucket
    std::vector<Sha256::Digest> node_hash_;   // per bucket, [0] = root
    std::unordered_set<BucketId> dirty_nodes_;
    /** @} */
};

} // namespace psoram

#endif // PSORAM_ORAM_INTEGRITY_HH
