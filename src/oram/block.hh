/**
 * @file
 * ORAM block representation and its encrypted wire format.
 *
 * Each bucket slot in the NVM-resident ORAM tree stores one block:
 *
 *   [ IV1 : 8B plaintext ]
 *   [ header : 16B, CTR-encrypted under IV1 ]
 *       program address (8B) | path id (4B) | IV2 (4B)
 *   [ data : 64B, CTR-encrypted under the data IV derived from IV1/IV2 ]
 *
 * following the split header/payload encryption of Fletcher et al. (paper
 * ref [20]). Dummy blocks carry the special address ⊥ (kDummyBlockAddr)
 * and random-looking payloads, indistinguishable on the bus from real
 * blocks.
 */

#ifndef PSORAM_ORAM_BLOCK_HH
#define PSORAM_ORAM_BLOCK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "crypto/aes128.hh"

namespace psoram {

/** Decrypted (on-chip) view of a block. */
struct PlainBlock
{
    BlockAddr addr = kDummyBlockAddr;
    PathId path = kInvalidPath;
    /**
     * Remap epoch: incremented every time the block is re-labeled. A
     * tree copy is live iff both its path AND epoch match the committed
     * PosMap entry — the path alone cannot invalidate an old backup
     * when a later remap happens to land on the same leaf again.
     */
    std::uint32_t epoch = 0;
    std::array<std::uint8_t, kBlockDataBytes> data{};

    bool isDummy() const { return addr == kDummyBlockAddr; }

    static PlainBlock
    dummy()
    {
        return PlainBlock{};
    }
};

/** Bytes of one bucket slot as stored in NVM (88B payload + pad). */
inline constexpr std::size_t kSlotBytes = 96;
inline constexpr std::size_t kSlotPayloadBytes = 88;

/** Serialized slot. */
using SlotBytes = std::array<std::uint8_t, kSlotBytes>;

/**
 * Cipher selection: real AES-128 CTR for functional/security testing, or
 * a fast keyed XOR stream for large timing sweeps (same interface, same
 * wire layout, ~100x faster in software; the hardware latency model is
 * identical either way).
 */
enum class CipherKind { Aes128Ctr, FastStream };

/**
 * Keystream scratch of the path-batch codec forms: five AES blocks per
 * slot. The caller owns it (a phase's per-access scratch), so decode()
 * stays safe to call concurrently through a const codec.
 */
using CodecScratch = std::vector<Aes128::Block>;

/**
 * Encrypts/decrypts blocks to/from their slot wire format. Owns the IV
 * counter: every encode consumes fresh IVs, so re-encrypting the same
 * plaintext yields a different ciphertext (probabilistic encryption).
 *
 * There is one code path, the path batch: the header and payload
 * keystreams of all n slots (one counter block for the 16-byte header,
 * four for the 64-byte payload) are built into one array and
 * enciphered by one Aes128::encryptBlocks call. The single-slot forms
 * are its n = 1 case.
 */
class BlockCodec
{
  public:
    BlockCodec(const Aes128::Key &key, CipherKind kind);

    BlockCodec(const BlockCodec &) = delete;
    BlockCodec &operator=(const BlockCodec &) = delete;

    /** Encrypt @p block into slot wire format with fresh IVs. */
    SlotBytes encode(const PlainBlock &block);

    /** Decrypt a slot. All-zero slots decode as dummy blocks. */
    PlainBlock decode(const SlotBytes &slot) const;

    /**
     * Path-batch encode: encrypt @p blocks[i] into the kSlotBytes at
     * @p out[i] for i < @p n, consuming IVs in index order (the
     * emission order). Byte-identical to n single encodes.
     */
    void encode(std::size_t n, const PlainBlock *const *blocks,
                std::uint8_t *const *out, CodecScratch &scratch);

    /**
     * Path-batch decode: decrypt the n slots at @p records +
     * i * @p stride into @p out[i]. All-zero slots decode as dummies.
     * Byte-identical to n single decodes.
     */
    void decode(std::size_t n, const std::uint8_t *records,
                std::size_t stride, PlainBlock *out,
                CodecScratch &scratch) const;

    CipherKind kind() const { return kind_; }

    /** Number of encodes performed (== IVs consumed). */
    std::uint64_t encodeCount() const { return next_iv_; }

    /** The IV1 the next encode will consume. */
    std::uint64_t nextIv() const { return next_iv_; }

    /**
     * Recovery resume: make sure no future encode reuses an IV at or
     * below @p floor (the watermark the integrity root record
     * persisted). A fresh controller restarting at IV 1 over a
     * populated tree would otherwise repeat CTR keystreams.
     */
    void
    resumeIvsAfter(std::uint64_t floor)
    {
        if (next_iv_ <= floor)
            next_iv_ = floor + 1;
    }

  private:
    /** Counter blocks per slot: one header block, four payload blocks. */
    static constexpr std::size_t kStreamBlocksPerSlot = 5;

    /** @{ The batch forms over caller-sized keystream space @p ks. */
    void encodeWith(std::size_t n, const PlainBlock *const *blocks,
                    std::uint8_t *const *out, Aes128::Block *ks);
    void decodeWith(std::size_t n, const std::uint8_t *records,
                    std::size_t stride, PlainBlock *out,
                    Aes128::Block *ks) const;
    /** @} */

    /** Turn @p count counter blocks (iv || ctr) into keystream. */
    void encipher(Aes128::Block *ks, std::size_t count) const;

    CipherKind kind_;
    Aes128 aes_;
    std::uint64_t fast_key_ = 0;
    std::uint64_t next_iv_ = 1;
};

} // namespace psoram

#endif // PSORAM_ORAM_BLOCK_HH
