#include "oram/block.hh"

#include <cstring>


namespace psoram {

namespace {

// Tweaks keep header and data keystreams disjoint under one IV counter.
constexpr std::uint64_t kHeaderTweak = 0x4845414445520000ULL; // "HEADER"
constexpr std::uint64_t kDataTweak = 0x44415441424c4bULL;     // "DATABLK"

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Counter block (iv || ctr), the CtrCipher keystream input layout. */
void
counterBlock(std::uint64_t iv, std::uint64_t ctr, Aes128::Block &out)
{
    std::memcpy(out.data(), &iv, sizeof(iv));
    std::memcpy(out.data() + sizeof(iv), &ctr, sizeof(ctr));
}

/**
 * The five counter blocks of one slot: the header under the header IV,
 * then the four payload blocks under the data IV derived from IV1/IV2.
 */
void
slotCounters(std::uint64_t iv1, Aes128::Block *ks)
{
    const std::uint32_t iv2 = static_cast<std::uint32_t>(mix64(iv1));
    counterBlock(iv1 ^ kHeaderTweak, 0, ks[0]);
    const std::uint64_t data_iv = (iv1 ^ kDataTweak) + iv2;
    for (std::uint64_t c = 0; c < 4; ++c)
        counterBlock(data_iv, c, ks[1 + c]);
}

/** dst = src ^ keystream over @p lanes 16-byte lanes. */
void
xorLanes(std::uint8_t *dst, const std::uint8_t *src,
         const Aes128::Block *ks, std::size_t lanes)
{
    for (std::size_t l = 0; l < lanes; ++l)
        for (std::size_t h = 0; h < Aes128::kBlockBytes; h += 8) {
            std::uint64_t word, key;
            std::memcpy(&word, src + 16 * l + h, 8);
            std::memcpy(&key, ks[l].data() + h, 8);
            word ^= key;
            std::memcpy(dst + 16 * l + h, &word, 8);
        }
}

} // namespace

BlockCodec::BlockCodec(const Aes128::Key &key, CipherKind kind)
    : kind_(kind), aes_(key)
{
    if (kind_ == CipherKind::FastStream) {
        std::uint64_t folded = 0x243f6a8885a308d3ULL;
        for (std::size_t i = 0; i < key.size(); ++i)
            folded = mix64(folded ^ (std::uint64_t{key[i]} << (8 * (i % 8))));
        fast_key_ = folded;
    }
}

void
BlockCodec::encipher(Aes128::Block *ks, std::size_t count) const
{
    if (kind_ == CipherKind::Aes128Ctr) {
        aes_.encryptBlocks(ks, count);
        return;
    }
    // Fast keyed stream: one mix64 per 8-byte lane, lane k of stream iv
    // being mix64(key ^ iv ^ k * golden). Counter block (iv, c) covers
    // lanes 2c and 2c + 1, stored little-endian.
    for (std::size_t b = 0; b < count; ++b) {
        std::uint64_t iv, ctr;
        std::memcpy(&iv, ks[b].data(), sizeof(iv));
        std::memcpy(&ctr, ks[b].data() + sizeof(iv), sizeof(ctr));
        for (std::size_t half = 0; half < 2; ++half) {
            const std::uint64_t lane = 2 * ctr + half;
            const std::uint64_t word =
                mix64(fast_key_ ^ iv ^ (lane * 0x9e3779b97f4a7c15ULL));
            for (std::size_t i = 0; i < 8; ++i)
                ks[b][8 * half + i] =
                    static_cast<std::uint8_t>(word >> (8 * i));
        }
    }
}

void
BlockCodec::encodeWith(std::size_t n, const PlainBlock *const *blocks,
                       std::uint8_t *const *out, Aes128::Block *ks)
{
    const std::uint64_t first_iv = next_iv_;
    next_iv_ += n;
    for (std::size_t i = 0; i < n; ++i)
        slotCounters(first_iv + i, ks + kStreamBlocksPerSlot * i);
    encipher(ks, kStreamBlocksPerSlot * n);

    for (std::size_t i = 0; i < n; ++i) {
        const PlainBlock &block = *blocks[i];
        const Aes128::Block *stream = ks + kStreamBlocksPerSlot * i;
        std::uint8_t *slot = out[i];
        const std::uint64_t iv1 = first_iv + i;
        std::memcpy(slot, &iv1, 8);

        std::uint8_t header[16];
        std::memcpy(header, &block.addr, 8);
        std::memcpy(header + 8, &block.path, 4);
        std::memcpy(header + 12, &block.epoch, 4);
        xorLanes(slot + 8, header, stream, 1);
        xorLanes(slot + 24, block.data.data(), stream + 1,
                 kBlockDataBytes / Aes128::kBlockBytes);
        std::memset(slot + kSlotPayloadBytes, 0,
                    kSlotBytes - kSlotPayloadBytes);
    }
}

void
BlockCodec::decodeWith(std::size_t n, const std::uint8_t *records,
                       std::size_t stride, PlainBlock *out,
                       Aes128::Block *ks) const
{
    // Never-written slots (IV1 == 0: lazily materialized tree storage
    // reads as zero) are by construction dummies and take no keystream.
    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t iv1;
        std::memcpy(&iv1, records + i * stride, 8);
        if (iv1 != 0)
            slotCounters(iv1, ks + kStreamBlocksPerSlot * live++);
    }
    encipher(ks, kStreamBlocksPerSlot * live);

    const Aes128::Block *stream = ks;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t *slot = records + i * stride;
        std::uint64_t iv1;
        std::memcpy(&iv1, slot, 8);
        PlainBlock &block = out[i];
        if (iv1 == 0) {
            block = PlainBlock::dummy();
            continue;
        }
        std::uint8_t header[16];
        xorLanes(header, slot + 8, stream, 1);
        std::memcpy(&block.addr, header, 8);
        std::memcpy(&block.path, header + 8, 4);
        std::memcpy(&block.epoch, header + 12, 4);
        xorLanes(block.data.data(), slot + 24, stream + 1,
                 kBlockDataBytes / Aes128::kBlockBytes);
        stream += kStreamBlocksPerSlot;
    }
}

void
BlockCodec::encode(std::size_t n, const PlainBlock *const *blocks,
                   std::uint8_t *const *out, CodecScratch &scratch)
{
    scratch.resize(kStreamBlocksPerSlot * n);
    encodeWith(n, blocks, out, scratch.data());
}

void
BlockCodec::decode(std::size_t n, const std::uint8_t *records,
                   std::size_t stride, PlainBlock *out,
                   CodecScratch &scratch) const
{
    scratch.resize(kStreamBlocksPerSlot * n);
    decodeWith(n, records, stride, out, scratch.data());
}

SlotBytes
BlockCodec::encode(const PlainBlock &block)
{
    SlotBytes slot;
    const PlainBlock *blocks[1] = {&block};
    std::uint8_t *out[1] = {slot.data()};
    Aes128::Block ks[kStreamBlocksPerSlot];
    encodeWith(1, blocks, out, ks);
    return slot;
}

PlainBlock
BlockCodec::decode(const SlotBytes &slot) const
{
    PlainBlock block;
    Aes128::Block ks[kStreamBlocksPerSlot];
    decodeWith(1, slot.data(), kSlotBytes, &block, ks);
    return block;
}

} // namespace psoram
