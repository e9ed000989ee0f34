/**
 * @file
 * Block codec tests: encrypted wire format round trips, dummy handling,
 * and probabilistic-encryption properties (fresh IVs per encode).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "oram/block.hh"

namespace psoram {
namespace {

PlainBlock
sampleBlock(BlockAddr addr, PathId path)
{
    PlainBlock block;
    block.addr = addr;
    block.path = path;
    for (std::size_t i = 0; i < kBlockDataBytes; ++i)
        block.data[i] = static_cast<std::uint8_t>(addr + i);
    return block;
}

class BlockCodecTest : public ::testing::TestWithParam<CipherKind>
{
  protected:
    Aes128::Key key_{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                     16};
};

TEST_P(BlockCodecTest, RoundTripPreservesEverything)
{
    BlockCodec codec(key_, GetParam());
    const PlainBlock original = sampleBlock(0xDEADBEEF, 42);
    const SlotBytes wire = codec.encode(original);
    const PlainBlock decoded = codec.decode(wire);
    EXPECT_EQ(decoded.addr, original.addr);
    EXPECT_EQ(decoded.path, original.path);
    EXPECT_EQ(decoded.data, original.data);
}

TEST_P(BlockCodecTest, ZeroSlotDecodesAsDummy)
{
    BlockCodec codec(key_, GetParam());
    SlotBytes zero{};
    EXPECT_TRUE(codec.decode(zero).isDummy());
}

TEST_P(BlockCodecTest, DummyRoundTrip)
{
    BlockCodec codec(key_, GetParam());
    const SlotBytes wire = codec.encode(PlainBlock::dummy());
    EXPECT_TRUE(codec.decode(wire).isDummy());
}

TEST_P(BlockCodecTest, ReencodingSamePlaintextChangesCiphertext)
{
    // Probabilistic encryption: the bus must not reveal that the same
    // block is written twice.
    BlockCodec codec(key_, GetParam());
    const PlainBlock block = sampleBlock(7, 3);
    const SlotBytes first = codec.encode(block);
    const SlotBytes second = codec.encode(block);
    EXPECT_NE(first, second);
    EXPECT_EQ(codec.decode(first).data, codec.decode(second).data);
}

TEST_P(BlockCodecTest, CiphertextHidesPlaintextBytes)
{
    BlockCodec codec(key_, GetParam());
    PlainBlock block = sampleBlock(1, 1);
    std::memset(block.data.data(), 0xAB, kBlockDataBytes);
    const SlotBytes wire = codec.encode(block);
    // The payload region must not contain long runs of the plaintext
    // byte.
    int matches = 0;
    for (std::size_t i = 24; i < 24 + kBlockDataBytes; ++i)
        matches += (wire[i] == 0xAB);
    EXPECT_LT(matches, 8);
}

TEST_P(BlockCodecTest, DummyAndRealAreIndistinguishableInSize)
{
    BlockCodec codec(key_, GetParam());
    const SlotBytes real = codec.encode(sampleBlock(1, 1));
    const SlotBytes dummy = codec.encode(PlainBlock::dummy());
    EXPECT_EQ(real.size(), dummy.size());
}

TEST_P(BlockCodecTest, EncodeCountAdvances)
{
    BlockCodec codec(key_, GetParam());
    const auto before = codec.encodeCount();
    codec.encode(PlainBlock::dummy());
    codec.encode(PlainBlock::dummy());
    EXPECT_EQ(codec.encodeCount(), before + 2);
}

TEST_P(BlockCodecTest, DifferentKeysCannotDecode)
{
    BlockCodec codec(key_, GetParam());
    Aes128::Key other = key_;
    other[0] ^= 0xFF;
    BlockCodec wrong(other, GetParam());

    const PlainBlock block = sampleBlock(123, 9);
    const SlotBytes wire = codec.encode(block);
    const PlainBlock decoded = wrong.decode(wire);
    // Wrong key: the header decrypts to garbage, so either the block
    // looks like a different (garbage) address or corrupt data.
    EXPECT_TRUE(decoded.addr != block.addr ||
                decoded.data != block.data);
}

// The path-batch forms are the per-slot code run n slots at a time:
// a batch encode or decode must equal n single calls byte for byte for
// every n from 0 to 17, which crosses the AES-NI kernel's 8-lane,
// 4-lane and 1-block tails over the 5n-block keystream, on both AES
// backends. Destinations and records sit at a wider stride than a
// slot, as in a WPQ entry or an authenticated record.
TEST_P(BlockCodecTest, PathBatchMatchesPerSlotCalls)
{
    constexpr std::size_t kStride = 128;
    for (const bool scalar : {false, true}) {
        Aes128::forceScalar(scalar);
        for (std::size_t n = 0; n <= 17; ++n) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " scalar=" << scalar);
            BlockCodec batch(key_, GetParam());
            BlockCodec single(key_, GetParam());

            std::vector<PlainBlock> blocks;
            for (std::size_t i = 0; i < n; ++i) {
                PlainBlock block = i % 3 == 2
                    ? PlainBlock::dummy()
                    : sampleBlock(1000 + i, static_cast<PathId>(i));
                block.epoch = static_cast<std::uint32_t>(7 * i);
                blocks.push_back(block);
            }
            std::vector<std::uint8_t> wire(n * kStride, 0xEE);
            std::vector<const PlainBlock *> srcs;
            std::vector<std::uint8_t *> dsts;
            for (std::size_t i = 0; i < n; ++i) {
                srcs.push_back(&blocks[i]);
                dsts.push_back(wire.data() + i * kStride);
            }

            CodecScratch scratch;
            const std::uint64_t first_iv = batch.nextIv();
            batch.encode(n, srcs.data(), dsts.data(), scratch);
            EXPECT_EQ(batch.nextIv(), first_iv + n);
            for (std::size_t i = 0; i < n; ++i) {
                const SlotBytes ref = single.encode(blocks[i]);
                EXPECT_EQ(std::memcmp(dsts[i], ref.data(), kSlotBytes), 0)
                    << "slot " << i;
                EXPECT_EQ(dsts[i][kSlotBytes], 0xEE) << "wrote past slot";
            }
            EXPECT_EQ(single.nextIv(), batch.nextIv());

            // Every fourth record reads as never written.
            for (std::size_t i = 3; i < n; i += 4)
                std::memset(dsts[i], 0, kSlotBytes);
            std::vector<PlainBlock> decoded(n);
            batch.decode(n, wire.data(), kStride, decoded.data(), scratch);
            for (std::size_t i = 0; i < n; ++i) {
                SlotBytes slot;
                std::memcpy(slot.data(), dsts[i], kSlotBytes);
                const PlainBlock ref = single.decode(slot);
                EXPECT_EQ(decoded[i].addr, ref.addr) << "slot " << i;
                EXPECT_EQ(decoded[i].path, ref.path) << "slot " << i;
                EXPECT_EQ(decoded[i].epoch, ref.epoch) << "slot " << i;
                EXPECT_EQ(decoded[i].data, ref.data) << "slot " << i;
                if (i % 4 == 3) {
                    EXPECT_TRUE(decoded[i].isDummy()) << "slot " << i;
                } else {
                    EXPECT_EQ(decoded[i].addr, blocks[i].addr);
                    EXPECT_EQ(decoded[i].epoch, blocks[i].epoch);
                    EXPECT_EQ(decoded[i].data, blocks[i].data);
                }
            }
        }
    }
    Aes128::forceScalar(false);
}

INSTANTIATE_TEST_SUITE_P(Ciphers, BlockCodecTest,
                         ::testing::Values(CipherKind::Aes128Ctr,
                                           CipherKind::FastStream),
                         [](const auto &info) {
                             return info.param == CipherKind::Aes128Ctr
                                 ? "Aes" : "Fast";
                         });

} // namespace
} // namespace psoram
