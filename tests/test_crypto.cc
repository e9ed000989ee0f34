/**
 * @file
 * Crypto substrate tests: AES-128 against FIPS-197 / NIST known-answer
 * vectors and CTR-mode / fast-stream behaviour.
 *
 * Every known-answer test runs twice — once on the scalar reference
 * path and once on the dispatched (AES-NI where available) path — via
 * the Aes128::forceScalar() hook, so both backends are pinned to the
 * NIST vectors and to each other.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "crypto/aes128.hh"
#include "crypto/ctr.hh"
#include "crypto/gcm.hh"
#include "crypto/sha256.hh"

namespace psoram {
namespace {

Aes128::Key
keyFromBytes(std::initializer_list<std::uint8_t> bytes)
{
    Aes128::Key key{};
    std::size_t i = 0;
    for (const auto b : bytes)
        key[i++] = b;
    return key;
}

/** Run @p body under both cipher backends (scalar + dispatched). */
template <typename Fn>
void
onBothPaths(Fn &&body)
{
    Aes128::forceScalar(true);
    body("scalar");
    Aes128::forceScalar(false);
    body(Aes128::aesniAvailable() ? "aesni" : "scalar-dispatch");
    Aes128::forceScalar(false);
}

// FIPS-197 Appendix B: single-block known-answer test.
TEST(Aes128, Fips197AppendixB)
{
    const Aes128::Key key = keyFromBytes(
        {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
    Aes128::Block plaintext = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30,
                               0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                               0x07, 0x34};
    const Aes128::Block expected = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                    0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                    0x19, 0x6a, 0x0b, 0x32};
    Aes128 aes(key);
    onBothPaths([&](const char *path) {
        EXPECT_EQ(aes.encrypt(plaintext), expected) << path;
    });
}

// FIPS-197 Appendix C.1: the sequential-byte example vector.
TEST(Aes128, Fips197AppendixC1)
{
    Aes128::Key key{};
    Aes128::Block plaintext{};
    for (std::size_t i = 0; i < 16; ++i) {
        key[i] = static_cast<std::uint8_t>(i);
        plaintext[i] = static_cast<std::uint8_t>(i * 0x11);
    }
    const Aes128::Block expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                    0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                    0x70, 0xb4, 0xc5, 0x5a};
    Aes128 aes(key);
    onBothPaths([&](const char *path) {
        EXPECT_EQ(aes.encrypt(plaintext), expected) << path;
    });
}

// NIST SP 800-38A F.1.1 ECB-AES128 vectors (first two blocks).
TEST(Aes128, Sp80038aEcbVectors)
{
    const Aes128::Key key = keyFromBytes(
        {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
    Aes128 aes(key);

    const Aes128::Block p1 = {0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f,
                              0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
                              0x17, 0x2a};
    const Aes128::Block c1 = {0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36,
                              0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                              0xef, 0x97};
    EXPECT_EQ(aes.encrypt(p1), c1);

    const Aes128::Block p2 = {0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac,
                              0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
                              0x8e, 0x51};
    const Aes128::Block c2 = {0xf5, 0xd3, 0xd5, 0x85, 0x03, 0xb9, 0x69,
                              0x9d, 0xe7, 0x85, 0x89, 0x5a, 0x96, 0xfd,
                              0xba, 0xaf};
    onBothPaths([&](const char *path) {
        EXPECT_EQ(aes.encrypt(p1), c1) << path;
        EXPECT_EQ(aes.encrypt(p2), c2) << path;
    });
}

TEST(Aes128, AllZeroKeyVector)
{
    // NIST known-answer: AES-128(0^128 key, 0^128 block).
    Aes128 aes(Aes128::Key{});
    const Aes128::Block expected = {0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a,
                                    0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59,
                                    0xca, 0x34, 0x2b, 0x2e};
    onBothPaths([&](const char *path) {
        EXPECT_EQ(aes.encrypt(Aes128::Block{}), expected) << path;
    });
}

// The batched entry point must equal block-at-a-time scalar
// encryption at every count from 1 to 17, which crosses the 8-lane
// groups and the 4-lane and 1-block tails, on both backends.
TEST(Aes128, BatchedMatchesSingleBlocks)
{
    const Aes128::Key key = keyFromBytes({9, 8, 7, 6, 5, 4, 3, 2, 1});
    Aes128 aes(key);
    for (std::size_t count = 1; count <= 17; ++count) {
        std::vector<Aes128::Block> batch(count);
        std::vector<Aes128::Block> singles(count);
        for (std::size_t b = 0; b < count; ++b)
            for (std::size_t i = 0; i < 16; ++i)
                batch[b][i] = singles[b][i] =
                    static_cast<std::uint8_t>(b * 31 + i);

        onBothPaths([&](const char *path) {
            std::vector<Aes128::Block> work = batch;
            aes.encryptBlocks(work.data(), count);
            std::vector<Aes128::Block> ref = singles;
            Aes128::forceScalar(true); // singles via the reference path
            for (auto &block : ref)
                aes.encryptBlock(block);
            Aes128::forceScalar(false);
            EXPECT_EQ(work, ref) << path << " count=" << count;
        });
    }
}

// Both backends must produce identical ciphertext on random-ish data
// (on hardware without AES-NI the dispatched path is also scalar, so
// the test degenerates to a self-check).
TEST(Aes128, AesniMatchesScalar)
{
    const Aes128::Key key = keyFromBytes(
        {0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab,
         0xcd, 0xef, 0x10, 0x32, 0x54, 0x76});
    Aes128 aes(key);
    std::vector<Aes128::Block> blocks(11);
    for (std::size_t b = 0; b < blocks.size(); ++b)
        for (std::size_t i = 0; i < 16; ++i)
            blocks[b][i] = static_cast<std::uint8_t>(b * 131 + i * 7);

    std::vector<Aes128::Block> scalar_out = blocks;
    Aes128::forceScalar(true);
    aes.encryptBlocks(scalar_out.data(), scalar_out.size());
    Aes128::forceScalar(false);

    std::vector<Aes128::Block> dispatched_out = blocks;
    aes.encryptBlocks(dispatched_out.data(), dispatched_out.size());

    EXPECT_EQ(scalar_out, dispatched_out);
}

TEST(CtrCipher, RoundTripIsIdentity)
{
    const Aes128::Key key = keyFromBytes({1, 2, 3, 4, 5, 6, 7, 8});
    CtrCipher cipher(key);
    std::uint8_t data[100];
    for (int i = 0; i < 100; ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    std::uint8_t original[100];
    std::memcpy(original, data, sizeof(data));

    cipher.apply(0x1234, data, sizeof(data));
    EXPECT_NE(std::memcmp(data, original, sizeof(data)), 0);
    cipher.apply(0x1234, data, sizeof(data));
    EXPECT_EQ(std::memcmp(data, original, sizeof(data)), 0);
}

TEST(CtrCipher, DifferentIvsDifferentKeystreams)
{
    CtrCipher cipher(Aes128::Key{});
    std::uint8_t a[64] = {};
    std::uint8_t b[64] = {};
    cipher.apply(1, a, sizeof(a));
    cipher.apply(2, b, sizeof(b));
    EXPECT_NE(std::memcmp(a, b, sizeof(a)), 0);
}

TEST(CtrCipher, PartialBlockLengths)
{
    CtrCipher cipher(Aes128::Key{});
    for (const std::size_t len : {1u, 7u, 15u, 16u, 17u, 63u}) {
        std::vector<std::uint8_t> data(len, 0xAA);
        const std::vector<std::uint8_t> original = data;
        cipher.apply(99, data.data(), len);
        cipher.apply(99, data.data(), len);
        EXPECT_EQ(data, original) << "len=" << len;
    }
}

// The batched CTR keystream must be identical on both backends and
// across awkward lengths (the batch covers up to 8 counter blocks).
TEST(CtrCipher, BothPathsProduceIdenticalKeystream)
{
    CtrCipher cipher(keyFromBytes({42, 1, 42, 2, 42, 3}));
    for (const std::size_t len : {1u, 16u, 31u, 64u, 96u, 100u, 129u}) {
        std::vector<std::uint8_t> scalar_buf(len, 0);
        Aes128::forceScalar(true);
        cipher.apply(0xfeedbead, scalar_buf.data(), len);
        Aes128::forceScalar(false);

        std::vector<std::uint8_t> dispatched_buf(len, 0);
        cipher.apply(0xfeedbead, dispatched_buf.data(), len);

        EXPECT_EQ(scalar_buf, dispatched_buf) << "len=" << len;
    }
}

TEST(CtrCipher, PrefixConsistency)
{
    // The first 16 bytes of a 64-byte encryption equal a 16-byte
    // encryption with the same IV (counter-mode structure).
    CtrCipher cipher(Aes128::Key{});
    std::uint8_t longbuf[64] = {};
    std::uint8_t shortbuf[16] = {};
    cipher.apply(5, longbuf, sizeof(longbuf));
    cipher.apply(5, shortbuf, sizeof(shortbuf));
    EXPECT_EQ(std::memcmp(longbuf, shortbuf, 16), 0);
}

std::vector<std::uint8_t>
fromHex(const std::string &hex)
{
    std::vector<std::uint8_t> out(hex.size() / 2);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(
            std::stoul(hex.substr(2 * i, 2), nullptr, 16));
    return out;
}

Gcm::Iv
ivFromHex(const std::string &hex)
{
    const std::vector<std::uint8_t> bytes = fromHex(hex);
    Gcm::Iv iv{};
    std::copy(bytes.begin(), bytes.end(), iv.begin());
    return iv;
}

Gcm::Tag
tagFromHex(const std::string &hex)
{
    const std::vector<std::uint8_t> bytes = fromHex(hex);
    Gcm::Tag tag{};
    std::copy(bytes.begin(), bytes.end(), tag.begin());
    return tag;
}

/** One NIST GCM known-answer case, checked seal-then-open. */
void
checkGcmVector(const std::string &key_hex, const std::string &iv_hex,
               const std::string &pt_hex, const std::string &aad_hex,
               const std::string &ct_hex, const std::string &tag_hex)
{
    const std::vector<std::uint8_t> key_bytes = fromHex(key_hex);
    Aes128::Key key{};
    std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
    const Gcm::Iv iv = ivFromHex(iv_hex);
    const std::vector<std::uint8_t> pt = fromHex(pt_hex);
    const std::vector<std::uint8_t> aad = fromHex(aad_hex);
    const std::vector<std::uint8_t> expected_ct = fromHex(ct_hex);
    const Gcm::Tag expected_tag = tagFromHex(tag_hex);

    const Gcm gcm(key);
    std::vector<std::uint8_t> ct(pt.size());
    const Gcm::Tag tag = gcm.seal(iv, aad.data(), aad.size(), pt.data(),
                                  ct.data(), pt.size());
    EXPECT_EQ(ct, expected_ct);
    EXPECT_EQ(tag, expected_tag);

    std::vector<std::uint8_t> decrypted(ct.size(), 0xEE);
    EXPECT_TRUE(gcm.open(iv, aad.data(), aad.size(), ct.data(),
                         decrypted.data(), ct.size(), expected_tag));
    EXPECT_EQ(decrypted, pt);
}

// NIST GCM test cases 1-4 (the canonical AES-128 vectors from the
// GCM submission, cross-checked against SP 800-38D validation data).
TEST(Gcm, NistKnownAnswerVectorsBothPaths)
{
    onBothPaths([&](const char *path) {
        SCOPED_TRACE(path);
        // Case 1: empty plaintext, empty AAD.
        checkGcmVector("00000000000000000000000000000000",
                       "000000000000000000000000", "", "", "",
                       "58e2fccefa7e3061367f1d57a4e7455a");
        // Case 2: one zero block.
        checkGcmVector("00000000000000000000000000000000",
                       "000000000000000000000000",
                       "00000000000000000000000000000000", "",
                       "0388dace60b6a392f328c2b971b2fe78",
                       "ab6e47d42cec13bdf53a67b21257bddf");
        // Case 3: four blocks, no AAD.
        checkGcmVector(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d"
            "8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657"
            "ba637b391aafd255",
            "",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e23"
            "29aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac97"
            "3d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4");
        // Case 4: 60-byte plaintext (partial final block) + AAD.
        checkGcmVector(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d"
            "8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657"
            "ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e23"
            "29aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac97"
            "3d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47");
    });
}

TEST(Gcm, RejectsWrongAad)
{
    const Gcm gcm(keyFromBytes({1, 2, 3, 4}));
    const Gcm::Iv iv{1};
    const std::uint8_t aad[] = {0xAA, 0xBB, 0xCC};
    std::uint8_t pt[40];
    for (std::size_t i = 0; i < sizeof(pt); ++i)
        pt[i] = static_cast<std::uint8_t>(i);
    std::uint8_t ct[40];
    const Gcm::Tag tag =
        gcm.seal(iv, aad, sizeof(aad), pt, ct, sizeof(pt));

    std::uint8_t out[40];
    std::uint8_t wrong_aad[] = {0xAA, 0xBB, 0xCD};
    EXPECT_FALSE(gcm.open(iv, wrong_aad, sizeof(wrong_aad), ct, out,
                          sizeof(ct), tag));
    // Shorter AAD (a "truncated AAD" splice) must also fail.
    EXPECT_FALSE(gcm.open(iv, aad, sizeof(aad) - 1, ct, out,
                          sizeof(ct), tag));
    EXPECT_TRUE(
        gcm.open(iv, aad, sizeof(aad), ct, out, sizeof(ct), tag));
}

TEST(Gcm, RejectsTruncatedOrTamperedTag)
{
    const Gcm gcm(keyFromBytes({7, 7, 7}));
    const Gcm::Iv iv{9};
    std::uint8_t pt[16] = {1, 2, 3};
    std::uint8_t ct[16];
    const Gcm::Tag tag = gcm.seal(iv, nullptr, 0, pt, ct, sizeof(pt));

    std::uint8_t out[16] = {};
    // A tag whose tail is zeroed (truncated-then-padded) must fail —
    // an attacker chopping the stored tag cannot shorten the check.
    Gcm::Tag truncated = tag;
    for (std::size_t i = 8; i < truncated.size(); ++i)
        truncated[i] = 0;
    EXPECT_FALSE(
        gcm.open(iv, nullptr, 0, ct, out, sizeof(ct), truncated));
    // Every single-bit flip of the tag must fail.
    for (const std::size_t byte : {0u, 5u, 15u}) {
        Gcm::Tag flipped = tag;
        flipped[byte] ^= 0x01;
        EXPECT_FALSE(
            gcm.open(iv, nullptr, 0, ct, out, sizeof(ct), flipped))
            << "byte " << byte;
    }
    // Flipped ciphertext under the correct tag must fail too, and the
    // plaintext buffer must stay untouched.
    std::uint8_t tampered_ct[16];
    std::memcpy(tampered_ct, ct, sizeof(ct));
    tampered_ct[3] ^= 0x80;
    std::memset(out, 0xEE, sizeof(out));
    EXPECT_FALSE(
        gcm.open(iv, nullptr, 0, tampered_ct, out, sizeof(out), tag));
    for (const std::uint8_t b : out)
        EXPECT_EQ(b, 0xEE);
}

TEST(Gcm, GmacIsDeterministicAndIvSensitive)
{
    const Gcm gcm(keyFromBytes({3, 1, 4, 1, 5}));
    const std::uint8_t aad[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    const Gcm::Iv iv_a{1};
    const Gcm::Iv iv_b{2};
    EXPECT_EQ(gcm.mac(iv_a, aad, sizeof(aad)),
              gcm.mac(iv_a, aad, sizeof(aad)));
    EXPECT_NE(gcm.mac(iv_a, aad, sizeof(aad)),
              gcm.mac(iv_b, aad, sizeof(aad)));
    // GMAC == full GCM tag with an empty plaintext.
    std::uint8_t empty = 0;
    const Gcm::Tag sealed =
        gcm.seal(iv_a, aad, sizeof(aad), &empty, &empty, 0);
    EXPECT_EQ(gcm.mac(iv_a, aad, sizeof(aad)), sealed);
}

Sha256::Digest
digestOf(const std::string &msg)
{
    return Sha256::digest(
        reinterpret_cast<const std::uint8_t *>(msg.data()), msg.size());
}

// FIPS 180-4 known-answer vectors.
TEST(Sha256, KnownAnswerVectors)
{
    const auto expect = [](const Sha256::Digest &digest,
                           const std::string &hex) {
        const std::vector<std::uint8_t> want = fromHex(hex);
        EXPECT_TRUE(
            std::equal(digest.begin(), digest.end(), want.begin()));
    };
    expect(digestOf(""),
           "e3b0c44298fc1c149afbf4c8996fb924"
           "27ae41e4649b934ca495991b7852b855");
    expect(digestOf("abc"),
           "ba7816bf8f01cfea414140de5dae2223"
           "b00361a396177a9cb410ff61f20015ad");
    expect(digestOf("abcdbcdecdefdefgefghfghighijhijk"
                    "ijkljklmklmnlmnomnopnopq"),
           "248d6a61d20638b8e5c026930c3e6039"
           "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    std::vector<std::uint8_t> msg(1000);
    for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<std::uint8_t>(i * 13);
    const Sha256::Digest oneshot = Sha256::digest(msg.data(), msg.size());

    // Feed in awkward chunk sizes that straddle block boundaries.
    Sha256 h;
    std::size_t off = 0;
    const std::size_t chunks[] = {1, 63, 64, 65, 7, 130, 670};
    for (const std::size_t chunk : chunks) {
        h.update(msg.data() + off, chunk);
        off += chunk;
    }
    ASSERT_EQ(off, msg.size());
    EXPECT_EQ(h.finish(), oneshot);

    h.reset();
    h.update(msg.data(), msg.size());
    EXPECT_EQ(h.finish(), oneshot);
}

} // namespace
} // namespace psoram
