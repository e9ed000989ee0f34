#include "common/crc32.hh"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PSORAM_CRC32_CLMUL 1
#endif

namespace psoram {

namespace {

/** The generator polynomial, bit-reflected, x^32 term implied. */
constexpr std::uint32_t kPoly = 0xedb88320u;

constexpr std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}();

/** Advance the (pre-inverted) CRC register over @p len bytes. */
std::uint32_t
scalarUpdate(std::uint32_t crc, const std::uint8_t *data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        crc = kTable[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
    return crc;
}

#ifdef PSORAM_CRC32_CLMUL

/** x^k mod P, in the reflected register form (x^0 is bit 31). */
constexpr std::uint32_t
xPowModP(unsigned k)
{
    std::uint32_t r = 0x80000000u;
    for (unsigned i = 0; i < k; ++i)
        r = (r & 1) ? kPoly ^ (r >> 1) : r >> 1;
    return r;
}

/** The fold multiplier for a distance of k bits: x^k mod P, reflected
 *  and shifted up one so the 64x64 carry-less product of reflected
 *  operands lands aligned. */
constexpr std::uint64_t
foldConstant(unsigned k)
{
    return std::uint64_t{xPowModP(k)} << 1;
}

/** Reverse the low @p bits bits of @p v. */
constexpr std::uint64_t
reflect(std::uint64_t v, unsigned bits)
{
    std::uint64_t r = 0;
    for (unsigned i = 0; i < bits; ++i)
        if (v >> i & 1)
            r |= std::uint64_t{1} << (bits - 1 - i);
    return r;
}

/** P with its x^32 term, reflected over 33 bits (Barrett's P'). */
constexpr std::uint64_t kPolyFull = (std::uint64_t{kPoly} << 1) | 1;

/** Barrett's mu = floor(x^64 / P), reflected over 33 bits. */
constexpr std::uint64_t
barrettMu()
{
    const std::uint64_t p = reflect(kPolyFull, 33); // unreflected P
    // The quotient's top term is x^32; what remains after subtracting
    // x^32 * P has degree < 64, so the long division fits 64 bits.
    std::uint64_t q = std::uint64_t{1} << 32;
    std::uint64_t r = (p ^ (std::uint64_t{1} << 32)) << 32;
    for (unsigned i = 63; i >= 32; --i)
        if (r >> i & 1) {
            q |= std::uint64_t{1} << (i - 32);
            r ^= p << (i - 32);
        }
    return reflect(q, 33);
}

/** @{ Fold distances: four lanes (512 bits) and one lane (128 bits),
 *  each as the pair applied to a lane's low and high halves. */
constexpr std::uint64_t kK1 = foldConstant(4 * 128 + 32);
constexpr std::uint64_t kK2 = foldConstant(4 * 128 - 32);
constexpr std::uint64_t kK3 = foldConstant(128 + 32);
constexpr std::uint64_t kK4 = foldConstant(128 - 32);
/** @} */
/** 96 -> 64 bit reduction. */
constexpr std::uint64_t kK5 = foldConstant(64);
constexpr std::uint64_t kMu = barrettMu();

bool
clmulSupported()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i
foldLane(__m128i x, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/**
 * Advance the (pre-inverted) CRC register over @p len bytes, a
 * multiple of 16 and at least 64: fold four lanes in parallel, fold
 * them into one, fold the remaining lanes, then reduce 128 -> 64 -> 32
 * bits with Barrett's method.
 */
__attribute__((target("pclmul,sse4.1"))) std::uint32_t
clmulUpdate(std::uint32_t crc, const std::uint8_t *data, std::size_t len)
{
    const auto load = [](const std::uint8_t *p) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    };
    __m128i x1 = _mm_xor_si128(load(data), _mm_cvtsi32_si128(
                                               static_cast<int>(crc)));
    __m128i x2 = load(data + 16);
    __m128i x3 = load(data + 32);
    __m128i x4 = load(data + 48);
    data += 64;
    len -= 64;

    const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
    for (; len >= 64; data += 64, len -= 64) {
        x1 = foldLane(x1, k1k2, load(data));
        x2 = foldLane(x2, k1k2, load(data + 16));
        x3 = foldLane(x3, k1k2, load(data + 32));
        x4 = foldLane(x4, k1k2, load(data + 48));
    }

    const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
    x1 = foldLane(x1, k3k4, x2);
    x1 = foldLane(x1, k3k4, x3);
    x1 = foldLane(x1, k3k4, x4);
    for (; len >= 16; data += 16, len -= 16)
        x1 = foldLane(x1, k3k4, load(data));

    // 128 -> 96 bits: the low half times x^(128-32) mod P.
    const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    // 96 -> 64 bits: the low 32 bits times x^64 mod P.
    const __m128i k5 = _mm_set_epi64x(0, kK5);
    x1 = _mm_xor_si128(
        _mm_srli_si128(x1, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
    // Barrett: T1 = floor(R / x^32) * mu, T2 = floor(T1 / x^32) * P.
    const __m128i poly_mu = _mm_set_epi64x(kMu, kPolyFull);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/** Asked once. It reads false until static initialisation sets it, so
 *  a call from another translation unit's initialiser takes the table
 *  loop, which gives the same result. */
const bool kClmul = clmulSupported();

#endif // PSORAM_CRC32_CLMUL

} // namespace

std::uint32_t
crc32Scalar(const std::uint8_t *data, std::size_t len)
{
    return scalarUpdate(0xffffffffu, data, len) ^ 0xffffffffu;
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    std::uint32_t crc = 0xffffffffu;
#ifdef PSORAM_CRC32_CLMUL
    if (len >= 64 && kClmul) {
        const std::size_t lanes = len & ~std::size_t{15};
        crc = clmulUpdate(crc, data, lanes);
        data += lanes;
        len -= lanes;
    }
#endif
    return scalarUpdate(crc, data, len) ^ 0xffffffffu;
}

} // namespace psoram
