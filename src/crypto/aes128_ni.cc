#include "crypto/aes128_ni.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace psoram {
namespace aesni {

bool
supported()
{
    return __builtin_cpu_supports("aes") != 0;
}

namespace {

/** Encrypt N adjacent blocks at @p p, interleaved round by round. */
template <int N>
__attribute__((target("aes,sse2"), always_inline)) inline void
encryptLanes(__m128i *p, const __m128i *keys)
{
    __m128i b[N];
#pragma GCC unroll 8
    for (int l = 0; l < N; ++l)
        b[l] = _mm_xor_si128(_mm_loadu_si128(p + l), keys[0]);
    for (int round = 1; round < 10; ++round) {
#pragma GCC unroll 8
        for (int l = 0; l < N; ++l)
            b[l] = _mm_aesenc_si128(b[l], keys[round]);
    }
#pragma GCC unroll 8
    for (int l = 0; l < N; ++l)
        _mm_storeu_si128(p + l, _mm_aesenclast_si128(b[l], keys[10]));
}

} // namespace

__attribute__((target("aes,sse2"))) void
encryptBlocks(const std::uint8_t *round_keys, std::uint8_t *blocks,
              std::size_t count)
{
    __m128i keys[11];
    for (int i = 0; i < 11; ++i)
        keys[i] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(round_keys + 16 * i));

    // Independent blocks ride the AES pipeline together: aesenc has
    // multi-cycle latency but single-cycle throughput, so interleaving
    // hides it. A path batch (five counter blocks per slot) runs
    // through eight lanes, then a four-lane and a one-block tail.
    __m128i *p = reinterpret_cast<__m128i *>(blocks);
    __m128i *const end = p + count;
    for (; end - p >= 8; p += 8)
        encryptLanes<8>(p, keys);
    if (end - p >= 4) {
        encryptLanes<4>(p, keys);
        p += 4;
    }
    for (; p != end; ++p)
        encryptLanes<1>(p, keys);
}

} // namespace aesni
} // namespace psoram

#else // non-x86: no AES-NI path

namespace psoram {
namespace aesni {

bool
supported()
{
    return false;
}

void
encryptBlocks(const std::uint8_t *, std::uint8_t *, std::size_t)
{
}

} // namespace aesni
} // namespace psoram

#endif
