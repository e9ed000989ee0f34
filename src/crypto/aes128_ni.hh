/**
 * @file
 * AES-NI backend for Aes128 (internal).
 *
 * Kept in its own translation unit so the AES instructions can be
 * enabled per-function with target attributes while the rest of the
 * build stays baseline-portable. Callers go through Aes128, which
 * dispatches here only when supported() says the CPU has the
 * extension (and the scalar path is not force-selected for tests).
 */

#ifndef PSORAM_CRYPTO_AES128_NI_HH
#define PSORAM_CRYPTO_AES128_NI_HH

#include <cstddef>
#include <cstdint>

namespace psoram {
namespace aesni {

/** True when this build has an AES-NI path and the CPU supports it. */
bool supported();

/**
 * Encrypt @p count contiguous 16-byte blocks in place with the
 * expanded FIPS-197 round-key schedule (11 x 16 bytes). Blocks are
 * pipelined eight at a time through the AES rounds, then four, then
 * one; output is bit-identical to the scalar implementation.
 *
 * @pre supported() returned true.
 */
void encryptBlocks(const std::uint8_t *round_keys, std::uint8_t *blocks,
                   std::size_t count);

} // namespace aesni
} // namespace psoram

#endif // PSORAM_CRYPTO_AES128_NI_HH
