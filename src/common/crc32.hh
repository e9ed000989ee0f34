/**
 * @file
 * CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a byte range. Shared
 * by the on-disk page trailers and redo-log records (nvm/paged_disk)
 * and the persistent flight-recorder records (nvm/flight_recorder):
 * both need a cheap integrity stamp that detects torn or misdirected
 * writes, not an adversary (the authenticated-record machinery covers
 * that).
 *
 * crc32() folds 16-byte lanes with carry-less multiplies (PCLMULQDQ,
 * Gopal et al., "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ Instruction", Intel 2009) when the CPU has it, and runs
 * the byte-at-a-time table loop otherwise: on non-x86 builds, on CPUs
 * without PCLMULQDQ, for inputs under 64 bytes and for the tail after
 * the last whole 16-byte lane. Both compute the same function, so the
 * on-disk stamps do not depend on the host that wrote them.
 */

#ifndef PSORAM_COMMON_CRC32_HH
#define PSORAM_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace psoram {

/** CRC-32 of [data, data + len); crc32(nullptr, 0) is 0. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t len);

/** The table loop alone: the portable fallback, exported as the
 *  reference crc32() is tested against. */
std::uint32_t crc32Scalar(const std::uint8_t *data, std::size_t len);

} // namespace psoram

#endif // PSORAM_COMMON_CRC32_HH
