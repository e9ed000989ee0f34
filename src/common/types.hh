/**
 * @file
 * Fundamental scalar types shared across the PS-ORAM codebase.
 */

#ifndef PSORAM_COMMON_TYPES_HH
#define PSORAM_COMMON_TYPES_HH

#include <cstdint>
#include <cstddef>
#include <limits>

namespace psoram {

/** Byte address in the (simulated) physical NVM address space. */
using Addr = std::uint64_t;

/** Logical block address as seen by the program / LLC (cache-line id). */
using BlockAddr = std::uint64_t;

/** Leaf label (path id) in an ORAM tree; leaves are numbered 0..2^L - 1. */
using PathId = std::uint32_t;

/** Bucket index in the flattened ORAM tree array (root = 0). */
using BucketId = std::uint64_t;

/** Simulated time measured in NVM-controller clock cycles (400 MHz). */
using Cycle = std::uint64_t;

/** Simulated time measured in CPU clock cycles (3.2 GHz). */
using CpuCycle = std::uint64_t;

/** Sentinel path id meaning "no path assigned". */
inline constexpr PathId kInvalidPath =
    std::numeric_limits<PathId>::max();

/** Sentinel block address used for dummy ORAM blocks (the paper's ⊥). */
inline constexpr BlockAddr kDummyBlockAddr =
    std::numeric_limits<BlockAddr>::max();

/** CPU clock cycles per NVM clock cycle (3.2 GHz / 400 MHz). */
inline constexpr CpuCycle kCpuCyclesPerNvmCycle = 8;

/** CPU-cycle latency of one AES-128 operation (Table 3b). */
inline constexpr CpuCycle kAesLatencyCpuCycles = 32;

/** Cache line / ORAM data payload size in bytes (Table 3). */
inline constexpr std::size_t kBlockDataBytes = 64;

/** Per-block header bytes: program address, path id, two IVs. */
inline constexpr std::size_t kBlockHeaderBytes = 16;

} // namespace psoram

#endif // PSORAM_COMMON_TYPES_HH
