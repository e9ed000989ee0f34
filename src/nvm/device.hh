/**
 * @file
 * NVM main-memory device: the in-memory byte store of the ORAM tree and
 * PosMap region, with per-line wear counters (NVM lifetime). Its
 * channel/bank timing is the NvmTiming every backend carries.
 *
 * The functional store is a demand-allocated page table: 4 KiB pages in a
 * flat vector indexed directly by address (the device capacity is fixed at
 * construction), each page carrying its 64 lines of contiguous bytes plus
 * per-line wear counters. Pages that were never written read as zero. A
 * slot-sized read or write inside one page is a single memcpy with no
 * hashing — this store sits under every bucket of every path access, and
 * the per-line hash-map layout it replaces dominated the access-loop
 * profile (~60% of host time between lookups, rehashes and wear updates).
 */

#ifndef PSORAM_NVM_DEVICE_HH
#define PSORAM_NVM_DEVICE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "mem/backend.hh"
#include "nvm/timing.hh"

namespace psoram {

class NvmDevice : public MemoryBackend
{
  public:
    /**
     * @param params device timing preset (PCM or STT-RAM)
     * @param num_channels independent channels (Fig. 7 sweeps 1/2/4)
     * @param banks_per_channel banks sharing each channel bus
     * @param capacity_bytes addressable capacity (bounds checking only)
     */
    NvmDevice(const NvmTimingParams &params, unsigned num_channels,
              unsigned banks_per_channel, std::uint64_t capacity_bytes);

    void readBytes(Addr addr, std::uint8_t *out,
                   std::size_t len) const override;
    using MemoryBackend::writev;
    void writev(const WriteSpan *spans, std::size_t n,
                Durability durability) override;

    /** @{ Wear statistics (NVM lifetime proxy). Quiet writes wear the
     *  cells too. */
    std::uint64_t distinctLinesWritten() const
    {
        return distinct_lines_written_;
    }
    std::uint64_t maxLineWrites() const { return max_line_writes_; }
    double meanLineWrites() const;
    /** @} */

    void resetStats() override;

    /** Crash snapshot/restore (see MemoryBackend). */
    MemoryImage image() const override;
    void restoreImage(const MemoryImage &img) override;

    /** @{ Functional-store page geometry. */
    static constexpr std::size_t kPageBytes = 4096;
    static constexpr std::size_t kLinesPerPage =
        kPageBytes / kBlockDataBytes;
    /** @} */

  private:
    /** One 4 KiB page: contiguous line bytes plus per-line wear. */
    struct NvmPage
    {
        std::array<std::uint8_t, kPageBytes> bytes{};
        std::array<std::uint32_t, kLinesPerPage> wear{};
    };

    void applySpan(Addr addr, const std::uint8_t *in, std::size_t len);

    /** Page table: index = byte address / kPageBytes; null = all-zero. */
    std::vector<std::unique_ptr<NvmPage>> pages_;

    std::uint64_t distinct_lines_written_ = 0;
    std::uint64_t total_line_writes_ = 0;
    std::uint64_t max_line_writes_ = 0;
};

} // namespace psoram

#endif // PSORAM_NVM_DEVICE_HH
