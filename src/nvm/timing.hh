/**
 * @file
 * NVM timing (NVMain-2.0 style): the device parameters and the one
 * channel/bank model that turns line transfers into completion cycles.
 *
 * All values are in NVM controller clock cycles at 400 MHz, matching
 * Table 3(c) of the paper:
 *   PCM    : tRCD/tWP/tCWD/tWTR/tRP/tCCD = 48/60/4/3/1/2
 *   STT-RAM: tRCD/tWP/tCWD/tWTR/tRP/tCCD = 14/14/10/5/1/2
 */

#ifndef PSORAM_NVM_TIMING_HH
#define PSORAM_NVM_TIMING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace psoram {

class Channel;

/** Memory technology selector. */
enum class NvmTech { PCM, STTRAM };

/** Returns "PCM" / "STTRAM". */
std::string nvmTechName(NvmTech tech);

struct NvmTimingParams
{
    /** Row activate to column command delay (array read latency). */
    Cycle tRCD;
    /** Write pulse: cell programming time, charged after data transfer. */
    Cycle tWP;
    /** Column write delay: command to first data beat. */
    Cycle tCWD;
    /** Write-to-read turnaround on the same bank. */
    Cycle tWTR;
    /** Precharge (row close). */
    Cycle tRP;
    /** Column-to-column delay between bursts. */
    Cycle tCCD;
    /** Data-bus occupancy of one 64-byte burst. */
    Cycle tBURST;
    /** Controller/bus clock in MHz. */
    std::uint32_t clockMHz;

    /** Read latency from command issue to last data beat. */
    Cycle readLatency() const { return tRCD + tBURST; }
};

/** PCM timing preset (Table 3c). */
NvmTimingParams pcmTimings();

/** STT-RAM timing preset (Table 3c). */
NvmTimingParams sttramTimings();

/** Preset lookup by technology. */
NvmTimingParams timingsFor(NvmTech tech);

/**
 * The timing model NVMain 2.0 supplies for the paper: decodes a line
 * address to (channel, bank), schedules the transfer through that
 * channel's bank model and counts reads and writes. It holds no bytes.
 * Every storage backend carries one (MemoryBackend::timing()) so the
 * protocol times the traffic it moves; the FullNVM on-chip stash
 * buffer is one on its own.
 *
 * Not thread-safe: the thread that drives the controller is its only
 * caller.
 */
class NvmTiming
{
  public:
    /**
     * @param params device timing preset (PCM or STT-RAM)
     * @param num_channels independent channels (Fig. 7 sweeps 1/2/4)
     * @param banks_per_channel banks sharing each channel bus
     */
    NvmTiming(const NvmTimingParams &params, unsigned num_channels,
              unsigned banks_per_channel);
    NvmTiming(const NvmTiming &other);
    NvmTiming &operator=(const NvmTiming &other);
    ~NvmTiming();

    /**
     * Schedule @p len bytes starting at @p addr as 64-byte line
     * transfers across the channels.
     *
     * @param earliest cycle the request arrives at the memory controller
     * @return completion cycle of the last line transfer
     */
    Cycle access(Addr addr, std::size_t len, bool is_write,
                 Cycle earliest);

    /**
     * Schedule exactly one transaction (one burst) at the line
     * containing @p addr. ORAM block slots are a little larger than a
     * cache line (data + header + IV); the paper counts each block as
     * one read/write, which this models.
     */
    Cycle accessOne(Addr addr, bool is_write, Cycle earliest);

    /** @{ Line transfers scheduled across all channels. */
    std::uint64_t totalReads() const;
    std::uint64_t totalWrites() const;
    /** @} */

    void resetStats();

  private:
    std::vector<Channel> channels_;
};

} // namespace psoram

#endif // PSORAM_NVM_TIMING_HH
