/**
 * @file
 * NVM channel: a set of banks sharing one data bus.
 *
 * The channel serializes burst transfers on the bus (tBURST per 64-byte
 * line) and dispatches array timing to the addressed bank. This captures
 * the two first-order constraints of ORAM path accesses: bus bandwidth
 * (reads) and bank write occupancy (evictions).
 */

#ifndef PSORAM_NVM_CHANNEL_HH
#define PSORAM_NVM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "nvm/bank.hh"
#include "nvm/timing.hh"

namespace psoram {

class Channel
{
  public:
    Channel(const NvmTimingParams &params, unsigned num_banks);

    /**
     * Schedule one 64-byte access.
     *
     * @param bank index of the addressed bank (caller decodes addresses)
     * @param earliest arrival cycle of the request at the channel
     * @param is_write operation direction
     * @return completion cycle of the data transfer
     */
    Cycle access(unsigned bank, Cycle earliest, bool is_write);

    unsigned numBanks() const
    {
        return static_cast<unsigned>(banks_.size());
    }

    std::uint64_t readCount() const { return reads_; }
    std::uint64_t writeCount() const { return writes_; }

    void resetStats();

  private:
    NvmTimingParams params_;
    std::vector<Bank> banks_;
    Cycle bus_free_ = 0;
    /** @{ Plain counts: the thread that drives the controller is the
     *  only one that writes or reads them (see NvmTiming). */
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    /** @} */
};

} // namespace psoram

#endif // PSORAM_NVM_CHANNEL_HH
