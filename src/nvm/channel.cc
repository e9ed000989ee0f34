#include "nvm/channel.hh"

#include <algorithm>

#include "common/log.hh"

namespace psoram {

Channel::Channel(const NvmTimingParams &params, unsigned num_banks)
    : params_(params)
{
    if (num_banks == 0)
        PSORAM_FATAL("channel needs at least one bank");
    banks_.reserve(num_banks);
    for (unsigned i = 0; i < num_banks; ++i)
        banks_.emplace_back(params);
}

Cycle
Channel::access(unsigned bank, Cycle earliest, bool is_write)
{
    if (bank >= banks_.size())
        PSORAM_PANIC("bank index ", bank, " out of range");

    Cycle done = banks_[bank].access(earliest, is_write);

    // The data burst occupies the shared bus for its final tBURST cycles;
    // if that slot overlaps the previous burst, the transfer slips. (The
    // slip is not fed back into the bank's array timing — a small
    // optimism that matches FR-FCFS controllers overlapping array access
    // with bus contention.)
    const Cycle burst_start =
        done > params_.tBURST ? done - params_.tBURST : 0;
    if (burst_start < bus_free_)
        done += bus_free_ - burst_start;
    bus_free_ = done;

    if (is_write)
        ++writes_;
    else
        ++reads_;
    return done;
}

void
Channel::resetStats()
{
    reads_ = 0;
    writes_ = 0;
    for (auto &bank : banks_)
        bank.resetStats();
}

} // namespace psoram
