#include "nvm/bank.hh"

#include <algorithm>

namespace psoram {

Bank::Bank(const NvmTimingParams &params) : params_(params)
{
}

Cycle
Bank::access(Cycle earliest, bool is_write)
{
    Cycle start = std::max(earliest, next_free_);
    if (last_was_write_ && !is_write)
        start += params_.tWTR;

    Cycle done;
    if (is_write) {
        // Data is on the bus after tCWD; the write pulse programs cells
        // afterwards and keeps the bank busy.
        done = start + params_.tCWD + params_.tBURST;
        next_free_ = done + params_.tWP + params_.tRP;
        ++writes_;
    } else {
        done = start + params_.tRCD + params_.tBURST;
        next_free_ = start + params_.tRCD + params_.tCCD + params_.tRP;
        ++reads_;
    }
    last_was_write_ = is_write;
    return done;
}

void
Bank::resetStats()
{
    reads_ = 0;
    writes_ = 0;
}

} // namespace psoram
