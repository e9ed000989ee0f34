/**
 * @file
 * Single NVM bank timing model.
 *
 * A bank serializes its own commands: a read occupies the array for
 * tRCD (+tCCD spacing); a write occupies it for tCWD + tBURST + tWP and
 * imposes tWTR before a following read. Row-buffer behaviour is modeled
 * closed-page (every access pays tRCD/tRP) — ORAM path accesses have no
 * row locality by construction, since consecutive buckets are spread
 * across banks.
 */

#ifndef PSORAM_NVM_BANK_HH
#define PSORAM_NVM_BANK_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "nvm/timing.hh"

namespace psoram {

class Bank
{
  public:
    explicit Bank(const NvmTimingParams &params);

    /**
     * Schedule one 64-byte access on this bank.
     *
     * @param earliest first cycle the command may issue (bus/arrival)
     * @param is_write true for a write, false for a read
     * @return cycle at which the data transfer completes (read: data
     *         available; write: data accepted — cell programming continues
     *         in the background and blocks later commands)
     */
    Cycle access(Cycle earliest, bool is_write);

    std::uint64_t readCount() const { return reads_.value(); }
    std::uint64_t writeCount() const { return writes_.value(); }

    void resetStats();

  private:
    NvmTimingParams params_;
    Cycle next_free_ = 0;
    bool last_was_write_ = false;
    Counter reads_;
    Counter writes_;
};

} // namespace psoram

#endif // PSORAM_NVM_BANK_HH
