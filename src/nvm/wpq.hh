/**
 * @file
 * Write Pending Queue (WPQ) inside the ADR persistence domain.
 *
 * PS-ORAM brackets each eviction round with a "start" signal (the WPQ
 * begins accepting entries) and an "end" signal (the round commits). On a
 * power failure, ADR guarantees that *committed* entries reach the NVM;
 * entries of a round that never saw its "end" signal are discarded, so the
 * original data in the NVM is never partially overwritten (paper §4.2.2,
 * step 5-B/5-C).
 */

#ifndef PSORAM_NVM_WPQ_HH
#define PSORAM_NVM_WPQ_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iterator>
#include <string>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/backend.hh"

namespace psoram {

/**
 * Inline payload capacity of one WPQ entry. The largest thing ever
 * queued is an authenticated tree record (kSlotBytes = 96 of slot
 * ciphertext plus the 32-byte integrity trailer — tag and version,
 * oram/integrity.hh); PosMap records and shadow headers are smaller.
 */
inline constexpr std::size_t kWpqEntryBytes = 128;

/**
 * Fixed-capacity inline byte buffer with the slice of the std::vector
 * interface the WPQ paths use. An eviction queues roughly one entry
 * per path slot, so a heap-allocated payload per entry used to put an
 * allocate/free pair on the hot loop for every slot of every access;
 * inline storage makes a WpqEntry trivially movable plain data.
 */
class WpqBytes
{
  public:
    using value_type = std::uint8_t;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::uint8_t *data() { return bytes_.data(); }
    const std::uint8_t *data() const { return bytes_.data(); }
    std::uint8_t *begin() { return bytes_.data(); }
    std::uint8_t *end() { return bytes_.data() + size_; }
    const std::uint8_t *begin() const { return bytes_.data(); }
    const std::uint8_t *end() const { return bytes_.data() + size_; }
    std::uint8_t &operator[](std::size_t i) { return bytes_[i]; }
    std::uint8_t operator[](std::size_t i) const { return bytes_[i]; }

    /** Grow/shrink; grown bytes read as zero (vector semantics). */
    void
    resize(std::size_t n)
    {
        checkFit(n);
        if (n > size_)
            std::memset(bytes_.data() + size_, 0, n - size_);
        size_ = static_cast<std::uint32_t>(n);
    }

    void
    assign(std::size_t n, std::uint8_t value)
    {
        checkFit(n);
        std::memset(bytes_.data(), value, n);
        size_ = static_cast<std::uint32_t>(n);
    }

    template <typename It>
    void
    assign(It first, It last)
    {
        const auto n =
            static_cast<std::size_t>(std::distance(first, last));
        checkFit(n);
        std::copy(first, last, bytes_.data());
        size_ = static_cast<std::uint32_t>(n);
    }

  private:
    void
    checkFit(std::size_t n) const
    {
        if (n > kWpqEntryBytes)
            PSORAM_PANIC("WPQ entry payload of ", n,
                         " bytes exceeds the inline capacity of ",
                         kWpqEntryBytes);
    }

    std::array<std::uint8_t, kWpqEntryBytes> bytes_{};
    std::uint32_t size_ = 0;
};

/** One pending persistent write (an evicted block or a PosMap entry). */
struct WpqEntry
{
    Addr addr = 0;
    WpqBytes data;
};

class Wpq
{
  public:
    /**
     * @param name stat prefix ("data_wpq" / "posmap_wpq")
     * @param capacity maximum entries per round (96 or 4 in the paper)
     */
    Wpq(std::string name, std::size_t capacity);

    /** Open a new round ("start" signal). @pre queue drained and closed */
    void start();

    /**
     * Push an entry into the open round.
     * @return false if the round is full (caller must split rounds)
     */
    bool push(WpqEntry entry);

    /** Commit the round ("end" signal): entries become crash-durable. */
    void end();

    /**
     * @{ The two halves of a drain, for callers that write several
     * queues' rounds in one writev (AdrDomain): appendSpans() adds the
     * queued entries in order, retire() then schedules one NVM write
     * per entry from @p earliest and leaves the queue empty and closed.
     */
    void appendSpans(std::vector<WriteSpan> &spans) const;
    Cycle retire(NvmTiming &timing, Cycle earliest);
    /** @} */

    /** Drop every entry and close the queue (crash flush epilogue). */
    void clear();

    bool open() const { return open_; }
    bool committed() const { return committed_; }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool full() const { return entries_.size() >= capacity_; }

    /** Total payload bytes currently queued (drain energy accounting). */
    std::size_t queuedBytes() const;

    std::uint64_t totalPushed() const { return pushed_.value(); }
    std::uint64_t totalDrained() const { return drained_.value(); }
    std::uint64_t totalRounds() const { return rounds_.value(); }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::size_t capacity_;
    std::deque<WpqEntry> entries_;
    bool open_ = false;
    bool committed_ = false;

    Counter pushed_;
    Counter drained_;
    Counter rounds_;
};

} // namespace psoram

#endif // PSORAM_NVM_WPQ_HH
