/**
 * @file
 * Temporary PosMap (paper §4.1): stages the re-assigned path ids of
 * accessed blocks until their data is persisted.
 *
 * A remap (a -> l') recorded here is *pending*: the main PosMap (and its
 * persistent copy) still holds the old path, so a crash before the block
 * reaches the NVM recovers the old, consistent mapping. Entries are
 * merged into the main PosMap when the eviction round containing the
 * block commits (paper §4.2.2 step 5-C).
 */

#ifndef PSORAM_PSORAM_TEMP_POSMAP_HH
#define PSORAM_PSORAM_TEMP_POSMAP_HH

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "common/stats.hh"
#include "common/types.hh"

namespace psoram {

class TempPosMap
{
  public:
    /** @param capacity C_tPos, 96 entries in Table 3(b) */
    explicit TempPosMap(std::size_t capacity);

    /** Pending remap for @p addr, if any. */
    std::optional<PathId> get(BlockAddr addr) const;

    /**
     * Record a pending remap (overwrites an existing pending entry —
     * the block was re-remapped before its first remap committed).
     */
    void put(BlockAddr addr, PathId path);

    /** Remove the pending entry after it commits. */
    bool erase(BlockAddr addr);

    /** Oldest pending address (force-merge candidate), if any. */
    std::optional<BlockAddr> oldest() const;

    /** Drop everything (volatile; lost on crash). */
    void clear();

    std::size_t size() const { return order_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool full() const { return size() >= capacity_; }

    /** Times put() was called while full (forced merges needed). */
    std::uint64_t pressureEvents() const { return pressure_.value(); }

  private:
    std::size_t capacity_;
    /** Insertion order for age-based force merging. */
    std::list<BlockAddr> order_;
    struct Entry
    {
        PathId path;
        std::list<BlockAddr>::iterator pos;
    };
    std::unordered_map<BlockAddr, Entry> entries_;
    Counter pressure_;
};

} // namespace psoram

#endif // PSORAM_PSORAM_TEMP_POSMAP_HH
