/**
 * @file
 * Position map: logical block address -> path id (leaf label).
 *
 * The on-chip PosMap is lazily initialized: an entry that was never
 * remapped reads as a deterministic pseudo-random initial path (a PRF of
 * the seed and the address). This matches real ORAM initialization, where
 * every block starts on an independently random path, without spending
 * memory or time materializing 2^25 entries up front.
 *
 * PersistentPosMap wraps the *trusted NVM region* copy used by the
 * non-recursive designs: entries are 8-byte records (a 4-byte word of
 * 31-bit path + valid bit, then a 4-byte remap epoch) at
 * base + addr * kEntryBytes, written through the PosMap WPQ.
 */

#ifndef PSORAM_ORAM_POSMAP_HH
#define PSORAM_ORAM_POSMAP_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/types.hh"
#include "mem/backend.hh"

namespace psoram {

/** Deterministic initial path for a block (PRF of seed and address). */
PathId initialPath(std::uint64_t seed, BlockAddr addr,
                   std::uint64_t num_leaves);

class PosMap
{
  public:
    /**
     * @param num_blocks logical address space size
     * @param num_leaves leaves of the tree the paths index into
     * @param seed PRF seed for initial (never-written) entries
     */
    PosMap(std::uint64_t num_blocks, std::uint64_t num_leaves,
           std::uint64_t seed);

    PathId get(BlockAddr addr) const;
    void set(BlockAddr addr, PathId path);

    /** Drop all remapped entries, reverting to the initial PRF state. */
    void clear();

    std::uint64_t numBlocks() const { return num_blocks_; }
    std::uint64_t numLeaves() const { return num_leaves_; }
    std::uint64_t seed() const { return seed_; }

    /** Number of entries that differ from their initial value store. */
    std::size_t populated() const { return entries_.size(); }

    /** Remapped entries (FullNVM designs export these as the content of
     *  their non-volatile on-chip PosMap). */
    const std::unordered_map<BlockAddr, PathId> &
    entries() const
    {
        return entries_;
    }

  private:
    std::uint64_t num_blocks_;
    std::uint64_t num_leaves_;
    std::uint64_t seed_;
    std::unordered_map<BlockAddr, PathId> entries_;
};

/**
 * Trusted-NVM-region persistent PosMap (non-recursive designs).
 *
 * Only the functional codec and addressing live here; the *writes* are
 * performed by draining the PosMap WPQ, and reads happen during crash
 * recovery.
 */
class PersistentPosMap
{
  public:
    /** Record: valid-tagged path word (4B) + remap epoch (4B). */
    static constexpr std::size_t kEntryBytes = 8;
    static constexpr std::uint32_t kValidBit = 0x8000'0000u;

    /** Decoded record. */
    struct Entry
    {
        PathId path;
        std::uint32_t epoch;
    };

    PersistentPosMap(Addr base, std::uint64_t num_blocks,
                     std::uint64_t seed, std::uint64_t num_leaves);

    Addr entryAddr(BlockAddr addr) const;
    std::uint64_t footprintBytes() const
    {
        return num_blocks_ * kEntryBytes;
    }

    /** Serialize a path id into its valid-tagged word. */
    static std::uint32_t encodeEntry(PathId path);

    /** Serialize the full 8-byte record. */
    static std::array<std::uint8_t, kEntryBytes>
    encodeRecord(PathId path, std::uint32_t epoch);

    /**
     * Read the persistent entry for @p addr from @p device;
     * never-written entries decode to the PRF initial path at epoch 0.
     */
    Entry readFullEntry(const MemoryBackend &device, BlockAddr addr) const;

    /** Path-only convenience wrapper. */
    PathId readEntry(const MemoryBackend &device, BlockAddr addr) const;

    /** Functional direct write (used by recovery tooling and tests). */
    void writeEntry(MemoryBackend &device, BlockAddr addr, PathId path,
                    std::uint32_t epoch = 1) const;

    Addr base() const { return base_; }

  private:
    Addr base_;
    std::uint64_t num_blocks_;
    std::uint64_t seed_;
    std::uint64_t num_leaves_;
};

} // namespace psoram

#endif // PSORAM_ORAM_POSMAP_HH
