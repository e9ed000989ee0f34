/**
 * @file
 * Classic Path ORAM controller (Stefanov et al., the paper's §2.2).
 *
 * This is the textbook five-step protocol — check stash, access PosMap,
 * load path, update stash, evict path — with no persistence support. It
 * is both the library's baseline ORAM and the reference implementation
 * the crash-consistent PS-ORAM controller (psoram/psoram_controller.hh)
 * is validated against.
 */

#ifndef PSORAM_ORAM_CONTROLLER_HH
#define PSORAM_ORAM_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/aes128.hh"
#include "mem/backend.hh"
#include "oram/block.hh"
#include "oram/posmap.hh"
#include "oram/stash.hh"
#include "oram/tree.hh"

namespace psoram {

struct PathOramParams
{
    TreeLayout layout;
    /** Logical block address space (<= tree capacity at 50% util). */
    std::uint64_t num_blocks;
    std::size_t stash_capacity = 200;
    Aes128::Key key{};
    CipherKind cipher = CipherKind::Aes128Ctr;
    std::uint64_t seed = 1;
};

/** Per-access outcome, including the timing contribution. */
struct OramAccessInfo
{
    /** NVM-controller cycles this access occupied the memory system. */
    Cycle nvm_cycles = 0;
    /** Leaf label of the accessed (and evicted) path. */
    PathId leaf = kInvalidPath;
    /** True when served from the stash without touching memory. */
    bool stash_hit = false;
};

/**
 * Observer invoked with the leaf label of every path access — the exact
 * information an adversary on the memory bus sees. The security tests
 * feed this to their distribution checks.
 */
using PathObserver = std::function<void(PathId)>;

class PathOramController
{
  public:
    PathOramController(const PathOramParams &params, MemoryBackend &device);
    virtual ~PathOramController() = default;

    /** Read block @p addr into @p out (64 bytes). */
    OramAccessInfo read(BlockAddr addr, std::uint8_t *out);

    /** Write 64 bytes from @p in to block @p addr. */
    OramAccessInfo write(BlockAddr addr, const std::uint8_t *in);

    void setPathObserver(PathObserver observer)
    {
        observer_ = std::move(observer);
    }

    const PathOramParams &params() const { return params_; }
    const Stash &stash() const { return stash_; }
    const PosMap &posmap() const { return posmap_; }

    std::uint64_t accessCount() const { return accesses_.value(); }
    std::uint64_t stashHits() const { return stash_hits_.value(); }

    /**
     * Test helper: functionally locate @p addr by walking its PosMap
     * path in the NVM image (no timing, no state change).
     * @return true and fills @p out when found in the tree; false when
     *         the block lives in the stash or was never written
     */
    bool debugFindInTree(BlockAddr addr, std::uint8_t *out) const;

  protected:
    OramAccessInfo access(BlockAddr addr, bool is_write,
                          std::uint8_t *read_out,
                          const std::uint8_t *write_in);

    /** Load every block of path @p leaf into the stash (step 3). */
    Cycle loadPath(PathId leaf, Cycle start);

    /** Greedy eviction of path @p leaf (step 5). */
    Cycle evictPath(PathId leaf, Cycle start);

    /**
     * Select stash entries for the bucket at (leaf, level) — up to Z
     * entries whose paths pass through that bucket. Chosen entries are
     * removed from the stash and returned.
     */
    std::vector<StashEntry> pickForBucket(PathId leaf, unsigned level);

    PathOramParams params_;
    MemoryBackend &device_;
    TreeGeometry geo_;
    PosMap posmap_;
    Stash stash_;
    BlockCodec codec_;
    Rng rng_;
    PathObserver observer_;

    /** Memory-side clock (NVM cycles); advances with every access. */
    Cycle now_ = 0;

    Counter accesses_;
    Counter stash_hits_;
};

} // namespace psoram

#endif // PSORAM_ORAM_CONTROLLER_HH
