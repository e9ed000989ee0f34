/**
 * @file
 * Address-space sharding: the config and routing layer of the sharded
 * ORAM engine.
 *
 * A sharded deployment runs N independent PS-ORAM instances ("shards"),
 * each with its own tree, stash, PosMap, WPQs and NVM region. Because
 * the shards serve *disjoint* logical address ranges and every shard is
 * an unmodified Path-ORAM instance, the access pattern an adversary
 * observes per shard is exactly the single-instance pattern — per-shard
 * obliviousness composes (each shard's trace is independent of which
 * addresses map to the *other* shards, and within a shard the standard
 * Path ORAM argument applies). Crash consistency likewise holds per
 * shard: each shard carries its own WPQ bracket and recovery metadata.
 *
 * The ShardRouter is the single source of truth for the partition:
 * logical address -> (shard, shard-local address) and back. The
 * single-shard configuration is the identity mapping, so an engine in
 * front of one shard produces byte-identical device traffic to the
 * unsharded stack (pinned by test_traffic_equivalence).
 */

#ifndef PSORAM_COMMON_SHARDING_HH
#define PSORAM_COMMON_SHARDING_HH

#include <cstdint>

#include "common/types.hh"

namespace psoram {

/** Sharding configuration (config layer). Addresses interleave:
 *  shard = addr % N, local = addr / N, which spreads any access
 *  pattern evenly. */
struct ShardingParams
{
    unsigned num_shards = 1;
};

/**
 * Deterministic per-shard RNG seed. Shard 0 of a single-shard
 * deployment keeps the base seed unchanged (fast-path identity with
 * the unsharded stack); every other (seed, shard) pair is spread by a
 * splitmix64 finalizer so shards draw independent position streams
 * while whole runs stay reproducible from one base seed.
 */
std::uint64_t deriveShardSeed(std::uint64_t base_seed, unsigned shard,
                              unsigned num_shards);

/** Routing result: which shard serves an address, and as what. */
struct ShardSlot
{
    unsigned shard = 0;
    BlockAddr local = 0;
};

class ShardRouter
{
  public:
    /**
     * @param params partition shape (shard count)
     * @param total_blocks logical block address space being split
     */
    ShardRouter(const ShardingParams &params, std::uint64_t total_blocks);

    unsigned numShards() const { return params_.num_shards; }
    std::uint64_t totalBlocks() const { return total_; }

    /** Logical address -> (shard, shard-local address). */
    ShardSlot route(BlockAddr addr) const;

    /** Inverse of route(): (shard, local) -> logical address. */
    BlockAddr globalAddr(unsigned shard, BlockAddr local) const;

    /** Size of shard @p shard's local address space. */
    std::uint64_t shardBlocks(unsigned shard) const;

  private:
    ShardingParams params_;
    std::uint64_t total_;
};

} // namespace psoram

#endif // PSORAM_COMMON_SHARDING_HH
