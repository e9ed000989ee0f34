/**
 * @file
 * Sharded system builder: N independent PS-ORAM instances over disjoint
 * logical address ranges.
 *
 * Each shard is a full System (device + controller): its own tree,
 * stash, PosMap, temporary PosMap, WPQs and — when file-backed — its
 * own NVM backing file (`<path>.shardK`). The ShardRouter decides which
 * shard serves a logical address; the sharded engine (sim/sharded_engine)
 * drives the shards from a worker pool.
 *
 * Invariants:
 *  - The single-shard configuration is *identical* to buildSystem():
 *    same tree height, same seed, same backing path. An engine over one
 *    shard therefore produces byte-identical device traffic to the
 *    unsharded stack.
 *  - With N > 1 each shard's tree is re-sized to its share of the
 *    address space (smallest height with >= 2x slot headroom, the same
 *    50 % utilization rule the unsharded layout uses), and its RNG seed
 *    is derived via deriveShardSeed() so runs stay reproducible.
 *  - Crash consistency is per shard: recoverShard()/recoverAll() apply
 *    the ADR flush + recovery sequence to one shard / every shard.
 */

#ifndef PSORAM_SIM_SHARDED_SYSTEM_HH
#define PSORAM_SIM_SHARDED_SYSTEM_HH

#include <vector>

#include "common/sharding.hh"
#include "sim/system.hh"

namespace psoram {

struct ShardedSystemConfig
{
    /** Template for every shard; num_blocks/seed/backing_file and (for
     *  N > 1) tree_height are specialized per shard. */
    SystemConfig base;
    ShardingParams sharding;
};

struct ShardedSystem
{
    ShardedSystemConfig config;
    ShardRouter router;
    std::vector<System> shards;

    unsigned numShards() const
    {
        return static_cast<unsigned>(shards.size());
    }
    PsOramController &controller(unsigned shard)
    {
        return *shards.at(shard).controller;
    }

    /** Crash-recover one shard (ADR flush + rebuild, see System). */
    void recoverShard(unsigned shard);

    /** Crash-recover every shard in shard order. */
    void recoverAll();

    /** Summed controller access count across all shards. */
    std::uint64_t totalAccesses() const;
};

/** The SystemConfig shard @p shard runs with (exposed for tests). */
SystemConfig shardSystemConfig(const ShardedSystemConfig &config,
                               const ShardRouter &router, unsigned shard);

/** Construct router + all shard systems for @p config. */
ShardedSystem buildShardedSystem(const ShardedSystemConfig &config);

} // namespace psoram

#endif // PSORAM_SIM_SHARDED_SYSTEM_HH
