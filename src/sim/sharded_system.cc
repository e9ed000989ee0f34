#include "sim/sharded_system.hh"

#include <string>

namespace psoram {

namespace {

/** Logical block count the sharded deployment serves in total. */
std::uint64_t
totalLogicalBlocks(const SystemConfig &base)
{
    if (base.num_blocks != 0)
        return base.num_blocks;
    return TreeGeometry{base.tree_height, base.bucket_slots}
        .dataBlocks(0.5);
}

/**
 * Smallest tree height whose slot capacity covers @p blocks at the
 * 50 % utilization rule, floored so even tiny shards get a real tree.
 */
unsigned
shardTreeHeight(const SystemConfig &base, std::uint64_t blocks)
{
    unsigned height = 3;
    while (height < base.tree_height &&
           TreeGeometry{height, base.bucket_slots}.dataBlocks(0.5) <
               blocks)
        ++height;
    return height;
}

} // namespace

SystemConfig
shardSystemConfig(const ShardedSystemConfig &config,
                  const ShardRouter &router, unsigned shard)
{
    SystemConfig sc = config.base;
    const unsigned n = router.numShards();
    // The single-shard deployment must be byte-identical to the
    // unsharded stack: keep height, seed and backing path untouched.
    if (n == 1)
        return sc;
    sc.num_blocks = router.shardBlocks(shard);
    sc.tree_height = shardTreeHeight(config.base, sc.num_blocks);
    sc.seed = deriveShardSeed(config.base.seed, shard, n);
    if (!sc.backing_file.empty())
        sc.backing_file += ".shard" + std::to_string(shard);
    return sc;
}

ShardedSystem
buildShardedSystem(const ShardedSystemConfig &config)
{
    const std::uint64_t total = totalLogicalBlocks(config.base);
    ShardedSystem system{config, ShardRouter(config.sharding, total), {}};
    system.shards.reserve(config.sharding.num_shards);
    for (unsigned k = 0; k < config.sharding.num_shards; ++k)
        system.shards.push_back(
            buildSystem(shardSystemConfig(config, system.router, k)));
    return system;
}

void
ShardedSystem::recoverShard(unsigned shard)
{
    shards.at(shard).recoverController();
}

void
ShardedSystem::recoverAll()
{
    for (unsigned k = 0; k < numShards(); ++k)
        recoverShard(k);
}

std::uint64_t
ShardedSystem::totalAccesses() const
{
    std::uint64_t total = 0;
    for (const System &shard : shards)
        total += shard.controller->accessCount();
    return total;
}

} // namespace psoram
