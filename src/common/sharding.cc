#include "common/sharding.hh"

#include "common/log.hh"

namespace psoram {

std::uint64_t
deriveShardSeed(std::uint64_t base_seed, unsigned shard,
                unsigned num_shards)
{
    if (num_shards <= 1)
        return base_seed;
    // splitmix64 finalizer over (base, shard); the odd multiplier keeps
    // shard 0 of a multi-shard run distinct from the base stream too.
    std::uint64_t z = base_seed ^
        (static_cast<std::uint64_t>(shard + 1) * 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

ShardRouter::ShardRouter(const ShardingParams &params,
                         std::uint64_t total_blocks)
    : params_(params), total_(total_blocks)
{
    if (params_.num_shards == 0)
        PSORAM_PANIC("shard count must be positive");
    if (total_ < params_.num_shards)
        PSORAM_PANIC("cannot split ", total_, " blocks across ",
                     params_.num_shards, " shards");
}

ShardSlot
ShardRouter::route(BlockAddr addr) const
{
    if (addr >= total_)
        PSORAM_PANIC("address ", addr, " outside the ", total_,
                     "-block space");
    return ShardSlot{static_cast<unsigned>(addr % params_.num_shards),
                     addr / params_.num_shards};
}

BlockAddr
ShardRouter::globalAddr(unsigned shard, BlockAddr local) const
{
    if (shard >= params_.num_shards)
        PSORAM_PANIC("shard ", shard, " out of range");
    return local * params_.num_shards + shard;
}

std::uint64_t
ShardRouter::shardBlocks(unsigned shard) const
{
    if (shard >= params_.num_shards)
        PSORAM_PANIC("shard ", shard, " out of range");
    const std::uint64_t base = total_ / params_.num_shards;
    return base + (shard < total_ % params_.num_shards ? 1 : 0);
}

} // namespace psoram
