/**
 * @file
 * Differential test: the crash-consistent PS-ORAM controller and the
 * classic Path ORAM controller implement the *same* logical array.
 *
 * Both stacks run the identical 10k-access random trace and must agree
 * byte-for-byte on every read — with each other and with a reference
 * map. Any divergence (a remap bug, a stale stash merge, a backup
 * resurfacing as current data) shows up as the first differing access.
 * The sweep covers the non-recursive and recursive persistent designs
 * plus a sharded deployment driven through the router.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "nvm/device.hh"
#include "oram/controller.hh"
#include "sim/sharded_system.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

constexpr std::uint64_t kBlocks = 96;
constexpr std::size_t kOps = 10000;

SystemConfig
psConfig(DesignKind design)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 6;
    config.bucket_slots = 4;
    config.num_blocks = kBlocks;
    config.stash_capacity = 96;
    config.wpq_entries = 96;
    config.cipher = CipherKind::FastStream;
    config.seed = 2024;
    return config;
}

PathOramParams
plainParams()
{
    PathOramParams params;
    params.layout.geometry = TreeGeometry{6, 4};
    params.layout.base = 0;
    params.num_blocks = kBlocks;
    params.stash_capacity = 96;
    params.cipher = CipherKind::FastStream;
    params.seed = 2024;
    return params;
}

/** Fill @p out with a pattern unique to (addr, op). */
void
fillPattern(BlockAddr addr, std::size_t op, std::uint8_t *out)
{
    for (std::size_t i = 0; i < kBlockDataBytes; ++i)
        out[i] = static_cast<std::uint8_t>(
            (addr * 131 + op * 31 + i * 7) & 0xFF);
}

void
runDifferential(DesignKind design)
{
    System ps = buildSystem(psConfig(design));
    NvmDevice plain_device(pcmTimings(), 1, 8, 64ULL << 20);
    PathOramController plain(plainParams(), plain_device);
    std::unordered_map<BlockAddr, std::vector<std::uint8_t>> reference;

    Rng rng(555);
    std::uint8_t in[kBlockDataBytes];
    std::uint8_t ps_out[kBlockDataBytes];
    std::uint8_t plain_out[kBlockDataBytes];
    for (std::size_t op = 0; op < kOps; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        if (rng.nextBool(0.5)) {
            fillPattern(addr, op, in);
            ps.controller->write(addr, in);
            plain.write(addr, in);
            reference[addr].assign(in, in + kBlockDataBytes);
        } else {
            ps.controller->read(addr, ps_out);
            plain.read(addr, plain_out);
            ASSERT_EQ(std::memcmp(ps_out, plain_out, kBlockDataBytes),
                      0)
                << designName(design)
                << " diverged from Path ORAM at op " << op << " addr "
                << addr;
            if (const auto it = reference.find(addr);
                it != reference.end()) {
                ASSERT_EQ(std::memcmp(ps_out, it->second.data(),
                                      kBlockDataBytes),
                          0)
                    << designName(design)
                    << " diverged from the reference at op " << op
                    << " addr " << addr;
            }
        }
    }
}

TEST(Differential, PsOramMatchesPathOram)
{
    runDifferential(DesignKind::PsOram);
}

TEST(Differential, NaivePsOramMatchesPathOram)
{
    runDifferential(DesignKind::NaivePsOram);
}

TEST(Differential, RcrPsOramMatchesPathOram)
{
    runDifferential(DesignKind::RcrPsOram);
}

TEST(Differential, IntegrityTreeMatchesIntegrityOff)
{
    // The integrity layer must be functionally and *obliviously*
    // transparent: with the same seed and trace, integrity=tree and
    // integrity=off serve byte-identical plaintexts and touch the
    // identical leaf sequence (seal/verify consumes no randomness and
    // alters no control flow). A divergence in the leaves would mean
    // the authenticated records leak through the access pattern; a
    // divergence in the data would mean seal/verify corrupted the
    // wire format.
    SystemConfig off_config = psConfig(DesignKind::PsOram);
    SystemConfig tree_config = off_config;
    tree_config.integrity = IntegrityMode::Tree;
    System off = buildSystem(off_config);
    System tree = buildSystem(tree_config);

    Rng rng(557);
    std::uint8_t in[kBlockDataBytes];
    std::uint8_t off_out[kBlockDataBytes];
    std::uint8_t tree_out[kBlockDataBytes];
    for (std::size_t op = 0; op < kOps; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        OramAccessInfo off_info;
        OramAccessInfo tree_info;
        if (rng.nextBool(0.5)) {
            fillPattern(addr, op, in);
            off_info = off.controller->write(addr, in);
            tree_info = tree.controller->write(addr, in);
        } else {
            off_info = off.controller->read(addr, off_out);
            tree_info = tree.controller->read(addr, tree_out);
            ASSERT_EQ(std::memcmp(off_out, tree_out, kBlockDataBytes),
                      0)
                << "integrity=tree diverged from integrity=off at op "
                << op << " addr " << addr;
        }
        ASSERT_EQ(off_info.leaf, tree_info.leaf)
            << "integrity=tree leaked through the access pattern at "
            << "op " << op << " addr " << addr;
        ASSERT_EQ(off_info.stash_hit, tree_info.stash_hit)
            << "integrity=tree changed stash behavior at op " << op
            << " addr " << addr;
    }
}

TEST(Differential, ShardedPsOramMatchesPathOram)
{
    // 4-shard PS-ORAM vs one plain Path ORAM over the same logical
    // address space, driven through the router.
    ShardedSystemConfig config;
    config.base = psConfig(DesignKind::PsOram);
    config.sharding.num_shards = 4;
    ShardedSystem sharded = buildShardedSystem(config);

    NvmDevice plain_device(pcmTimings(), 1, 8, 64ULL << 20);
    PathOramController plain(plainParams(), plain_device);

    Rng rng(556);
    std::uint8_t in[kBlockDataBytes];
    std::uint8_t ps_out[kBlockDataBytes];
    std::uint8_t plain_out[kBlockDataBytes];
    for (std::size_t op = 0; op < kOps; ++op) {
        const BlockAddr addr = rng.nextBelow(kBlocks);
        const ShardSlot slot = sharded.router.route(addr);
        if (rng.nextBool(0.5)) {
            fillPattern(addr, op, in);
            sharded.controller(slot.shard).write(slot.local, in);
            plain.write(addr, in);
        } else {
            sharded.controller(slot.shard).read(slot.local, ps_out);
            plain.read(addr, plain_out);
            ASSERT_EQ(std::memcmp(ps_out, plain_out, kBlockDataBytes),
                      0)
                << "sharded PS-ORAM diverged at op " << op << " addr "
                << addr << " (shard " << slot.shard << ")";
        }
    }
}

} // namespace
} // namespace psoram
