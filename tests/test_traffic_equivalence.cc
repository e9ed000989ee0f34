/**
 * @file
 * Tree-traffic equivalence: the hot-path optimizations (indexed stash,
 * single-pass evictor, batched AES-NI CTR, preallocated access
 * buffers) must not change a single byte of what the ORAM controller
 * exchanges with the NVM — the obliviousness and crash-consistency
 * arguments are made about the memory-bus sequence, so lookup-cost
 * changes must leave it bit-identical.
 *
 * Every functional device operation (reads: op/addr/len; writes:
 * op/addr/len/payload) is folded into one FNV-1a digest over a
 * fixed-seed access mix. The golden digests below were captured from
 * the pre-optimization implementation (PR 1 tree, commit 8d9f9a8) and
 * pin the exact bucket write sequence including eviction placement
 * tie-breaks and the CTR keystream.
 *
 * Re-captured once, on purpose: PsOramAesCtr10k, NaivePsOram4k and
 * ShardedSingleShardByteIdentical (the persistent designs). Their path
 * load became one vectored read of the whole path, so the slot reads
 * are now hoisted in front of the PosMap reads that classification
 * issues, where they used to interleave slot by slot. Only the read
 * order moved: a write-only digest of each run is identical before and
 * after, and the other designs' digests did not change.
 *
 * Run with PSORAM_PRINT_TRAFFIC=1 to print digests (for re-capturing
 * after an *intentional* protocol change — never after a perf change).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "fixture_cache.hh"
#include "nvm/device.hh"
#include "nvm/timing.hh"
#include "sim/sharded_engine.hh"
#include "sim/sharded_system.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

/**
 * Forwards to an inner backend, digesting the functional traffic. It
 * times traffic on its own copy of the inner backend's timing model.
 */
class HashingBackend final : public MemoryBackend
{
  public:
    explicit HashingBackend(MemoryBackend &inner)
        : MemoryBackend(inner.timing(), inner.capacity()), inner_(inner)
    {
    }

    void
    readBytes(Addr addr, std::uint8_t *out,
              std::size_t len) const override
    {
        inner_.readBytes(addr, out, len);
        mixOp('R', addr, len);
    }

    void
    writev(const WriteSpan *spans, std::size_t n,
           Durability durability) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            mixOp('W', spans[i].addr, spans[i].len);
            for (std::size_t b = 0; b < spans[i].len; ++b)
                mixByte(spans[i].data[b]);
        }
        inner_.writev(spans, n, durability);
    }

    MemoryImage image() const override { return inner_.image(); }
    void
    restoreImage(const MemoryImage &img) override
    {
        inner_.restoreImage(img);
    }

    std::uint64_t digest() const { return hash_; }
    std::uint64_t operations() const { return ops_; }

  private:
    void
    mixByte(std::uint8_t b) const
    {
        hash_ = (hash_ ^ b) * 0x100000001b3ULL; // FNV-1a 64
    }

    void
    mixOp(std::uint8_t op, Addr addr, std::size_t len) const
    {
        ++ops_;
        mixByte(op);
        for (int shift = 0; shift < 64; shift += 8)
            mixByte(static_cast<std::uint8_t>(addr >> shift));
        for (int shift = 0; shift < 32; shift += 8)
            mixByte(static_cast<std::uint8_t>(len >> shift));
    }

    MemoryBackend &inner_;
    mutable std::uint64_t hash_ = 0xcbf29ce484222325ULL;
    mutable std::uint64_t ops_ = 0;
};

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
runTrafficDigestUncached(DesignKind design, CipherKind cipher,
                         std::uint64_t accesses, IntegrityMode integrity)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 10;
    config.cipher = cipher;
    config.seed = 7;
    config.integrity = integrity;
    const PsOramParams params = systemParams(config);

    // Capacity mirrors buildSystem: every region plus headroom.
    const std::uint64_t capacity = params.regions_end + (1ULL << 20);

    NvmDevice device(timingsFor(config.main_tech), config.channels,
                     config.banks_per_channel, capacity);
    HashingBackend hashed(device);
    PsOramController controller(params, hashed);

    std::uint64_t rng = 0x70736f72616dULL ^
                        (static_cast<std::uint64_t>(design) << 56);
    std::array<std::uint8_t, kBlockDataBytes> buf{};
    for (std::uint64_t i = 0; i < accesses; ++i) {
        const std::uint64_t draw = splitmix64(rng);
        const BlockAddr addr = draw % params.num_blocks;
        if (draw & (1ULL << 40)) {
            for (std::size_t b = 0; b < buf.size(); ++b)
                buf[b] = static_cast<std::uint8_t>(draw >> (b % 8));
            controller.write(addr, buf.data());
        } else {
            controller.read(addr, buf.data());
        }
    }
    return hashed.digest();
}

/**
 * The digest runs are the most expensive fixtures in the suite and
 * several tests share them; ctest runs each test in its own process,
 * so the sharing goes through the file-backed fixture cache (keyed by
 * the test binary build — a rebuild always recomputes).
 */
std::uint64_t
runTrafficDigest(DesignKind design, CipherKind cipher,
                 std::uint64_t accesses,
                 IntegrityMode integrity = IntegrityMode::Off)
{
    std::ostringstream key;
    key << "traffic_" << static_cast<int>(design) << "_"
        << (cipher == CipherKind::Aes128Ctr ? "aes" : "fast") << "_"
        << accesses << "_" << integrityModeName(integrity);
    return testing::cachedU64(key.str(), [&]() {
        return runTrafficDigestUncached(design, cipher, accesses,
                                        integrity);
    });
}

void
expectDigest(DesignKind design, CipherKind cipher,
             std::uint64_t accesses, std::uint64_t golden,
             IntegrityMode integrity = IntegrityMode::Off)
{
    const std::uint64_t digest =
        runTrafficDigest(design, cipher, accesses, integrity);
    if (std::getenv("PSORAM_PRINT_TRAFFIC") != nullptr) {
        std::cout << "TRAFFIC_DIGEST design=" << static_cast<int>(design)
                  << " cipher=" << (cipher == CipherKind::Aes128Ctr
                                        ? "aes" : "fast")
                  << " integrity=" << integrityModeName(integrity)
                  << " accesses=" << accesses << " digest=0x" << std::hex
                  << digest << std::dec << "\n";
        return;
    }
    EXPECT_EQ(digest, golden);
}

// 10k-access run of the flagship design, with the real AES-CTR codec:
// pins safe placement, the backup protocol, WPQ round splitting, the
// persistent-PosMap metadata writes AND the exact keystream bytes.
TEST(TrafficEquivalence, PsOramAesCtr10k)
{
    expectDigest(DesignKind::PsOram, CipherKind::Aes128Ctr, 10'000,
                 0xa9ebe9f06eedc7c8ULL);
}

// PS-ORAM with authenticated records and the Merkle tree: pins the
// sealed record bytes (ciphertext, version, GMAC tag) of every evicted
// slot, the root-record writes and the streamed interior nodes.
TEST(TrafficEquivalence, PsOramIntegrityTreeAesCtr1k)
{
    expectDigest(DesignKind::PsOram, CipherKind::Aes128Ctr, 1'000,
                 0xeddb51017c9eb545ULL, IntegrityMode::Tree);
}

// Classic greedy eviction (non-persistent baseline) — pins the
// deepest-eligible candidate selection including its tie-breaks.
TEST(TrafficEquivalence, BaselineGreedy6k)
{
    expectDigest(DesignKind::Baseline, CipherKind::FastStream, 6'000,
                 0xacd7960772d6fe8aULL);
}

// Naive-PS-ORAM: one metadata write per path slot (NaiveAll mode).
TEST(TrafficEquivalence, NaivePsOram4k)
{
    expectDigest(DesignKind::NaivePsOram, CipherKind::FastStream, 4'000,
                 0x924417c7bca5d6c5ULL);
}

// Recursive PS design: PoM traffic, shadow-stash snapshots and the
// single atomic bracket.
TEST(TrafficEquivalence, RcrPsOram2k)
{
    expectDigest(DesignKind::RcrPsOram, CipherKind::FastStream, 2'000,
                 0x3ba24a9fe549f905ULL);
}

// FullNVM: classic greedy plus the on-chip stash read phase.
TEST(TrafficEquivalence, FullNvm4k)
{
    expectDigest(DesignKind::FullNvm, CipherKind::FastStream, 4'000,
                 0x4c73000753776c8dULL);
}

/**
 * Drive the same access mix through the worker-pool sharded engine
 * instead of direct controller calls. Coalescing is off so every
 * request issues its own controller access, exactly like the direct
 * loop; per-shard FIFO then makes each shard's device traffic
 * deterministic.
 */
std::vector<std::uint64_t>
runShardedTrafficDigests(DesignKind design, CipherKind cipher,
                         unsigned num_shards, std::uint64_t accesses)
{
    ShardedSystemConfig sharded;
    sharded.base.design = design;
    sharded.base.tree_height = 10;
    sharded.base.cipher = cipher;
    sharded.base.seed = 7;
    sharded.sharding.num_shards = num_shards;

    ShardRouter router(sharded.sharding,
                       systemParams(sharded.base).num_blocks);

    // Mirror buildShardedSystem, but wrap every shard device in a
    // HashingBackend so each shard's functional traffic is digested.
    std::vector<std::unique_ptr<NvmDevice>> devices;
    std::vector<std::unique_ptr<HashingBackend>> hashed;
    std::vector<std::unique_ptr<PsOramController>> controllers;
    std::vector<PsOramController *> raw;
    for (unsigned k = 0; k < num_shards; ++k) {
        const SystemConfig sc = shardSystemConfig(sharded, router, k);
        const PsOramParams params = systemParams(sc);
        const Addr last = params.naive_scratch_base +
                          params.data_layout.geometry.blocksPerPath() *
                              kBlockDataBytes;
        const std::uint64_t capacity =
            ((last + 4095) & ~Addr{4095}) + (1ULL << 20);
        devices.push_back(std::make_unique<NvmDevice>(
            timingsFor(sc.main_tech), sc.channels, sc.banks_per_channel,
            capacity));
        hashed.push_back(std::make_unique<HashingBackend>(*devices.back()));
        controllers.push_back(
            std::make_unique<PsOramController>(params, *hashed.back()));
        raw.push_back(controllers.back().get());
    }

    {
        ShardedEngineConfig config;
        config.coalesce = false;
        config.record_completions = false;
        ShardedOramEngine engine(router, raw, config);

        const std::uint64_t total = router.totalBlocks();
        std::uint64_t rng = 0x70736f72616dULL ^
                            (static_cast<std::uint64_t>(design) << 56);
        std::array<std::uint8_t, kBlockDataBytes> buf{};
        for (std::uint64_t i = 0; i < accesses; ++i) {
            const std::uint64_t draw = splitmix64(rng);
            const BlockAddr addr = draw % total;
            if (draw & (1ULL << 40)) {
                for (std::size_t b = 0; b < buf.size(); ++b)
                    buf[b] = static_cast<std::uint8_t>(draw >> (b % 8));
                engine.submitWrite(addr, buf.data());
            } else {
                engine.submitRead(addr);
            }
        }
        engine.drain();
    } // joins the worker pool before the digests are read

    std::vector<std::uint64_t> digests;
    for (unsigned k = 0; k < num_shards; ++k)
        digests.push_back(hashed[k]->digest());
    return digests;
}

// The single-shard fast path must be byte-identical to the unsharded
// stack: same golden digest as PsOramAesCtr10k, produced through the
// mailbox -> shard worker -> controller pipeline.
TEST(TrafficEquivalence, ShardedSingleShardByteIdentical)
{
    const std::vector<std::uint64_t> digests = runShardedTrafficDigests(
        DesignKind::PsOram, CipherKind::Aes128Ctr, 1, 10'000);
    ASSERT_EQ(digests.size(), 1u);
    EXPECT_EQ(digests[0], 0xa9ebe9f06eedc7c8ULL);
    // And cross-check against a fresh direct-controller run.
    EXPECT_EQ(digests[0],
              runTrafficDigest(DesignKind::PsOram, CipherKind::Aes128Ctr,
                               10'000));
}

// With 4 shards the *global* interleaving is scheduler-dependent, but
// each shard's own device traffic must be a deterministic function of
// the config — two runs must produce identical per-shard digests.
TEST(TrafficEquivalence, ShardedPerShardTrafficIsDeterministic)
{
    const auto first = runShardedTrafficDigests(
        DesignKind::PsOram, CipherKind::FastStream, 4, 4'000);
    const auto second = runShardedTrafficDigests(
        DesignKind::PsOram, CipherKind::FastStream, 4, 4'000);
    ASSERT_EQ(first.size(), 4u);
    EXPECT_EQ(first, second);
    // Shards draw from derived seeds: their traffic must differ.
    EXPECT_NE(first[0], first[1]);
}

} // namespace
} // namespace psoram
