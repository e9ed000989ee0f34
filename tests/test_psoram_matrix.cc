/**
 * @file
 * Configuration-matrix property tests: functional correctness and
 * crash consistency of PS-ORAM across tree heights, bucket sizes and
 * WPQ capacities (property-style sweep via parameterized gtest). The
 * crash rows run through the crash harness (sim/crash_enumerator.hh)
 * and its recovery-invariant checker.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "common/random.hh"
#include "crash_points.hh"
#include "sim/crash_enumerator.hh"

namespace psoram {
namespace {

using testing::CrashPoint;
using testing::crashAtPoint;
using testing::crashPointArming;

// (tree height, bucket slots Z, wpq entries)
using MatrixParam = std::tuple<unsigned, unsigned, std::size_t>;

SystemConfig
matrixConfig(const MatrixParam &param)
{
    SystemConfig config;
    config.design = DesignKind::PsOram;
    config.tree_height = std::get<0>(param);
    config.bucket_slots = std::get<1>(param);
    config.wpq_entries = std::get<2>(param);
    config.num_blocks =
        TreeGeometry{config.tree_height, config.bucket_slots}
            .dataBlocks(0.4);
    config.stash_capacity = 128;
    config.cipher = CipherKind::FastStream;
    config.seed = 1234;
    return config;
}

/** 400 writes of trace @p seed on @p system. */
CrashEnumConfig
crashCase(const SystemConfig &system, std::uint64_t seed)
{
    CrashEnumConfig config;
    config.system = system;
    config.trace = makeCrashTrace(seed, 400, system.num_blocks, 1.0);
    return config;
}

class PsOramMatrix : public ::testing::TestWithParam<MatrixParam>
{
};

TEST_P(PsOramMatrix, FunctionalAcrossGeometries)
{
    const SystemConfig config = matrixConfig(GetParam());
    System system = buildSystem(config);
    Rng rng(5);
    std::map<BlockAddr, std::uint32_t> reference;
    std::uint8_t buf[kBlockDataBytes];
    for (int op = 0; op < 800; ++op) {
        const BlockAddr addr = rng.nextBelow(config.num_blocks);
        if (rng.nextBool(0.5)) {
            stampPayload(addr, op + 1, buf);
            system.controller->write(addr, buf);
            reference[addr] = static_cast<std::uint32_t>(op + 1);
        } else {
            system.controller->read(addr, buf);
            const auto it = reference.find(addr);
            EXPECT_EQ(payloadVersion(buf),
                      it == reference.end() ? 0u : it->second)
                << "op " << op;
        }
    }
    EXPECT_EQ(system.controller->stash().overflowEvents(), 0u);
}

TEST_P(PsOramMatrix, CrashRecoveryAcrossGeometries)
{
    const CrashReplay replay = crashAtPoint(
        crashCase(matrixConfig(GetParam()), 9), CrashPoint::BeforeCommit,
        25);
    ASSERT_TRUE(replay.fired);
    EXPECT_EQ(replay.kind, PersistBoundary::RoundCommit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PsOramMatrix,
    ::testing::Values(MatrixParam{4, 4, 96}, MatrixParam{6, 4, 96},
                      MatrixParam{8, 4, 96}, MatrixParam{6, 2, 96},
                      MatrixParam{6, 6, 96}, MatrixParam{6, 4, 8},
                      MatrixParam{6, 4, 4}, MatrixParam{8, 2, 16},
                      MatrixParam{5, 8, 96}, MatrixParam{10, 4, 96}),
    [](const auto &info) {
        // Appended piecewise: GCC 12 flags the operator+ chain with a
        // false -Wrestrict in Release builds.
        std::string name = "h";
        name.append(std::to_string(std::get<0>(info.param)))
            .append("_z")
            .append(std::to_string(std::get<1>(info.param)))
            .append("_wpq")
            .append(std::to_string(std::get<2>(info.param)));
        return name;
    });

/** Seed sweep of the crash matrix at one geometry: broad state
 *  coverage of stash/temp/backup interleavings. */
class PsOramCrashSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PsOramCrashSeeds, ConsistentUnderRandomizedSchedules)
{
    // The first six points: steps 2 to 5 and between rounds.
    const auto point = static_cast<CrashPoint>(GetParam() % 6);
    // A 96-entry WPQ holds a whole eviction of this geometry, so no
    // eviction splits; the between-rounds rows take a WPQ smaller than
    // one eviction bundle so every eviction runs in several rounds.
    SystemConfig config = matrixConfig(
        MatrixParam{6, 4, point == CrashPoint::BetweenRounds ? 8 : 96});
    config.seed = GetParam();
    const CrashReplay replay =
        crashAtPoint(crashCase(config, GetParam() * 17 + 3), point,
                     10 + GetParam() % 40);
    ASSERT_TRUE(replay.fired) << crashPointArming(point).label;
    EXPECT_EQ(replay.kind, crashPointArming(point).fires);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsOramCrashSeeds,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
} // namespace psoram
