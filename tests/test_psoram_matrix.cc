/**
 * @file
 * Configuration-matrix property tests: functional correctness and
 * crash consistency of PS-ORAM across tree heights, bucket sizes and
 * WPQ capacities (property-style sweep via parameterized gtest).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>

#include "common/random.hh"
#include "crash_points.hh"
#include "psoram/recovery.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

using testing::CrashPoint;
using testing::armCrashPoint;
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

void
payload(BlockAddr addr, std::uint32_t version, std::uint8_t *out)
{
    std::memset(out, 0, kBlockDataBytes);
    std::memcpy(out, &addr, sizeof(addr));
    std::memcpy(out + 8, &version, sizeof(version));
}

std::uint32_t
versionOf(const std::uint8_t *data)
{
    std::uint32_t v = 0;
    std::memcpy(&v, data + 8, sizeof(v));
    return v;
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
            payload(addr, op + 1, buf);
            system.controller->write(addr, buf);
            reference[addr] = static_cast<std::uint32_t>(op + 1);
        } else {
            system.controller->read(addr, buf);
            const auto it = reference.find(addr);
            EXPECT_EQ(versionOf(buf),
                      it == reference.end() ? 0u : it->second)
                << "op " << op;
        }
    }
    EXPECT_EQ(system.controller->stash().overflowEvents(), 0u);
}

TEST_P(PsOramMatrix, CrashRecoveryAcrossGeometries)
{
    const SystemConfig config = matrixConfig(GetParam());
    FaultInjector injector;
    System system = buildSystem(config);
    std::map<BlockAddr, std::uint32_t> durable, latest;
    system.controller->setCommitObserver(
        [&](BlockAddr addr, const auto &data) {
            durable[addr] =
                std::max(durable[addr], versionOf(data.data()));
        });
    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, CrashPoint::BeforeCommit, 25);

    Rng rng(9);
    std::uint8_t buf[kBlockDataBytes];
    bool crashed = false;
    for (int op = 0; op < 400 && !crashed; ++op) {
        const BlockAddr addr = rng.nextBelow(config.num_blocks);
        payload(addr, op + 1, buf);
        try {
            system.controller->write(addr, buf);
            latest[addr] = static_cast<std::uint32_t>(op + 1);
        } catch (const InjectedFault &fault) {
            crashed = true;
            latest[addr] = static_cast<std::uint32_t>(op + 1);
            EXPECT_EQ(fault.kind(), PersistBoundary::RoundCommit);
        }
    }
    ASSERT_TRUE(crashed);

    system.recoverController();
    for (const auto &[addr, version] : latest) {
        system.controller->read(addr, buf);
        const std::uint32_t v = versionOf(buf);
        EXPECT_GE(v, durable[addr]) << "addr " << addr;
        EXPECT_LE(v, version) << "addr " << addr;
    }
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
    FaultInjector injector;
    System system = buildSystem(config);
    std::map<BlockAddr, std::uint32_t> durable, latest;
    system.controller->setCommitObserver(
        [&](BlockAddr addr, const auto &data) {
            durable[addr] =
                std::max(durable[addr], versionOf(data.data()));
        });
    system.attachFaultInjector(&injector);
    armCrashPoint(system, injector, point, 10 + GetParam() % 40);

    Rng rng(GetParam() * 17 + 3);
    std::uint8_t buf[kBlockDataBytes];
    bool crashed = false;
    for (int op = 0; op < 400; ++op) {
        const BlockAddr addr = rng.nextBelow(config.num_blocks);
        payload(addr, op + 1, buf);
        try {
            system.controller->write(addr, buf);
            latest[addr] = static_cast<std::uint32_t>(op + 1);
        } catch (const InjectedFault &fault) {
            crashed = true;
            latest[addr] = static_cast<std::uint32_t>(op + 1);
            EXPECT_EQ(fault.kind(), crashPointArming(point).fires);
            break;
        }
    }
    ASSERT_TRUE(crashed) << crashPointArming(point).label;

    system.recoverController();
    for (const auto &[addr, version] : latest) {
        system.controller->read(addr, buf);
        const std::uint32_t v = versionOf(buf);
        EXPECT_GE(v, durable[addr]) << "addr " << addr;
        EXPECT_LE(v, version) << "addr " << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsOramCrashSeeds,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
} // namespace psoram
