/**
 * @file
 * Workload/trace generator tests, including the Table 4 MPKI
 * calibration property: running each synthetic workload through the
 * Table 3a cache hierarchy must reproduce its published MPKI.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "mem/core.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace psoram {

/**
 * Print a workload parameter by name. gtest's default byte dump would
 * include the address of the name's character buffer, so the listed
 * test names (and the ctest names discovered from them) would change
 * from run to run.
 */
static void
PrintTo(const WorkloadSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

namespace {

TEST(Workloads, RosterMatchesTable4)
{
    const auto &workloads = spec2006Workloads();
    EXPECT_EQ(workloads.size(), 14u);

    const auto sjeng = findWorkload("458.sjeng");
    ASSERT_TRUE(sjeng.has_value());
    EXPECT_NEAR(sjeng->mpki, 110.99, 1e-9);

    const auto gcc = findWorkload("403.gcc");
    ASSERT_TRUE(gcc.has_value());
    EXPECT_NEAR(gcc->mpki, 1.19, 1e-9);

    EXPECT_FALSE(findWorkload("999.nonexistent").has_value());
}

TEST(SyntheticTrace, DeterministicForSameSeed)
{
    const WorkloadSpec spec = *findWorkload("429.mcf");
    GeneratorParams params;
    params.instructions = 50000;
    SyntheticTrace a(spec, params), b(spec, params);
    TraceRecord ra{}, rb{};
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        EXPECT_EQ(ra.gap, rb.gap);
        EXPECT_EQ(ra.line, rb.line);
        EXPECT_EQ(ra.is_write, rb.is_write);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(SyntheticTrace, ResetReplaysIdentically)
{
    const WorkloadSpec spec = *findWorkload("470.lbm");
    GeneratorParams params;
    params.instructions = 20000;
    SyntheticTrace trace(spec, params);
    std::vector<TraceRecord> first;
    TraceRecord r{};
    while (trace.next(r))
        first.push_back(r);
    trace.reset();
    for (const TraceRecord &expected : first) {
        ASSERT_TRUE(trace.next(r));
        EXPECT_EQ(r.line, expected.line);
    }
}

TEST(SyntheticTrace, EmitsRequestedInstructionCount)
{
    const WorkloadSpec spec = *findWorkload("444.namd");
    GeneratorParams params;
    params.instructions = 123456;
    SyntheticTrace trace(spec, params);
    TraceRecord r{};
    std::uint64_t instructions = 0;
    while (trace.next(r))
        instructions += r.gap;
    EXPECT_EQ(instructions, 123456u);
}

TEST(SyntheticTrace, WriteFractionApproximatelyMet)
{
    const WorkloadSpec spec = *findWorkload("462.libquantum");
    GeneratorParams params;
    params.instructions = 500000;
    SyntheticTrace trace(spec, params);
    TraceRecord r{};
    std::uint64_t writes = 0, total = 0;
    while (trace.next(r)) {
        ++total;
        writes += r.is_write;
    }
    EXPECT_NEAR(static_cast<double>(writes) / total,
                spec.write_fraction, 0.02);
}

TEST(SyntheticTrace, AddressesStayInConfiguredSpace)
{
    const WorkloadSpec spec = *findWorkload("401.bzip2");
    GeneratorParams params;
    params.instructions = 100000;
    params.address_space_lines = 1 << 22;
    SyntheticTrace trace(spec, params);
    TraceRecord r{};
    while (trace.next(r))
        EXPECT_LT(r.line, params.address_space_lines);
}

/** Table 4 calibration property, parameterized over all 14 workloads. */
class MpkiCalibration : public ::testing::TestWithParam<WorkloadSpec>
{
};

TEST_P(MpkiCalibration, MeasuredMpkiTracksTable4)
{
    const WorkloadSpec spec = GetParam();
    GeneratorParams params;
    params.instructions = 2'000'000;
    SyntheticTrace trace(spec, params);

    CacheHierarchy hierarchy;
    InOrderCore core(hierarchy);
    const MemRequestHandler memory = [](const MemRequest &) -> CpuCycle {
        return 0;
    };
    const CoreRunStats stats = core.run(trace, memory);

    // Within 15 % + 1 MPKI of the published value: the generator's miss
    // stream is guaranteed-miss, the slack covers hot-set cold misses
    // and L2 dirty-writeback classification.
    EXPECT_NEAR(stats.mpki(), spec.mpki,
                0.15 * spec.mpki + 1.0)
        << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table4, MpkiCalibration,
    ::testing::ValuesIn(spec2006Workloads()),
    [](const ::testing::TestParamInfo<WorkloadSpec> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (c == '.' || c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace psoram
