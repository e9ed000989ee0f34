/**
 * @file
 * System builder and experiment runner tests: NVM region layout
 * disjointness across designs, config override parsing, and end-to-end
 * workload smoke runs.
 */

#include <gtest/gtest.h>

#include "sim/designs.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace psoram {
namespace {

SystemConfig
tinyConfig(DesignKind design)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 6;
    config.num_blocks = 200;
    config.stash_capacity = 64;
    config.seed = 3;
    return config;
}

TEST(SystemLayout, RegionsAreDisjoint)
{
    for (const DesignKind design : allDesigns()) {
        const PsOramParams params = systemParams(tinyConfig(design));
        struct Region
        {
            Addr base;
            std::uint64_t size;
        };
        std::vector<Region> regions;
        regions.push_back(
            {params.data_layout.base,
             params.data_layout.footprintBytes()});
        regions.push_back({params.posmap_region_base,
                           params.num_blocks * 4});
        if (params.design.recursive_posmap) {
            const TreeGeometry pom{params.pom_height, 4};
            regions.push_back({params.pom_tree_base,
                               pom.numSlots() * kSlotBytes});
            regions.push_back({params.shadow_data_base,
                               ShadowStashRegion::kHeaderBytes +
                                   2 * params.stash_capacity *
                                       kSlotBytes});
            regions.push_back({params.shadow_pom_base,
                               ShadowStashRegion::kHeaderBytes +
                                   2 * params.pom_stash_capacity *
                                       kSlotBytes});
        }
        regions.push_back({params.naive_scratch_base, 64});

        for (std::size_t i = 0; i < regions.size(); ++i) {
            for (std::size_t j = i + 1; j < regions.size(); ++j) {
                const bool overlap =
                    regions[i].base <
                        regions[j].base + regions[j].size &&
                    regions[j].base <
                        regions[i].base + regions[i].size;
                EXPECT_FALSE(overlap)
                    << designName(design) << " regions " << i
                    << " and " << j << " overlap";
            }
        }
    }
}

TEST(SystemLayout, DeviceCapacityCoversLayout)
{
    for (const DesignKind design : allDesigns()) {
        System system = buildSystem(tinyConfig(design));
        EXPECT_GT(system.device->capacity(),
                  system.params.naive_scratch_base);
    }
}

TEST(SystemLayout, NumBlocksDerivedFromUtilization)
{
    SystemConfig config = tinyConfig(DesignKind::PsOram);
    config.num_blocks = 0;
    const PsOramParams params = systemParams(config);
    EXPECT_EQ(params.num_blocks,
              params.data_layout.geometry.dataBlocks(0.5));
}

TEST(SystemRecovery, RebindHookReattachesObserversAfterRecovery)
{
    // Observers and crash policies hang off the controller object;
    // recoverController() replaces that object, so without the rebind
    // hook every registration is silently dropped.
    System system = buildSystem(tinyConfig(DesignKind::PsOram));

    std::uint64_t paths_seen = 0;
    int rebinds = 0;
    system.setRebindHook([&](PsOramController &ctrl) {
        ++rebinds;
        ctrl.setPathObserver([&](PathId) { ++paths_seen; });
    });
    system.rebind_hook(*system.controller); // initial attach

    std::uint8_t buf[kBlockDataBytes] = {};
    system.controller->write(1, buf);
    const std::uint64_t before = paths_seen;
    EXPECT_GT(before, 0u);

    system.recoverController();
    EXPECT_EQ(rebinds, 2);

    // The observer keeps firing on the recovered controller (the stash
    // was lost in the crash, so this read walks the tree again).
    system.controller->read(1, buf);
    EXPECT_GT(paths_seen, before);
}

TEST(SystemRecovery, WithoutRebindHookObserversAreDropped)
{
    System system = buildSystem(tinyConfig(DesignKind::PsOram));
    std::uint64_t paths_seen = 0;
    system.controller->setPathObserver([&](PathId) { ++paths_seen; });

    std::uint8_t buf[kBlockDataBytes] = {};
    system.controller->write(1, buf);
    const std::uint64_t before = paths_seen;

    system.recoverController();
    system.controller->read(1, buf);
    // Documents the trap the hook exists to close.
    EXPECT_EQ(paths_seen, before);
}

TEST(Designs, CatalogsMatchPaper)
{
    EXPECT_EQ(nonRecursiveDesigns().size(), 5u);
    EXPECT_EQ(recursiveDesigns().size(), 2u);
    EXPECT_EQ(allDesigns().size(), 7u);
    EXPECT_EQ(designName(DesignKind::PsOram), "PS-ORAM");
    EXPECT_EQ(designName(DesignKind::NaivePsOram), "Naive-PS-ORAM");
    EXPECT_EQ(designName(DesignKind::RcrBaseline), "Rcr-Baseline");
}

TEST(Designs, OptionsEncodeVariants)
{
    EXPECT_EQ(designOptions(DesignKind::Baseline).persist,
              PersistMode::None);
    EXPECT_EQ(designOptions(DesignKind::FullNvm).stash_tech,
              StashTech::PCM);
    EXPECT_EQ(designOptions(DesignKind::FullNvmStt).stash_tech,
              StashTech::STTRAM);
    EXPECT_EQ(designOptions(DesignKind::NaivePsOram).persist,
              PersistMode::NaiveAll);
    EXPECT_EQ(designOptions(DesignKind::PsOram).persist,
              PersistMode::DirtyOnly);
    EXPECT_TRUE(designOptions(DesignKind::RcrPsOram).recursive_posmap);
    EXPECT_FALSE(designOptions(DesignKind::PsOram).recursive_posmap);
}

TEST(Designs, ConfigOverridesApply)
{
    Config overrides;
    overrides.parseAssignment("height=10");
    overrides.parseAssignment("channels=4");
    overrides.parseAssignment("wpq=4");
    overrides.parseAssignment("cipher=aes");
    overrides.parseAssignment("tech=stt");
    const SystemConfig config =
        configFromOverrides(overrides, DesignKind::PsOram);
    EXPECT_EQ(config.tree_height, 10u);
    EXPECT_EQ(config.channels, 4u);
    EXPECT_EQ(config.wpq_entries, 4u);
    EXPECT_EQ(config.cipher, CipherKind::Aes128Ctr);
    EXPECT_EQ(config.main_tech, NvmTech::STTRAM);
}

/** Accesses run one at a time per controller: any other depth is a
 *  configuration error, not a silent clamp. */
TEST(Designs, PipelineDepthOtherThanOneIsFatal)
{
    SystemConfig config = tinyConfig(DesignKind::PsOram);
    config.pipeline_depth = 2;
    EXPECT_EXIT(buildSystem(config), ::testing::ExitedWithCode(1),
                "pipeline_depth must be 1");
}

/** Config large enough that the miss stream exceeds the L2 reach. */
SystemConfig
expConfig(DesignKind design, unsigned channels = 1)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 16; // ~260k logical blocks (16 MB >> L2)
    config.stash_capacity = 200;
    config.seed = 3;
    config.channels = channels;
    return config;
}

TEST(Experiment, WorkloadSmokeRunProducesSaneMetrics)
{
    SystemConfig config = expConfig(DesignKind::PsOram);
    GeneratorParams gen;
    gen.instructions = 50'000;
    const WorkloadSpec spec{"probe", 20.0, 0.30, 0.30};
    const WorkloadResult result = runWorkload(config, spec, gen);

    EXPECT_EQ(result.core.instructions, 50'000u);
    EXPECT_GT(result.core.cycles, result.core.instructions);
    EXPECT_GT(result.oram_accesses, 0u);
    EXPECT_GT(result.traffic.reads, 0u);
    EXPECT_GT(result.traffic.writes, 0u);
    EXPECT_NEAR(result.core.mpki(), 20.0, 4.0);
}

TEST(Experiment, PsOramSlowerThanBaselineButClose)
{
    GeneratorParams gen;
    gen.instructions = 60'000;
    const WorkloadSpec spec{"probe", 25.0, 0.30, 0.30};
    const WorkloadResult base =
        runWorkload(expConfig(DesignKind::Baseline), spec, gen);
    const WorkloadResult ps =
        runWorkload(expConfig(DesignKind::PsOram), spec, gen);
    const double ratio = static_cast<double>(ps.core.cycles) /
                         static_cast<double>(base.core.cycles);
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 1.3); // the paper's headline: ~4.3% overhead
}

TEST(Experiment, NoOramIsMuchFasterThanOram)
{
    GeneratorParams gen;
    gen.instructions = 60'000;
    const WorkloadSpec spec{"probe", 25.0, 0.30, 0.30};
    const WorkloadResult base =
        runWorkload(expConfig(DesignKind::Baseline), spec, gen);
    const WorkloadResult raw =
        runWorkloadNoOram(expConfig(DesignKind::Baseline), spec, gen);
    const double overhead = static_cast<double>(base.core.cycles) /
                            static_cast<double>(raw.core.cycles);
    EXPECT_GT(overhead, 1.8); // paper: 2x-24x at one channel
}

TEST(Experiment, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Experiment, MoreChannelsReduceRuntime)
{
    GeneratorParams gen;
    gen.instructions = 60'000;
    const WorkloadSpec spec{"probe", 25.0, 0.30, 0.30};
    const SystemConfig one = expConfig(DesignKind::PsOram);
    const SystemConfig four = expConfig(DesignKind::PsOram, 4);
    const WorkloadResult r1 = runWorkload(one, spec, gen);
    const WorkloadResult r4 = runWorkload(four, spec, gen);
    EXPECT_LT(r4.core.cycles, r1.core.cycles);
}

} // namespace
} // namespace psoram
