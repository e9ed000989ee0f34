#include "sim/experiment.hh"

#include <cmath>
#include <cstring>

#include "common/log.hh"

namespace psoram {

namespace {

/** Synthesize deterministic write payloads for trace-driven stores. */
void
fillPayload(BlockAddr addr, std::uint64_t version, std::uint8_t *out)
{
    for (std::size_t i = 0; i < kBlockDataBytes; i += 8) {
        const std::uint64_t word =
            (addr * 0x9e3779b97f4a7c15ULL) ^ (version + i);
        std::memcpy(out + i, &word, sizeof(word));
    }
}

} // namespace

WorkloadResult
runWorkload(const SystemConfig &config, const WorkloadSpec &workload,
            const GeneratorParams &gen)
{
    System system = buildSystem(config);
    PsOramController &oram = *system.controller;

    GeneratorParams gen_params = gen;
    gen_params.address_space_lines = system.params.num_blocks;
    SyntheticTrace trace(workload, gen_params);

    CacheHierarchy hierarchy;
    InOrderCore core(hierarchy);

    std::uint64_t version = 0;
    std::uint8_t buffer[kBlockDataBytes];
    const MemRequestHandler handler =
        [&](const MemRequest &request) -> CpuCycle {
        OramAccessInfo info;
        if (request.is_write) {
            fillPayload(request.line, ++version, buffer);
            info = oram.write(request.line, buffer);
        } else {
            info = oram.read(request.line, buffer);
        }
        return info.nvm_cycles * kCpuCyclesPerNvmCycle +
               kControllerOverheadCpuCycles;
    };

    WorkloadResult result;
    result.workload = workload.name;
    result.design = designName(config.design);
    result.core = core.run(trace, handler);
    result.traffic = oram.traffic();
    result.oram_accesses = oram.accessCount();
    result.stash_hits = oram.stashHits();
    result.stash_peak = oram.stash().peakSize();
    result.stash_mean_occupancy = oram.stash().occupancy().mean();
    result.backups = oram.backupsCreated();
    if (oram.drainer())
        result.wpq_rounds = oram.drainer()->roundsIssued();
    return result;
}

WorkloadResult
runWorkloadNoOram(const SystemConfig &config,
                  const WorkloadSpec &workload,
                  const GeneratorParams &gen)
{
    // A plain NVM main memory with the same timing model.
    NvmTiming timing(timingsFor(config.main_tech), config.channels,
                     config.banks_per_channel);

    GeneratorParams gen_params = gen;
    SyntheticTrace trace(workload, gen_params);
    CacheHierarchy hierarchy;
    InOrderCore core(hierarchy);

    Cycle now = 0;
    const MemRequestHandler handler =
        [&](const MemRequest &request) -> CpuCycle {
        const Cycle done = timing.accessOne(request.line * 64,
                                            request.is_write, now);
        const Cycle latency = done > now ? done - now : 0;
        now = done;
        return latency * kCpuCyclesPerNvmCycle + 4;
    };

    WorkloadResult result;
    result.workload = workload.name;
    result.design = "No-ORAM";
    result.core = core.run(trace, handler);
    result.traffic.reads = timing.totalReads();
    result.traffic.writes = timing.totalWrites();
    return result;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace psoram
