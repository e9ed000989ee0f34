/**
 * @file
 * Experiment runner: drives a workload trace through core + caches +
 * ORAM controller + NVM and collects the metrics the paper's figures
 * report (normalized execution time, read/write traffic).
 */

#ifndef PSORAM_SIM_EXPERIMENT_HH
#define PSORAM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "mem/core.hh"
#include "sim/system.hh"
#include "trace/generator.hh"

namespace psoram {

struct WorkloadResult
{
    std::string workload;
    std::string design;
    CoreRunStats core;
    TrafficCounts traffic;
    std::uint64_t oram_accesses = 0;
    std::uint64_t stash_hits = 0;
    std::uint64_t stash_peak = 0;
    double stash_mean_occupancy = 0.0;
    std::uint64_t wpq_rounds = 0;
    std::uint64_t backups = 0;
};

/** Fixed per-access controller overhead outside the NVM system. */
inline constexpr CpuCycle kControllerOverheadCpuCycles = 16;

/**
 * Run @p workload on a full system built from @p config.
 *
 * @param gen trace generation parameters (instruction budget etc.)
 */
WorkloadResult runWorkload(const SystemConfig &config,
                           const WorkloadSpec &workload,
                           const GeneratorParams &gen);

/**
 * Run @p workload against a plain (non-ORAM) NVM main memory: every LLC
 * miss is one NVM transaction. Used for the §5.1 "ORAM costs 2x-24x"
 * comparison.
 */
WorkloadResult runWorkloadNoOram(const SystemConfig &config,
                                 const WorkloadSpec &workload,
                                 const GeneratorParams &gen);

/** Geometric mean of per-workload normalized values. */
double geomean(const std::vector<double> &values);

} // namespace psoram

#endif // PSORAM_SIM_EXPERIMENT_HH
