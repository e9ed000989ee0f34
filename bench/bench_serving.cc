/**
 * @file
 * Open-loop serving benchmark: tail latency and saturation throughput
 * of the sharded PS-ORAM stack under production-shaped traffic.
 *
 * The run calibrates the stack's closed-loop capacity, then sweeps an
 * open-loop (Poisson) rate ladder around it for each key distribution,
 * with the BatchScheduler in front and — on the skewed distribution —
 * once more on the scheduler-bypass path, so the scheduler's dedupe
 * gain shows up as a saturation-throughput delta in the same artifact.
 * Closed-loop rows and a multi-key recsys batch row complete the
 * picture. Latencies are measured from the *scheduled* arrival time
 * (open loop), so queueing delay is included — see serve/harness.hh.
 *
 * With "--json <path>" the run emits BENCH_serving.json. Overrides:
 *   shards=N                  stack shape (default 4 shards)
 *   keys=N                    logical key space (default 65536)
 *   readfrac=F batch=K        request mix (default 0.95, batch row K=8)
 *   submitters=S depth=D      client threads / closed-loop outstanding
 *   duration=S calibseconds=S per-load-point and calibration budgets
 *   rates=a,b,c               absolute rate ladder (default: auto from
 *                             calibration x {0.4,0.8,1.2,1.6,2.0})
 *   zipfs=S                   Zipfian exponent (default 0.99)
 * plus the usual height/z/stash/wpq/cipher/seed keys and
 * --trace/--metrics.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "serve/harness.hh"
#include "sim/sharded_engine.hh"
#include "sim/sharded_system.hh"

namespace {

using namespace psoram;
using namespace psoram::serve;

/** Parse "a,b,c" into doubles (invalid/empty tokens skipped). */
std::vector<double>
parseRateList(const std::string &value)
{
    std::vector<double> rates;
    std::string token;
    for (std::size_t i = 0; i <= value.size(); ++i) {
        if (i < value.size() && value[i] != ',') {
            token += value[i];
            continue;
        }
        if (!token.empty()) {
            const double rate = std::strtod(token.c_str(), nullptr);
            if (rate > 0.0)
                rates.push_back(rate);
            token.clear();
        }
    }
    return rates;
}

double
us(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

void
addLatencyFields(psoram::bench::JsonReport::Row &row,
                 const LatencySnapshot &latency)
{
    row.num("mean_us", latency.mean_ns / 1e3)
        .num("p50_us", us(latency.p50_ns))
        .num("p90_us", us(latency.p90_ns))
        .num("p99_us", us(latency.p99_ns))
        .num("p999_us", us(latency.p999_ns))
        .num("max_us", us(latency.max_ns));
}

void
addResultFields(psoram::bench::JsonReport::Row &row,
                const LoadPointResult &result)
{
    row.num("achieved_rate", result.achieved_rate)
        .num("achieved_key_rate", result.achieved_key_rate)
        .count("submitted", result.submitted_requests)
        .count("completed", result.completed_requests)
        .count("completed_keys", result.completed_keys)
        .num("wall_seconds", result.wall_seconds);
    addLatencyFields(row, result.latency);
    row.count("deduped_reads", result.deduped_reads)
        .count("forwarded_reads", result.forwarded_reads)
        .count("engine_reads", result.engine_reads)
        .count("batches", result.batches)
        .count("physical_accesses", result.physical_accesses)
        .count("engine_coalesced", result.engine_coalesced)
        .count("stash_hits", result.stash_hits)
        .count("backpressure_waits", result.backpressure_waits);
}

void
printPoint(const std::string &label, const LoadPointResult &r)
{
    std::cout << label << ": offered="
              << static_cast<std::uint64_t>(r.offered_rate)
              << " achieved="
              << static_cast<std::uint64_t>(r.achieved_rate)
              << " req/s  p50=" << us(r.latency.p50_ns)
              << "us p99=" << us(r.latency.p99_ns)
              << "us p999=" << us(r.latency.p999_ns)
              << "us dedup=" << r.deduped_reads
              << " fwd=" << r.forwarded_reads << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const psoram::bench::BenchContext ctx =
        psoram::bench::parseContext(argc, argv);

    const unsigned shards =
        static_cast<unsigned>(ctx.overrides.getUint("shards", 4));
    const std::uint64_t keys = ctx.overrides.getUint("keys", 1 << 16);
    const double read_fraction =
        ctx.overrides.getDouble("readfrac", 0.95);
    const unsigned batch_size =
        static_cast<unsigned>(ctx.overrides.getUint("batch", 8));
    const unsigned submitters =
        static_cast<unsigned>(ctx.overrides.getUint("submitters", 2));
    const unsigned closed_depth =
        static_cast<unsigned>(ctx.overrides.getUint("depth", 16));
    const double duration = ctx.overrides.getDouble("duration", 0.4);
    const double calib_seconds =
        ctx.overrides.getDouble("calibseconds", 0.3);
    const double zipf_s = ctx.overrides.getDouble("zipfs", 0.99);
    const std::uint64_t seed = ctx.overrides.getUint("seed", 1);
    std::vector<double> rates = parseRateList(
        psoram::bench::flagValue(argc, argv, "--rates").empty()
            ? ctx.overrides.getString("rates", "")
            : psoram::bench::flagValue(argc, argv, "--rates"));

    ShardedSystemConfig system_config;
    system_config.base =
        configFromOverrides(ctx.overrides, DesignKind::PsOram);
    system_config.sharding.num_shards = shards;
    ShardedSystem system = buildShardedSystem(system_config);

    if (keys > system.router.totalBlocks()) {
        std::cerr << "error: keys=" << keys << " exceeds the stack's "
                  << system.router.totalBlocks() << " blocks\n";
        return 1;
    }

    ShardedEngineConfig engine_config;
    engine_config.record_completions = false;
    ShardedOramEngine engine(system, engine_config);
    BatchScheduler scheduler(engine);
    ServingHarness harness(engine, &scheduler);

    psoram::bench::JsonReport report("serving");
    report.metaCount("shards", shards)
        .metaCount("tree_height", system_config.base.tree_height)
        .metaCount("keys", keys)
        .metaNum("read_fraction", read_fraction)
        .metaNum("zipf_s", zipf_s)
        .metaCount("submitters", submitters)
        .metaCount("closed_loop_depth", closed_depth)
        .metaNum("duration_s", duration)
        .metaCount("seed", seed);
    psoram::bench::addSystemMeta(report, system_config.base);

    const auto makeStream = [&](KeyDist dist, ArrivalMode mode,
                                double rate, unsigned batch) {
        StreamConfig stream;
        stream.mode = mode;
        stream.dist = dist;
        stream.num_keys = keys;
        stream.zipf_s = zipf_s;
        stream.read_fraction = read_fraction;
        stream.batch_size = batch;
        stream.offered_rate = rate;
        stream.seed = seed;
        return stream;
    };

    // Warm the trees and stashes before any measurement.
    {
        HarnessConfig warm;
        warm.stream = makeStream(KeyDist::Uniform,
                                 ArrivalMode::ClosedLoop, 0.0, 1);
        warm.submitters = submitters;
        warm.closed_loop_depth = closed_depth;
        warm.duration_s = std::min(0.2, calib_seconds);
        warm.use_scheduler = false;
        harness.run(warm);
    }

    // Calibrate closed-loop capacity on the bypass path; the open-loop
    // ladder brackets it so the sweep always crosses the knee.
    double capacity;
    {
        HarnessConfig calib;
        calib.stream = makeStream(KeyDist::Uniform,
                                  ArrivalMode::ClosedLoop, 0.0, 1);
        calib.submitters = submitters;
        calib.closed_loop_depth = closed_depth;
        calib.duration_s = calib_seconds;
        calib.use_scheduler = false;
        capacity = harness.run(calib).achieved_rate;
    }
    report.metaNum("calibrated_capacity", capacity);
    std::cout << "calibrated closed-loop capacity: "
              << static_cast<std::uint64_t>(capacity) << " req/s\n";
    if (rates.empty())
        for (const double multiplier : {0.4, 0.8, 1.2, 1.6, 2.0})
            rates.push_back(std::max(100.0, capacity * multiplier));

    struct SweepKey
    {
        KeyDist dist;
        bool use_scheduler;
    };
    // Both-distribution open-loop sweeps through the scheduler, plus
    // the Zipfian bypass sweep the scheduler is judged against.
    const std::vector<SweepKey> sweeps = {
        {KeyDist::Zipfian, true},
        {KeyDist::Uniform, true},
        {KeyDist::Zipfian, false},
    };

    struct Saturation
    {
        KeyDist dist;
        bool use_scheduler;
        double rate = 0.0;
    };
    std::vector<Saturation> saturations;

    for (const SweepKey &sweep : sweeps) {
        Saturation saturation{sweep.dist, sweep.use_scheduler, 0.0};
        for (const double rate : rates) {
            HarnessConfig point;
            point.stream = makeStream(sweep.dist, ArrivalMode::OpenLoop,
                                      rate, 1);
            point.submitters = submitters;
            point.duration_s = duration;
            point.use_scheduler = sweep.use_scheduler;
            const LoadPointResult result = harness.run(point);
            saturation.rate =
                std::max(saturation.rate, result.achieved_rate);

            auto &row = report.addRow();
            row.str("scope", "openloop")
                .str("dist", keyDistName(sweep.dist))
                .count("scheduler", sweep.use_scheduler ? 1 : 0)
                .num("offered_rate", result.offered_rate);
            addResultFields(row, result);
            printPoint(std::string("open ") +
                           keyDistName(sweep.dist) +
                           (sweep.use_scheduler ? "+sched" : " bypass"),
                       result);
        }
        saturations.push_back(saturation);
    }

    // Closed-loop rows: what a fixed client fleet observes, both key
    // distributions, scheduler on.
    for (const KeyDist dist : {KeyDist::Zipfian, KeyDist::Uniform}) {
        HarnessConfig point;
        point.stream =
            makeStream(dist, ArrivalMode::ClosedLoop, 0.0, 1);
        point.submitters = submitters;
        point.closed_loop_depth = closed_depth;
        point.duration_s = duration;
        point.use_scheduler = true;
        const LoadPointResult result = harness.run(point);
        auto &row = report.addRow();
        row.str("scope", "closedloop")
            .str("dist", keyDistName(dist))
            .count("scheduler", 1)
            .count("submitters", submitters)
            .count("outstanding", closed_depth);
        addResultFields(row, result);
        printPoint(std::string("closed ") + keyDistName(dist), result);
    }

    // Recsys-shaped multi-key batch row: Zipfian embedding lookups,
    // batch_size keys joined per request.
    if (batch_size > 1) {
        HarnessConfig point;
        point.stream = makeStream(KeyDist::Zipfian,
                                  ArrivalMode::ClosedLoop, 0.0,
                                  batch_size);
        point.submitters = submitters;
        point.closed_loop_depth =
            std::max(1u, closed_depth / batch_size);
        point.duration_s = duration;
        point.use_scheduler = true;
        const LoadPointResult result = harness.run(point);
        auto &row = report.addRow();
        row.str("scope", "batch")
            .str("dist", "zipfian")
            .count("scheduler", 1)
            .count("batch_size", batch_size);
        addResultFields(row, result);
        printPoint("batch zipfian", result);
    }

    // Saturation summary + the scheduler-vs-bypass gain on the skewed
    // workload (the number the scheduler exists to move).
    double zipf_sched = 0.0, zipf_bypass = 0.0;
    for (const Saturation &saturation : saturations) {
        report.addRow()
            .str("scope", "saturation")
            .str("dist", keyDistName(saturation.dist))
            .count("scheduler", saturation.use_scheduler ? 1 : 0)
            .num("saturation_rate", saturation.rate);
        if (saturation.dist == KeyDist::Zipfian) {
            (saturation.use_scheduler ? zipf_sched : zipf_bypass) =
                saturation.rate;
        }
    }
    if (zipf_bypass > 0.0) {
        const double gain = zipf_sched / zipf_bypass;
        report.addRow()
            .str("scope", "saturation_gain")
            .str("dist", "zipfian")
            .num("scheduler_rate", zipf_sched)
            .num("bypass_rate", zipf_bypass)
            .num("gain", gain);
        std::cout << "zipfian saturation: scheduler="
                  << static_cast<std::uint64_t>(zipf_sched)
                  << " bypass="
                  << static_cast<std::uint64_t>(zipf_bypass)
                  << " req/s (gain " << gain << "x)\n";
    }

    if (!ctx.json_path.empty())
        return report.writeTo(ctx.json_path) ? 0 : 1;
    return 0;
}
