/**
 * @file
 * Shared plumbing for the table/figure bench binaries.
 *
 * Every bench accepts "key=value" overrides on the command line:
 *   instructions=N   trace length per workload (default 200000;
 *                    the paper samples 5000000 — pass that for full
 *                    fidelity runs)
 *   height=L z=Z stash=N wpq=N channels=N banks=N seed=N
 *   cipher=aes|fast  tech=pcm|stt
 *   workloads=K      only run the first K workloads (quick looks)
 *
 * Storage backend selection ("--backend <kind>" or "--backend=<kind>",
 * equivalently the "backend=<kind>" override):
 *   --backend memory  in-memory NvmDevice (default)
 *   --backend disk    PagedDiskBackend (page-cached tree in a file)
 * disk takes its path from "backingfile=<path>"; when absent the
 * bench generates a per-process temp path and deletes the tree at exit.
 * Disk tuning rides along as "cachepages=N pinpages=N".
 *
 * Benches that write a report additionally accept "--json <path>" (or
 * --json=<path>): the run then also emits a machine-readable report
 * (BENCH_*.json).
 *
 * Observability flags (DESIGN.md §11), also "--flag <path>" or
 * "--flag=<path>":
 *   --trace <file>    record Chrome trace_event JSON of the run (open
 *                     at https://ui.perfetto.dev); written at exit
 *   --metrics <file>  dump a metrics snapshot at exit (.prom/.txt for
 *                     Prometheus text format, anything else JSON)
 */

#ifndef PSORAM_BENCH_BENCH_COMMON_HH
#define PSORAM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/config.hh"
#include "common/table.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/designs.hh"
#include "sim/experiment.hh"
#include "trace/workloads.hh"

namespace psoram::bench {

/**
 * Minimal JSON report writer: a flat "meta" object plus one "results"
 * array of flat objects. Field order is preserved, numbers are emitted
 * raw and strings quoted — just enough structure for CI artifacts and
 * plotting scripts, with no external dependency.
 */
class JsonReport
{
  public:
    /** Every report self-describes the machine and build that produced
     *  it: a single-core or Debug artifact (like an inverted scaling
     *  curve) must be explainable from the JSON alone. */
    explicit JsonReport(std::string bench) : bench_(std::move(bench))
    {
#ifdef PSORAM_BUILD_TYPE
        meta_.str("build_type", PSORAM_BUILD_TYPE);
#else
        meta_.str("build_type", "unknown");
#endif
#ifdef PSORAM_GIT_SHA
        meta_.str("git_commit", PSORAM_GIT_SHA);
#else
        meta_.str("git_commit", "unknown");
#endif
        meta_.count("hardware_concurrency",
                    std::thread::hardware_concurrency());
    }

    /** One flat result object ("name": ... plus numeric fields). */
    class Row
    {
      public:
        Row &
        str(const std::string &key, const std::string &value)
        {
            fields_.emplace_back(key, quote(value));
            return *this;
        }
        Row &
        num(const std::string &key, double value)
        {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.6g", value);
            fields_.emplace_back(key, buf);
            return *this;
        }
        Row &
        count(const std::string &key, std::uint64_t value)
        {
            fields_.emplace_back(key, std::to_string(value));
            return *this;
        }

      private:
        friend class JsonReport;
        std::vector<std::pair<std::string, std::string>> fields_;
    };

    JsonReport &
    meta(const std::string &key, const std::string &value)
    {
        meta_.str(key, value);
        return *this;
    }
    JsonReport &
    metaNum(const std::string &key, double value)
    {
        meta_.num(key, value);
        return *this;
    }
    JsonReport &
    metaCount(const std::string &key, std::uint64_t value)
    {
        meta_.count(key, value);
        return *this;
    }

    Row &
    addRow()
    {
        rows_.emplace_back();
        return rows_.back();
    }

    /** Write the document; returns false (and warns) on I/O failure. */
    bool
    writeTo(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "warning: cannot write JSON report to " << path
                      << "\n";
            return false;
        }
        out << "{\n  \"bench\": " << quote(bench_) << ",\n";
        for (const auto &[key, value] : meta_.fields_)
            out << "  " << quote(key) << ": " << value << ",\n";
        out << "  \"results\": [\n";
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            out << "    {";
            const auto &fields = rows_[r].fields_;
            for (std::size_t f = 0; f < fields.size(); ++f)
                out << (f ? ", " : "") << quote(fields[f].first) << ": "
                    << fields[f].second;
            out << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        return out.good();
    }

  private:
    static std::string
    quote(const std::string &s)
    {
        std::string quoted = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        quoted += '"';
        return quoted;
    }

    std::string bench_;
    Row meta_;
    std::vector<Row> rows_;
};

struct BenchContext
{
    Config overrides;
    std::uint64_t instructions = 200'000;
    /** Resolved --backend / backend= choice ("memory"|"disk"). */
    std::string backend = "memory";
    /** Backing tree path for the disk backend; empty for memory.
     *  When the bench generated it (no backingfile= given), the paths
     *  (plus per-shard suffixes) are deleted at exit. */
    std::string backing_file;
    /** Non-empty: also emit a JSON report here (--json <path>). */
    std::string json_path;
    /** Non-empty: record and write a Chrome trace here (--trace). */
    std::string trace_path;
    /** Non-empty: dump a metrics snapshot here at exit (--metrics). */
    std::string metrics_path;
    std::vector<WorkloadSpec> workloads;

    GeneratorParams
    genParams(std::uint64_t seed_salt = 0) const
    {
        GeneratorParams gen;
        gen.instructions = instructions;
        gen.seed = overrides.getUint("seed", 1) ^ (seed_salt * 0x9e37);
        return gen;
    }
};

/** @{ Exit-time trace dump: last setupObservability() path wins, so
 *  every bench leaves a trace behind without per-bench plumbing. */
inline std::string &
traceDumpPath()
{
    // Leaked: the atexit hook may run during static destruction.
    static std::string *path = new std::string();
    return *path;
}

inline void
traceDumpAtExit()
{
    if (!traceDumpPath().empty())
        obs::TraceRecorder::instance().writeTo(traceDumpPath());
}
/** @} */

/**
 * Honor the --trace/--metrics flags: enable the recorder and register
 * exit-time dumps. Called by parseContext(); harnesses that finish (or
 * abort) without further plumbing still leave the files behind.
 */
inline void
setupObservability(const BenchContext &ctx)
{
    if (!ctx.trace_path.empty()) {
        obs::TraceRecorder::instance().enable();
        static bool registered = false;
        traceDumpPath() = ctx.trace_path;
        if (!registered) {
            registered = true;
            std::atexit(traceDumpAtExit);
        }
    }
    if (!ctx.metrics_path.empty())
        obs::MetricsExporter::dumpAtExit(ctx.metrics_path);
}

/**
 * Delete a backing tree file plus any per-shard siblings
 * ("<path>.shardK") a sharded run may have created. Missing files are
 * fine — std::remove failures are ignored.
 */
inline void
removeBackingTree(const std::string &path, unsigned max_shards = 64)
{
    if (path.empty())
        return;
    // Each tree has a redo-log sidecar (<tree>.wal).
    const auto remove = [](const std::string &tree) {
        std::remove(tree.c_str());
        std::remove((tree + ".wal").c_str());
    };
    remove(path);
    for (unsigned shard = 0; shard < max_shards; ++shard)
        remove(path + ".shard" + std::to_string(shard));
}

/** @{ Exit-time scrub of bench-generated backing trees (same leaked-
 *  static pattern as the trace dump: the hook may run during static
 *  destruction). */
inline std::vector<std::string> &
scrubPaths()
{
    static std::vector<std::string> *paths = new std::vector<std::string>();
    return *paths;
}

inline void
scrubBackingTreesAtExit()
{
    for (const std::string &path : scrubPaths())
        removeBackingTree(path);
}

inline void
scrubBackingTreeOnExit(const std::string &path)
{
    static bool registered = false;
    if (!registered) {
        registered = true;
        std::atexit(scrubBackingTreesAtExit);
    }
    scrubPaths().push_back(path);
}
/** @} */

/** Value of "--name <v>" or "--name=<v>" (empty when absent). */
inline std::string
flagValue(int argc, char **argv, const std::string &name)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == name && i + 1 < argc)
            return argv[i + 1];
        if (arg.rfind(name + "=", 0) == 0)
            return arg.substr(name.size() + 1);
    }
    return "";
}

/** Parse a comma-separated list of positive integers ("1,2,4,8");
 *  invalid/empty tokens are skipped. */
inline std::vector<unsigned>
parseUintList(const std::string &value)
{
    std::vector<unsigned> values;
    std::string token;
    for (std::size_t i = 0; i <= value.size(); ++i) {
        if (i < value.size() && value[i] != ',') {
            token += value[i];
            continue;
        }
        if (!token.empty()) {
            const long v = std::strtol(token.c_str(), nullptr, 10);
            if (v > 0)
                values.push_back(static_cast<unsigned>(v));
            token.clear();
        }
    }
    return values;
}

inline BenchContext
parseContext(int argc, char **argv)
{
    BenchContext ctx;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            ctx.json_path = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            ctx.json_path = arg.substr(7);
        else if (arg == "--trace" && i + 1 < argc)
            ctx.trace_path = argv[++i];
        else if (arg.rfind("--trace=", 0) == 0)
            ctx.trace_path = arg.substr(8);
        else if (arg == "--metrics" && i + 1 < argc)
            ctx.metrics_path = argv[++i];
        else if (arg.rfind("--metrics=", 0) == 0)
            ctx.metrics_path = arg.substr(10);
    }
    setupObservability(ctx);
    ctx.overrides.parseArgs(argc, argv);
    const std::string backend_flag = flagValue(argc, argv, "--backend");
    if (!backend_flag.empty())
        ctx.overrides.set("backend", backend_flag);
    const std::string integrity_flag =
        flagValue(argc, argv, "--integrity");
    if (!integrity_flag.empty())
        ctx.overrides.set("integrity", integrity_flag);
    ctx.backend = ctx.overrides.getString("backend", "memory");
    ctx.backing_file = ctx.overrides.getString("backingfile", "");
    if (ctx.backend != "memory" && ctx.backing_file.empty()) {
        // disk needs a tree path; keep generated ones out of the
        // repo and off the next run's plate.
        ctx.backing_file = "/tmp/psoram_bench_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".tree";
        ctx.overrides.set("backingfile", ctx.backing_file);
        scrubBackingTreeOnExit(ctx.backing_file);
    }
    ctx.instructions =
        ctx.overrides.getUint("instructions", 200'000);
    ctx.workloads = spec2006Workloads();
    const auto limit = ctx.overrides.getUint("workloads", 0);
    if (limit > 0 && limit < ctx.workloads.size())
        ctx.workloads.resize(limit);
    return ctx;
}

/**
 * Stamp the storage shape of @p config into @p report's meta: backend,
 * integrity level and disk cache size, so per-machine artifacts are
 * explainable without the command line that produced them.
 */
inline void
addSystemMeta(JsonReport &report, const SystemConfig &config)
{
    report.meta("backend", backendName(config.backend));
    report.meta("integrity", integrityModeName(config.integrity));
    if (config.backend == BackendKind::Disk)
        report.metaCount("disk_cache_pages", config.disk_cache_pages)
            .metaCount("disk_pinned_pages", config.disk_pinned_pages);
}

/** Run one (design, workload) cell. */
inline WorkloadResult
runCell(const BenchContext &ctx, DesignKind design,
        const WorkloadSpec &workload, unsigned channels = 0)
{
    SystemConfig config = configFromOverrides(ctx.overrides, design);
    if (channels != 0)
        config.channels = channels;
    return runWorkload(config, workload,
                       ctx.genParams(workload.mpki * 1000));
}

/** Normalized execution time of @p design vs @p baseline per workload,
 *  plus the average; prints one row per workload. */
struct NormalizedSeries
{
    std::vector<double> per_workload;
    double mean = 0.0;
};

inline NormalizedSeries
normalize(const std::vector<WorkloadResult> &design_results,
          const std::vector<WorkloadResult> &baseline_results,
          double (*metric)(const WorkloadResult &))
{
    NormalizedSeries series;
    double sum = 0.0;
    for (std::size_t i = 0; i < design_results.size(); ++i) {
        const double value = metric(design_results[i]) /
                             metric(baseline_results[i]);
        series.per_workload.push_back(value);
        sum += value;
    }
    series.mean = design_results.empty()
        ? 0.0
        : sum / static_cast<double>(design_results.size());
    return series;
}

inline double
cyclesMetric(const WorkloadResult &r)
{
    return static_cast<double>(r.core.cycles);
}

inline double
readsMetric(const WorkloadResult &r)
{
    return static_cast<double>(r.traffic.reads);
}

inline double
writesMetric(const WorkloadResult &r)
{
    return static_cast<double>(r.traffic.writes);
}

} // namespace psoram::bench

#endif // PSORAM_BENCH_BENCH_COMMON_HH
