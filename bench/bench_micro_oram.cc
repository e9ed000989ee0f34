/**
 * @file
 * Google-benchmark micro suite: single ORAM access cost by design, the
 * AES codec, and the WPQ persist path. Complements the table/figure
 * benches with host-time microbenchmarks of the simulator itself.
 *
 * With "--json <path>" the binary instead runs the regression-harness
 * mode: a fixed host-throughput measurement of every design on the
 * default Table-3 configuration, reporting accesses/sec, ns/access and
 * stash occupancy to the JSON file (BENCH_micro.json). CI runs this for
 * a few seconds per push and archives the report.
 *
 * JSON-mode overrides: accesses=N (per-design target, default 20000),
 * maxseconds=S (per-design time cap, default 0.8) plus the usual
 * height/z/stash/wpq/cipher/seed keys.
 *
 * "--integrity-curve [off,mac,tree]" (with --json) runs the
 * authenticated-record overhead mode instead: the PS-ORAM design is
 * measured at each integrity level (off is always measured first as
 * the baseline) and the curve is written to the JSON file
 * (BENCH_integrity.json) with per-mode overhead_vs_off. A bare
 * "--integrity MODE" on any other mode simply rides along as the
 * integrity= override (persistent non-recursive designs only).
 *
 * "--disk-curve P[,P...]" (with --json) runs the out-of-core mode: the
 * PS-ORAM design on the PagedDiskBackend at each listed page-cache size
 * (BENCH_disk.json), reporting throughput plus the backend's physical
 * IO counters — vectored calls, preads/pwrites/fsyncs, cache hit rate —
 * per access. The default sweep spans in-core down to a cache ~50x
 * smaller than the tree. height= / accesses= ride along.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "nvm/fault_injector.hh"
#include "nvm/paged_disk.hh"
#include "oram/block.hh"
#include "psoram/drainer.hh"
#include "sim/engine.hh"
#include "sim/system.hh"

namespace {

using namespace psoram;

SystemConfig
microConfig(DesignKind design)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 12;
    config.stash_capacity = 200;
    config.cipher = CipherKind::FastStream;
    return config;
}

void
BM_OramAccess(benchmark::State &state)
{
    const auto design = static_cast<DesignKind>(state.range(0));
    System system = buildSystem(microConfig(design));
    std::uint8_t buf[kBlockDataBytes] = {};
    BlockAddr addr = 0;
    std::uint64_t simulated_cycles = 0;
    for (auto _ : state) {
        const OramAccessInfo info =
            system.controller->write(addr, buf);
        simulated_cycles += info.nvm_cycles;
        addr = (addr + 97) % system.params.num_blocks;
    }
    state.SetLabel(designName(design));
    state.counters["sim_nvm_cycles_per_access"] =
        benchmark::Counter(static_cast<double>(simulated_cycles),
                           benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_OramAccess)
    ->Arg(static_cast<int>(DesignKind::Baseline))
    ->Arg(static_cast<int>(DesignKind::FullNvm))
    ->Arg(static_cast<int>(DesignKind::NaivePsOram))
    ->Arg(static_cast<int>(DesignKind::PsOram))
    ->Arg(static_cast<int>(DesignKind::RcrBaseline))
    ->Arg(static_cast<int>(DesignKind::RcrPsOram));

void
BM_BlockCodec(benchmark::State &state)
{
    const auto kind = state.range(0) == 0 ? CipherKind::Aes128Ctr
                                          : CipherKind::FastStream;
    BlockCodec codec(Aes128::Key{1, 2, 3}, kind);
    PlainBlock block;
    block.addr = 42;
    block.path = 7;
    for (auto _ : state) {
        const SlotBytes wire = codec.encode(block);
        benchmark::DoNotOptimize(codec.decode(wire));
    }
    state.SetLabel(kind == CipherKind::Aes128Ctr ? "aes" : "fast");
}
BENCHMARK(BM_BlockCodec)->Arg(0)->Arg(1);

void
BM_DrainerPersist(benchmark::State &state)
{
    const auto entries = static_cast<std::size_t>(state.range(0));
    NvmDevice device(pcmTimings(), 1, 8, 64ULL << 20);
    Drainer drainer(96, 96);
    for (auto _ : state) {
        EvictionBundle bundle;
        for (std::size_t i = 0; i < entries; ++i) {
            WpqEntry entry;
            entry.addr = (i % 1024) * 96;
            entry.data.assign(kSlotBytes, 0xAB);
            bundle.data_writes.push_back(std::move(entry));
        }
        benchmark::DoNotOptimize(
            drainer.persist(bundle, device, 0, nullptr));
    }
}
BENCHMARK(BM_DrainerPersist)->Arg(24)->Arg(96);

/** Split a comma list of integrity mode names ("off,mac,tree");
 *  empty tokens are skipped, validation happens at parse time in the
 *  curve runner. A key=value operand (the flag was bare and swallowed
 *  the next override) yields the empty list, i.e. the default sweep. */
std::vector<std::string>
parseModeList(const std::string &value)
{
    std::vector<std::string> modes;
    if (value.find('=') != std::string::npos)
        return modes;
    std::string token;
    for (std::size_t i = 0; i <= value.size(); ++i) {
        if (i < value.size() && value[i] != ',') {
            token += value[i];
            continue;
        }
        if (!token.empty()) {
            modes.push_back(token);
            token.clear();
        }
    }
    return modes;
}

/**
 * Regression-harness mode: host throughput of the full access loop per
 * design on the Table-3 default configuration, written as JSON.
 */
int
runJsonMode(const psoram::bench::BenchContext &ctx)
{
    using Clock = std::chrono::steady_clock;
    const std::uint64_t target =
        ctx.overrides.getUint("accesses", 20'000);
    const double max_seconds =
        ctx.overrides.getDouble("maxseconds", 0.8);

    const SystemConfig banner =
        configFromOverrides(ctx.overrides, DesignKind::PsOram);
    psoram::bench::JsonReport report("micro_oram");
    report.metaCount("tree_height", banner.tree_height)
        .metaCount("bucket_slots", banner.bucket_slots)
        .metaCount("stash_capacity", banner.stash_capacity)
        .metaCount("wpq_entries", banner.wpq_entries)
        .meta("cipher", banner.cipher == CipherKind::Aes128Ctr
                  ? "aes" : "fast")
        .metaCount("seed", banner.seed)
        .metaCount("target_accesses", target);
    psoram::bench::addSystemMeta(report, banner);

    // Systems and their stat groups stay alive until the metrics
    // snapshot is written (the exporter holds non-owning pointers).
    std::vector<System> systems;
    std::deque<StatGroup> groups;

    for (const DesignKind design : allDesigns()) {
        SystemConfig config = configFromOverrides(ctx.overrides, design);
        // An integrity= override applies only where the layer exists:
        // persistent non-recursive designs (buildSystem rejects
        // anything else).
        const DesignOptions opts = designOptions(design);
        if (opts.persist == PersistMode::None || opts.recursive_posmap)
            config.integrity = IntegrityMode::Off;
        systems.push_back(buildSystem(config));
        System &system = systems.back();
        groups.emplace_back(std::string("micro.") + designName(design));
        system.controller->registerStats(groups.back());
        obs::MetricsExporter::global().addGroup(&groups.back());
        // Unarmed injector: counts persist boundaries (the crash-point
        // population the enumerator in sim/crash_enumerator walks)
        // without ever firing, so the throughput numbers include the
        // counting overhead every fault-injection run pays.
        FaultInjector injector;
        system.attachFaultInjector(&injector);
        std::uint8_t buf[kBlockDataBytes] = {};
        BlockAddr addr = 0;
        const auto step = [&] {
            const OramAccessInfo info =
                system.controller->write(addr, buf);
            addr = (addr + 97) % system.params.num_blocks;
            return info.nvm_cycles;
        };
        for (unsigned i = 0; i < 512; ++i)
            step(); // warm the tree and the stash
        injector.reset(); // count boundaries over the timed region only

        std::uint64_t accesses = 0;
        std::uint64_t sim_cycles = 0;
        const auto t0 = Clock::now();
        double elapsed = 0.0;
        while (accesses < target && elapsed < max_seconds) {
            for (unsigned i = 0; i < 512; ++i)
                sim_cycles += step();
            accesses += 512;
            elapsed = std::chrono::duration<double>(Clock::now() - t0)
                          .count();
        }

        const Stash &stash = system.controller->stash();
        // Per-phase breakdown (host ns, full accesses only): the five
        // phase windows are adjacent and sum to the end-to-end access
        // time exactly (common/stats.hh PhaseLatencyStats).
        const PhaseLatencyStats &phases =
            system.controller->phaseHostNs();
        report.addRow()
            .str("design", designName(design))
            .str("integrity", integrityModeName(config.integrity))
            .count("accesses", accesses)
            .num("seconds", elapsed)
            .num("accesses_per_sec",
                 static_cast<double>(accesses) / elapsed)
            .num("ns_per_access",
                 elapsed * 1e9 / static_cast<double>(accesses))
            .num("sim_nvm_cycles_per_access",
                 static_cast<double>(sim_cycles) /
                     static_cast<double>(accesses))
            .count("stash_peak", stash.peakSize())
            .num("stash_mean_occupancy", stash.occupancy().mean())
            .num("persist_boundaries_per_access",
                 static_cast<double>(injector.boundariesSeen()) /
                     static_cast<double>(accesses))
            .num("drain_writes_per_access",
                 static_cast<double>(
                     injector.kindCount(PersistBoundary::DrainWrite)) /
                     static_cast<double>(accesses))
            .num("phase_remap_ns_mean", phases.remap.mean())
            .num("phase_load_ns_mean", phases.load.mean())
            .num("phase_backup_ns_mean", phases.backup.mean())
            .num("phase_evict_ns_mean", phases.evict.mean())
            .num("phase_drain_ns_mean", phases.drain.mean())
            .num("phase_sum_ns", phases.phaseSum())
            .num("phase_total_ns", phases.total.sum())
            .count("phase_accesses", phases.total.count());
        std::cout << designName(design) << ": "
                  << static_cast<std::uint64_t>(
                         static_cast<double>(accesses) / elapsed)
                  << " accesses/sec (" << accesses << " in " << elapsed
                  << " s)\n";
    }

    // Write the observability files now, while the registered stat
    // groups (owned by the local systems) are still alive, then cancel
    // the exit-time dumps that would otherwise observe dead groups.
    if (!ctx.metrics_path.empty())
        obs::MetricsExporter::global().writeTo(ctx.metrics_path);
    if (!ctx.trace_path.empty())
        obs::TraceRecorder::instance().writeTo(ctx.trace_path);
    obs::MetricsExporter::global().removeAllGroups();
    obs::MetricsExporter::dumpAtExit("");
    psoram::bench::traceDumpPath().clear();

    return report.writeTo(ctx.json_path) ? 0 : 1;
}

/**
 * Authenticated-record overhead mode: the PS-ORAM design measured at
 * each integrity level (BENCH_integrity.json). Mode "off" — plain
 * 96-byte records, no GMAC, no Merkle streaming — is always measured
 * first and anchors overhead_vs_off (ns/access ratio).
 */
int
runIntegrityJsonMode(const psoram::bench::BenchContext &ctx,
                     std::vector<std::string> modes)
{
    using Clock = std::chrono::steady_clock;
    const std::uint64_t target =
        ctx.overrides.getUint("accesses", 20'000);
    const double max_seconds =
        ctx.overrides.getDouble("maxseconds", 2.0);

    if (modes.empty())
        modes = {"off", "mac", "tree"};
    if (modes.front() != "off")
        modes.insert(modes.begin(), "off");

    const SystemConfig banner =
        configFromOverrides(ctx.overrides, DesignKind::PsOram);
    psoram::bench::JsonReport report("integrity_overhead");
    report.metaCount("tree_height", banner.tree_height)
        .metaCount("bucket_slots", banner.bucket_slots)
        .metaCount("stash_capacity", banner.stash_capacity)
        .metaCount("wpq_entries", banner.wpq_entries)
        .meta("cipher", banner.cipher == CipherKind::Aes128Ctr
                  ? "aes" : "fast")
        .metaCount("seed", banner.seed)
        .metaCount("target_accesses", target);
    psoram::bench::addSystemMeta(report, banner);

    double off_ns = 0.0;
    for (const std::string &mode : modes) {
        SystemConfig config =
            configFromOverrides(ctx.overrides, DesignKind::PsOram);
        if (!parseIntegrityMode(mode, config.integrity)) {
            std::cerr << "unknown integrity mode '" << mode
                      << "' (want off|mac|tree)\n";
            return 1;
        }
        System system = buildSystem(config);
        FaultInjector injector;
        system.attachFaultInjector(&injector);

        std::uint8_t buf[kBlockDataBytes] = {};
        BlockAddr addr = 0;
        const auto step = [&] {
            const OramAccessInfo info =
                system.controller->write(addr, buf);
            addr = (addr + 97) % system.params.num_blocks;
            return info.nvm_cycles;
        };
        for (unsigned i = 0; i < 512; ++i)
            step(); // warm the tree and the stash
        injector.reset();

        std::uint64_t accesses = 0;
        std::uint64_t sim_cycles = 0;
        const auto t0 = Clock::now();
        double elapsed = 0.0;
        while (accesses < target && elapsed < max_seconds) {
            for (unsigned i = 0; i < 512; ++i)
                sim_cycles += step();
            accesses += 512;
            elapsed = std::chrono::duration<double>(Clock::now() - t0)
                          .count();
        }

        const double ns_per_access =
            elapsed * 1e9 / static_cast<double>(accesses);
        if (config.integrity == IntegrityMode::Off)
            off_ns = ns_per_access;
        report.addRow()
            .str("integrity", integrityModeName(config.integrity))
            .count("record_bytes", system.params.data_layout.record_bytes)
            .count("accesses", accesses)
            .num("seconds", elapsed)
            .num("accesses_per_sec",
                 static_cast<double>(accesses) / elapsed)
            .num("ns_per_access", ns_per_access)
            .num("overhead_vs_off",
                 off_ns > 0.0 ? ns_per_access / off_ns : 1.0)
            .num("sim_nvm_cycles_per_access",
                 static_cast<double>(sim_cycles) /
                     static_cast<double>(accesses))
            .num("persist_boundaries_per_access",
                 static_cast<double>(injector.boundariesSeen()) /
                     static_cast<double>(accesses));
        std::cout << "integrity " << integrityModeName(config.integrity)
                  << ": "
                  << static_cast<std::uint64_t>(
                         static_cast<double>(accesses) / elapsed)
                  << " accesses/sec (x"
                  << (off_ns > 0.0 ? ns_per_access / off_ns : 1.0)
                  << " vs off)\n";
    }

    return report.writeTo(ctx.json_path) ? 0 : 1;
}

/**
 * Out-of-core mode: PS-ORAM on the PagedDiskBackend across a page-cache
 * size sweep (BENCH_disk.json). A memory-backend row at the same
 * geometry anchors the curve; each disk cell starts from a fresh tree
 * so cells are independent. Every WPQ round is written through and
 * fsynced before the access returns (EXPERIMENTS.md records the cost).
 */
int
runDiskJsonMode(const psoram::bench::BenchContext &ctx,
                std::vector<unsigned> pages_list)
{
    using Clock = std::chrono::steady_clock;
    const std::uint64_t target =
        ctx.overrides.getUint("accesses", 4'000);
    const double max_seconds =
        ctx.overrides.getDouble("maxseconds", 2.0);
    const auto height = static_cast<unsigned>(
        ctx.overrides.getUint("height", 14));

    std::string path = ctx.backing_file;
    if (path.empty()) {
        path = "/tmp/psoram_disk_curve_" +
               std::to_string(static_cast<long>(::getpid())) + ".tree";
        psoram::bench::scrubBackingTreeOnExit(path);
    }
    if (pages_list.empty())
        pages_list = {4096, 1024, 256, 64};

    const auto makeConfig = [&](bool disk, unsigned cache_pages) {
        SystemConfig config =
            configFromOverrides(ctx.overrides, DesignKind::PsOram);
        config.tree_height = height;
        config.backend =
            disk ? BackendKind::Disk : BackendKind::Memory;
        config.backing_file = disk ? path : "";
        config.disk_cache_pages = cache_pages;
        return config;
    };

    psoram::bench::JsonReport report("disk_backend");
    report.metaCount("tree_height", height)
        .metaCount("target_accesses", target)
        .metaCount("seed", ctx.overrides.getUint("seed", 1));
    psoram::bench::addSystemMeta(report, makeConfig(true, pages_list[0]));

    // One measured cell; cache_pages == 0 means the in-memory anchor.
    const auto runCell = [&](unsigned cache_pages) {
        const bool disk = cache_pages != 0;
        if (disk)
            psoram::bench::removeBackingTree(path);
        System system = buildSystem(makeConfig(disk, cache_pages));
        EngineConfig engine_config;
        engine_config.record_completions = false;
        OramEngine engine(*system.controller, engine_config);

        std::uint8_t buf[kBlockDataBytes] = {};
        BlockAddr addr = 0;
        const auto submitChunk = [&](unsigned count) {
            for (unsigned i = 0; i < count; ++i) {
                engine.submitWrite(addr, buf, nullptr);
                addr = (addr + 97) % system.params.num_blocks;
            }
            engine.drain();
        };
        submitChunk(512); // warm tree, stash and page cache
        auto *paged = dynamic_cast<PagedDiskBackend *>(
            system.device.get());
        if (paged)
            paged->resetStats(); // count IO over the timed region only

        std::uint64_t accesses = 0;
        const auto t0 = Clock::now();
        double elapsed = 0.0;
        while (accesses < target && elapsed < max_seconds) {
            submitChunk(256);
            accesses += 256;
            elapsed = std::chrono::duration<double>(Clock::now() - t0)
                          .count();
        }
        const auto per_access = [&](std::uint64_t count) {
            return static_cast<double>(count) /
                   static_cast<double>(accesses);
        };

        const double rate = static_cast<double>(accesses) / elapsed;
        auto &row = report.addRow();
        row.str("backend", disk ? "disk" : "memory")
            .count("cache_pages", cache_pages)
            .count("accesses", accesses)
            .num("seconds", elapsed)
            .num("accesses_per_sec", rate)
            .num("ns_per_access",
                 elapsed * 1e9 / static_cast<double>(accesses));
        std::cout << (disk ? "disk cache_pages=" +
                                 std::to_string(cache_pages)
                           : std::string("memory"))
                  << ": " << static_cast<std::uint64_t>(rate)
                  << " accesses/sec";
        if (paged) {
            const PagedDiskBackend::IoStats io = paged->ioStats();
            const double tree_bytes = static_cast<double>(
                paged->numPages() * PagedDiskBackend::kPageBytes);
            const double cache_bytes = static_cast<double>(
                cache_pages * PagedDiskBackend::kPageBytes);
            row.num("tree_bytes", tree_bytes)
                .num("tree_over_cache", tree_bytes / cache_bytes)
                .num("readv_per_access", per_access(io.readv_calls))
                .num("writev_per_access", per_access(io.writev_calls))
                .num("writev_quiet_per_access",
                     per_access(io.writev_quiet_calls))
                .num("scalar_reads_per_access",
                     per_access(io.scalar_reads))
                .num("scalar_writes_per_access",
                     per_access(io.scalar_writes))
                .num("preads_per_access", per_access(io.preads))
                .num("pwrites_per_access", per_access(io.pwrites))
                .num("fsyncs_per_access", per_access(io.fsyncs))
                .num("cache_hit_rate",
                     io.cache_hits + io.cache_misses
                         ? static_cast<double>(io.cache_hits) /
                               static_cast<double>(io.cache_hits +
                                                   io.cache_misses)
                         : 0.0)
                .count("cache_evictions", io.cache_evictions)
                .count("torn_pages_detected", io.torn_pages_detected);
            std::cout << " (tree/cache " << tree_bytes / cache_bytes
                      << "x, readv/access "
                      << per_access(io.readv_calls) << ", hit rate "
                      << (io.cache_hits + io.cache_misses
                              ? static_cast<double>(io.cache_hits) /
                                    static_cast<double>(
                                        io.cache_hits + io.cache_misses)
                              : 0.0)
                      << ")";
        }
        std::cout << "\n";
    };

    runCell(0); // in-memory anchor
    for (const unsigned pages : pages_list)
        runCell(pages);
    psoram::bench::removeBackingTree(path);
    return report.writeTo(ctx.json_path) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const psoram::bench::BenchContext ctx =
        psoram::bench::parseContext(argc, argv);
    const std::string disk_flag =
        psoram::bench::flagValue(argc, argv, "--disk-curve");
    bool disk_mode = !disk_flag.empty();
    for (int i = 1; !disk_mode && i < argc; ++i)
        disk_mode = std::string(argv[i]).rfind("--disk-curve", 0) == 0;
    const std::string integrity_curve_flag =
        psoram::bench::flagValue(argc, argv, "--integrity-curve");
    bool integrity_mode = false;
    for (int i = 1; !integrity_mode && i < argc; ++i)
        integrity_mode =
            std::string(argv[i]).rfind("--integrity-curve", 0) == 0;
    if (!ctx.json_path.empty() && disk_mode)
        return runDiskJsonMode(
            ctx, psoram::bench::parseUintList(disk_flag));
    if (!ctx.json_path.empty() && integrity_mode)
        return runIntegrityJsonMode(
            ctx, parseModeList(integrity_curve_flag));
    if (!ctx.json_path.empty())
        return runJsonMode(ctx);

    // The table/figure benches accept "key=value" overrides; tolerate
    // (and ignore) them here so one loop can run every bench binary.
    // The observability flags are ours, not google-benchmark's — strip
    // them (parseContext already consumed them above).
    std::vector<char *> filtered;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace" || arg == "--metrics" ||
            arg == "--disk-curve" ||
            arg == "--integrity-curve" || arg == "--integrity" ||
            arg == "--backend") {
            ++i; // skip the operand too
            continue;
        }
        if (arg.rfind("--trace=", 0) == 0 ||
            arg.rfind("--metrics=", 0) == 0 ||
            arg.rfind("--disk-curve=", 0) == 0 ||
            arg.rfind("--integrity-curve=", 0) == 0 ||
            arg.rfind("--integrity=", 0) == 0 ||
            arg.rfind("--backend=", 0) == 0)
            continue;
        if (i == 0 || argv[i][0] == '-')
            filtered.push_back(argv[i]);
    }
    int filtered_argc = static_cast<int>(filtered.size());
    benchmark::Initialize(&filtered_argc, filtered.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
