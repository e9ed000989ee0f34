/**
 * @file
 * Google-benchmark micro suite: single ORAM access cost by design, the
 * AES codec, and the WPQ persist path. Complements the table/figure
 * benches with host-time microbenchmarks of the simulator itself.
 *
 * "--integrity-curve [off,mac,tree] --json <path>" runs the
 * authenticated-record overhead mode instead: the PS-ORAM design is
 * measured at each integrity level (off is always measured first as
 * the baseline) and the curve is written to the JSON file
 * (BENCH_integrity.json) with per-mode overhead_vs_off. Overrides:
 * accesses=N (per-mode target, default 20000), maxseconds=S (per-mode
 * cap, default 2.0) plus the usual height/z/stash/wpq/cipher/seed keys.
 *
 * Serving and disk host speed are measured by perfbench (see
 * perfbench/README.md), not here.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "nvm/device.hh"
#include "nvm/fault_injector.hh"
#include "oram/block.hh"
#include "psoram/drainer.hh"
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
            drainer.persist(bundle, device, 0));
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

} // namespace

int
main(int argc, char **argv)
{
    const psoram::bench::BenchContext ctx =
        psoram::bench::parseContext(argc, argv);
    const std::string integrity_curve_flag =
        psoram::bench::flagValue(argc, argv, "--integrity-curve");
    bool integrity_mode = false;
    for (int i = 1; !integrity_mode && i < argc; ++i)
        integrity_mode =
            std::string(argv[i]).rfind("--integrity-curve", 0) == 0;
    if (!ctx.json_path.empty() && integrity_mode)
        return runIntegrityJsonMode(
            ctx, parseModeList(integrity_curve_flag));

    // The table/figure benches accept "key=value" overrides; tolerate
    // (and ignore) them here so one loop can run every bench binary.
    // --trace, --integrity[-curve] and --backend are ours, not
    // google-benchmark's — strip them (parseContext and the code above
    // already consumed them).
    std::vector<char *> filtered;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace" || arg == "--integrity-curve" ||
            arg == "--integrity" || arg == "--backend") {
            ++i; // skip the operand too
            continue;
        }
        if (arg.rfind("--trace=", 0) == 0 ||
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
