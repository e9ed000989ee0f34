#include "sim/crash_enumerator.hh"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/random.hh"
#include "obs/trace.hh"

namespace psoram {

std::vector<TraceOp>
makeCrashTrace(std::uint64_t seed, std::size_t ops,
               std::uint64_t num_blocks, double write_fraction)
{
    Rng rng(seed);
    std::vector<TraceOp> trace;
    trace.reserve(ops);
    for (std::size_t op = 0; op < ops; ++op) {
        TraceOp entry;
        entry.addr = rng.nextBelow(num_blocks);
        entry.is_write = rng.nextBool(write_fraction);
        entry.version = static_cast<std::uint32_t>(op + 1);
        trace.push_back(entry);
    }
    return trace;
}

std::string
CrashEnumSummary::describe() const
{
    std::ostringstream out;
    out << total_boundaries << " boundaries (";
    bool first = true;
    for (std::size_t kind = 0; kind < kind_counts.size(); ++kind) {
        if (kind_counts[kind] == 0)
            continue;
        if (!first)
            out << ", ";
        first = false;
        out << kind_counts[kind] << " "
            << persistBoundaryName(static_cast<PersistBoundary>(kind));
    }
    out << "), " << replays << " replays, " << failures.size()
        << " failing crash points";
    return out.str();
}

namespace {

/** Drive config.trace against @p system in commit groups, @p oracle
 *  tracking every write. @return where a fault aborted it */
CrashReplay
runTrace(System &system, const CrashEnumConfig &config,
         RecoveryOracle &oracle)
{
    CrashReplay replay;
    PsOramController &ctrl = *system.controller;
    const Drainer *drainer = ctrl.drainer();
    const std::size_t group = config.commit_group;
    std::uint8_t buf[kBlockDataBytes];
    std::uint64_t rounds_before = 0;
    try {
        for (std::size_t i = 0; i < config.trace.size(); ++i) {
            const TraceOp &op = config.trace[i];
            rounds_before = drainer ? drainer->roundsIssued() : 0;
            if (group > 1 && i % group == 0)
                ctrl.beginGroup();
            if (op.is_write) {
                // Before the access: a cut write may persist or not.
                oracle.latest[op.addr] = op.version;
                stampPayload(op.addr, op.version, buf);
                ctrl.write(op.addr, buf);
            } else {
                ctrl.read(op.addr, buf);
            }
            if (group > 1 &&
                ((i + 1) % group == 0 || i + 1 == config.trace.size()))
                ctrl.endGroup(i % group + 1);
        }
    } catch (const InjectedFault &fault) {
        replay.fired = true;
        replay.kind = fault.kind();
        replay.mid_eviction =
            drainer && drainer->roundsIssued() > rounds_before;
    }
    return replay;
}

} // namespace

std::vector<PersistBoundary>
probeCrashPoints(const CrashEnumConfig &config)
{
    std::vector<PersistBoundary> kinds;
    FaultInjector injector;
    injector.setObserver([&kinds](PersistBoundary kind, std::uint64_t) {
        kinds.push_back(kind);
    });
    removeDiskTrees(config.system.backing_file);
    System system = buildSystem(config.system);
    system.attachFaultInjector(&injector);
    RecoveryOracle oracle;
    runTrace(system, config, oracle);
    return kinds;
}

CrashReplay
runArmedCrash(const CrashEnumConfig &config, std::uint64_t k)
{
    return runArmedCrash(config, [k](System &, FaultInjector &injector) {
        injector.armAt(k);
    });
}

CrashReplay
runArmedCrash(const CrashEnumConfig &config, const CrashArming &arm)
{
    // Record this replay in isolation: a failure then writes exactly
    // the dying run's events, not the whole enumeration's history.
    if (!config.trace_path.empty()) {
        obs::TraceRecorder &recorder = obs::TraceRecorder::instance();
        if (!obs::TraceRecorder::enabled())
            recorder.enable();
        recorder.clear();
    }

    FaultInjector injector;
    removeDiskTrees(config.system.backing_file); // a fresh tree on disk
    System system = buildSystem(config.system);
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    system.setRebindHook([&oracle](PsOramController &ctrl) {
        ctrl.setCommitObserver(oracle.observer());
    });
    system.attachFaultInjector(&injector);
    arm(system, injector);

    CrashReplay replay = runTrace(system, config, oracle);
    std::vector<std::string> &violations = replay.violations;
    if (!replay.fired) {
        violations.push_back("the armed fault never fired");
        return replay;
    }
    const std::uint64_t k = injector.firedIndex();
    const std::string where = "boundary " + std::to_string(k) + " (" +
                              persistBoundaryName(replay.kind) + ")";

    if (config.before_recovery)
        config.before_recovery(system);
    // Power failure: ADR flush, volatile state lost, rebuild, recover.
    system.recoverController();
    if (config.recovery_stats)
        config.recovery_stats->merge(*system.recovery_stats);

    for (std::string &v : checkRecoveryInvariants(system, oracle))
        violations.push_back(where + ": " + std::move(v));

    // Recovery must leave a fully working ORAM: verified follow-up
    // workload (versions disjoint from the trace's).
    Rng rng(config.system.seed ^ 0x9e3779b97f4a7c15ULL ^ k);
    std::uint8_t buf[kBlockDataBytes];
    std::map<BlockAddr, std::uint32_t> post;
    for (std::size_t op = 0; op < config.post_recovery_ops; ++op) {
        const BlockAddr addr = rng.nextBelow(config.system.num_blocks);
        if (rng.nextBool(0.5)) {
            const auto version =
                static_cast<std::uint32_t>(1'000'000 + op);
            stampPayload(addr, version, buf);
            system.controller->write(addr, buf);
            post[addr] = version;
        } else if (post.count(addr)) {
            system.controller->read(addr, buf);
            if (payloadVersion(buf) != post[addr])
                violations.push_back(
                    where + ": post-recovery ORAM broken: addr " +
                    std::to_string(addr) + " read version " +
                    std::to_string(payloadVersion(buf)) + ", wrote " +
                    std::to_string(post[addr]));
        }
    }
    if (!violations.empty() && !config.trace_path.empty())
        obs::TraceRecorder::instance().writeTo(config.trace_path);
    if (!violations.empty() && !config.blackbox_path.empty() &&
        system.flight_recorder) {
        std::ofstream out(config.blackbox_path, std::ios::trunc);
        out << FlightRecorder::format(FlightRecorder::decode(
            *system.device, system.params.flight_recorder_base,
            system.params.flight_recorder_records));
    }
    return replay;
}

CrashEnumSummary
enumerateCrashPoints(const CrashEnumConfig &config)
{
    CrashEnumSummary summary;
    const std::vector<PersistBoundary> kinds = probeCrashPoints(config);
    summary.total_boundaries = kinds.size();
    for (const PersistBoundary kind : kinds)
        ++summary.kind_counts[static_cast<std::size_t>(kind)];

    const std::uint64_t stride = config.stride == 0 ? 1 : config.stride;
    CrashEnumConfig armed = config;
    for (std::uint64_t k = 1; k <= summary.total_boundaries;
         k += stride) {
        ++summary.replays;
        CrashReplay replay = runArmedCrash(armed, k);
        if (!replay.violations.empty()) {
            CrashPointFailure failure;
            failure.boundary = k;
            failure.violations = std::move(replay.violations);
            summary.failures.push_back(std::move(failure));
            // Keep the *first* failing replay's trace + black box.
            armed.trace_path.clear();
            armed.blackbox_path.clear();
        }
    }
    return summary;
}

void
removeDiskTrees(const std::string &path)
{
    if (path.empty())
        return;
    std::error_code ec;
    const auto remove = [&ec](const std::string &tree) {
        const bool had_tree = std::filesystem::remove(tree, ec);
        return std::filesystem::remove(tree + ".wal", ec) || had_tree;
    };
    remove(path);
    for (unsigned k = 0; remove(path + ".shard" + std::to_string(k)); ++k) {
    }
}

} // namespace psoram
