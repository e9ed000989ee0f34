#include "sim/crash_enumerator.hh"

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

/**
 * Drive @p trace against @p system with @p oracle tracking durability.
 * @return true if an InjectedFault aborted the run.
 */
bool
runTrace(System &system, const std::vector<TraceOp> &trace,
         RecoveryOracle &oracle)
{
    std::uint8_t buf[kBlockDataBytes];
    for (const TraceOp &op : trace) {
        try {
            if (op.is_write) {
                stampPayload(op.addr, op.version, buf);
                system.controller->write(op.addr, buf);
                oracle.latest[op.addr] = op.version;
            } else {
                system.controller->read(op.addr, buf);
            }
        } catch (const InjectedFault &) {
            // The in-flight write may or may not have persisted — both
            // outcomes are legal under old-or-new.
            if (op.is_write)
                oracle.latest[op.addr] = op.version;
            return true;
        }
    }
    return false;
}

} // namespace

std::vector<std::string>
runArmedCrash(const CrashEnumConfig &config, std::uint64_t k)
{
    // Record this replay in isolation: a failure then writes exactly
    // the dying run's events, not the whole enumeration's history.
    if (!config.trace_path.empty()) {
        obs::TraceRecorder &recorder = obs::TraceRecorder::instance();
        if (!obs::TraceRecorder::enabled())
            recorder.enable();
        recorder.clear();
    }

    System system = buildSystem(config.system);
    RecoveryOracle oracle;
    system.controller->setCommitObserver(oracle.observer());
    system.setRebindHook([&oracle](PsOramController &ctrl) {
        ctrl.setCommitObserver(oracle.observer());
    });

    FaultInjector injector;
    system.attachFaultInjector(&injector);
    injector.armAt(k);

    const bool crashed = runTrace(system, config.trace, oracle);
    const std::string where =
        "boundary " + std::to_string(k) +
        (injector.fired()
             ? std::string(" (") +
                   persistBoundaryName(injector.firedKind()) + ")"
             : std::string(" (never fired)"));
    std::vector<std::string> violations;
    if (!crashed) {
        violations.push_back(where +
                             ": trace completed without the armed fault "
                             "firing — k outside the boundary domain?");
        return violations;
    }

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
    return violations;
}

CrashEnumSummary
enumerateCrashPoints(const CrashEnumConfig &config)
{
    CrashEnumSummary summary;

    // Probe run: count the boundary population for this (config, trace).
    {
        System system = buildSystem(config.system);
        RecoveryOracle oracle;
        FaultInjector injector;
        system.attachFaultInjector(&injector);
        runTrace(system, config.trace, oracle);
        summary.total_boundaries = injector.boundariesSeen();
        for (std::size_t kind = 0; kind < kNumPersistBoundaryKinds;
             ++kind)
            summary.kind_counts[kind] =
                injector.kindCount(static_cast<PersistBoundary>(kind));
    }

    const std::uint64_t stride = config.stride == 0 ? 1 : config.stride;
    CrashEnumConfig armed = config;
    for (std::uint64_t k = 1; k <= summary.total_boundaries;
         k += stride) {
        ++summary.replays;
        std::vector<std::string> violations = runArmedCrash(armed, k);
        if (!violations.empty()) {
            CrashPointFailure failure;
            failure.boundary = k;
            failure.violations = std::move(violations);
            summary.failures.push_back(std::move(failure));
            // Keep the *first* failing replay's trace + black box.
            armed.trace_path.clear();
            armed.blackbox_path.clear();
        }
    }
    return summary;
}

} // namespace psoram
