/**
 * @file
 * Crash-recovery walkthrough: injects a power failure at each kind of
 * persist boundary a PS-ORAM access crosses (the round's start signal,
 * its commit, and a committed entry draining to NVM) and shows the
 * recovery outcome — then cuts the Baseline design's power during an
 * eviction write to demonstrate why crash consistency needs PS-ORAM in
 * the first place.
 *
 * The paper's headline result is the exit status: non-zero if PS-ORAM
 * loses a block or the Baseline loses none.
 *
 *   $ ./example_crash_recovery_demo
 */

#include <cstring>
#include <iostream>
#include <map>

#include "common/random.hh"
#include "psoram/recovery.hh"
#include "sim/system.hh"

using namespace psoram;

namespace {

void
payload(BlockAddr addr, std::uint32_t version, std::uint8_t *out)
{
    std::memset(out, 0, kBlockDataBytes);
    std::memcpy(out, &addr, sizeof(addr));
    std::memcpy(out + 8, &version, sizeof(version));
}

std::uint32_t
versionOf(const std::uint8_t *data)
{
    std::uint32_t v = 0;
    std::memcpy(&v, data + 8, sizeof(v));
    return v;
}

struct Outcome
{
    bool crashed = false;
    std::size_t checked = 0;
    std::size_t intact = 0; // last-committed-or-newer recovered
    std::size_t lost = 0;
    std::size_t stale = 0; // recovered something older than written
};

Outcome
crashAndRecover(DesignKind design, PersistBoundary kind)
{
    SystemConfig config;
    config.design = design;
    config.tree_height = 8;
    config.num_blocks = 200;
    config.seed = 4242;
    FaultInjector injector;
    System system = buildSystem(config);

    std::map<BlockAddr, std::uint32_t> durable, latest;
    system.controller->setCommitObserver(
        [&](BlockAddr addr, const auto &data) {
            durable[addr] =
                std::max(durable[addr], versionOf(data.data()));
        });
    system.attachFaultInjector(&injector);

    Outcome outcome;
    Rng rng(7);
    std::uint8_t buf[kBlockDataBytes];
    for (int op = 0; op < 600; ++op) {
        // Fill the tree first, then cut power at the 5th boundary of
        // this kind.
        if (op == 300)
            injector.armAtKind(kind, 5);
        const BlockAddr addr = rng.nextBelow(200);
        payload(addr, static_cast<std::uint32_t>(op + 1), buf);
        try {
            system.controller->write(addr, buf);
            latest[addr] = static_cast<std::uint32_t>(op + 1);
        } catch (const InjectedFault &) {
            outcome.crashed = true;
            // The in-flight write may or may not have become durable.
            latest[addr] = static_cast<std::uint32_t>(op + 1);
            break;
        }
    }

    system.recoverController();

    for (const auto &[addr, version] : latest) {
        system.controller->read(addr, buf);
        const std::uint32_t v = versionOf(buf);
        ++outcome.checked;
        if (v >= durable[addr] && v <= version)
            ++outcome.intact;
        else
            ++outcome.lost;
        if (v != version)
            ++outcome.stale;
    }
    return outcome;
}

} // namespace

int
main()
{
    // Steps 2-4 of an access write nothing durable, so a crash in them
    // leaves the state of a crash at the eviction's round-start.
    const PersistBoundary kinds[] = {
        PersistBoundary::RoundStart,
        PersistBoundary::RoundCommit,
        PersistBoundary::DrainWrite,
    };

    std::cout << "PS-ORAM: power failure at each persist boundary kind "
                 "of an access\n";
    std::cout << "  (blocks 'intact' recover their last durable or a "
                 "newer committed version)\n\n";
    std::size_t psoram_lost = 0;
    for (const PersistBoundary kind : kinds) {
        const Outcome outcome =
            crashAndRecover(DesignKind::PsOram, kind);
        std::cout << "  " << persistBoundaryName(kind) << ": "
                  << outcome.intact << "/" << outcome.checked
                  << " blocks intact, " << outcome.lost << " lost\n";
        psoram_lost += outcome.lost;
        if (!outcome.crashed) {
            std::cerr << "FAIL: no crash at "
                      << persistBoundaryName(kind) << "\n";
            return 1;
        }
    }

    std::cout << "\nBaseline (no persistence support): the same "
                 "failure destroys the mapping\n\n";
    // The Baseline never commits anything durably (no WPQ bracket), so
    // its oracle is trivial; count how many blocks still hold their
    // last written value after the failure instead.
    const Outcome baseline =
        crashAndRecover(DesignKind::Baseline, PersistBoundary::DirectWrite);
    std::cout << "  " << persistBoundaryName(PersistBoundary::DirectWrite)
              << ": " << (baseline.checked - baseline.stale) << "/"
              << baseline.checked << " blocks kept their data, "
              << baseline.stale
              << " lost  <-- the problem PS-ORAM solves\n";

    if (psoram_lost != 0) {
        std::cerr << "FAIL: PS-ORAM lost " << psoram_lost
                  << " blocks across its crashes\n";
        return 1;
    }
    if (!baseline.crashed || baseline.stale == 0) {
        std::cerr << "FAIL: the Baseline lost no block\n";
        return 1;
    }
    return 0;
}
