#include "psoram/recovery.hh"

#include "nvm/flight_recorder.hh"
#include "obs/trace.hh"

namespace psoram {

std::unique_ptr<PsOramController>
RecoveryManager::recover(std::unique_ptr<PsOramController> crashed,
                         MemoryBackend &device, RecoveryReport *report,
                         RecoveryStats *stats, FlightRecorder *flight)
{
    PSORAM_TRACE_SCOPE("recovery", "recover", 0);
    const PsOramParams params = crashed->params();
    const bool onchip_nv =
        params.design.stash_tech != StashTech::SRAM;

    const std::uint64_t h0 = obs::hostNowNs();

    // The ADR domain flushes committed rounds as the power fails, then
    // the device comes back up (on disk: the durable log is replayed).
    const PsOramController::FlushOutcome flush =
        crashed->powerFailureFlush(/*timed=*/true);
    const std::uint64_t h2 = obs::hostNowNs();

    // Decode the black box before any recovery-era append: the ring
    // holds exactly what the dying run made durable.
    FlightRecorder::Decoded box;
    if (flight) {
        box = flight->decode(device);
        if (stats) {
            stats->blackbox_events += box.events.size();
            stats->blackbox_torn += box.torn_records;
        }
        if (const FlightEvent *tail = box.tail())
            PSORAM_TRACE_INSTANT_ARG(
                "recovery", "blackbox_tail", 0, "seq",
                static_cast<std::int64_t>(tail->seq));
        flight->record(device, FlightEventKind::RecoveryStart,
                       box.events.size(), box.torn_records);
    }

    PsOramController::OnChipNvState nv_state;
    if (onchip_nv)
        nv_state = crashed->exportOnChipNvState();

    const std::uint64_t reads_before = device.timing().totalReads();
    std::unique_ptr<PsOramController> recovered;
    {
        PSORAM_TRACE_SCOPE("recovery", "image_reload", 0);
        crashed.reset(); // volatile state dies with the controller
        recovered = std::make_unique<PsOramController>(params, device);
    }
    const std::uint64_t h3 = obs::hostNowNs();

    PsOramController::RecoveryTimings t;
    try {
        recovered->recoverFromNvm(stats ? &t : nullptr);
    } catch (const IntegrityError &) {
        if (stats)
            ++stats->records_refused;
        throw;
    }
    if (onchip_nv)
        recovered->importOnChipNvState(nv_state);

    if (report) {
        report->nvm_reads = device.timing().totalReads() - reads_before;
        report->stash_restored = recovered->stash().size();
        if (recovered->pomLevel())
            report->pom_stash_restored =
                recovered->pomLevel()->stash().size();
    }

    if (stats) {
        // Adjacent host-ns windows (common/stats.hh RecoveryStats):
        // ADR redelivery, then log replay, then image_reload (black-box
        // decode included); posmap_rebuild absorbs the recoverFromNvm
        // volatile rebuild plus the on-chip-state import/report tail,
        // so the six phases sum to total exactly.
        const std::uint64_t hend = obs::hostNowNs();
        stats->sampleRecovery(
            static_cast<double>(h2 - flush.split_ns),
            static_cast<double>(flush.split_ns - h0),
            static_cast<double>(h3 - h2),
            static_cast<double>(t.rebuild_done_ns - h3) +
                static_cast<double>(hend - t.end_ns),
            static_cast<double>(t.verify_done_ns - t.rebuild_done_ns),
            static_cast<double>(t.end_ns - t.verify_done_ns),
            static_cast<double>(hend - h0));
        stats->redelivered_entries += flush.redelivered_entries;
        stats->records_verified += t.records_verified;
        stats->nodes_repaired += t.nodes_repaired;
    }
    if (flight)
        flight->record(device, FlightEventKind::RecoveryDone,
                       flush.redelivered_entries, t.records_verified,
                       t.nodes_repaired);
    return recovered;
}

} // namespace psoram
