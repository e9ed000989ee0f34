#include "psoram/recovery.hh"

#include "nvm/flight_recorder.hh"
#include "obs/trace.hh"

namespace psoram {

std::unique_ptr<PsOramController>
RecoveryManager::recover(std::unique_ptr<PsOramController> crashed,
                         MemoryBackend &device, RecoveryStats *stats,
                         FlightRecorder *flight)
{
    PSORAM_TRACE_SCOPE("recovery", "recover", 0);
    const PsOramParams params = crashed->params();
    const bool onchip_nv =
        params.design.stash_tech != StashTech::SRAM;

    // Adjacent host-ns windows (common/stats.hh RecoveryStats): ADR
    // redelivery, then log replay, then image_reload (black-box decode
    // included), then recoverFromNvm's own windows; the on-chip-state
    // import tail is charged to posmap_rebuild.
    RecoveryStats::Stamps stamps(obs::hostNowNs());

    // The ADR domain flushes committed rounds as the power fails, then
    // the device comes back up (on disk: the durable log is replayed).
    const std::size_t redelivered = crashed->powerFailureFlush(&stamps);

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

    std::unique_ptr<PsOramController> recovered;
    {
        PSORAM_TRACE_SCOPE("recovery", "image_reload", 0);
        crashed.reset(); // volatile state dies with the controller
        recovered = std::make_unique<PsOramController>(params, device);
    }
    stamps.close(RecoveryStats::ImageReload, obs::hostNowNs());

    IntegrityManager::RecoveryScan scan;
    try {
        scan = recovered->recoverFromNvm(&stamps);
    } catch (const IntegrityError &) {
        if (stats)
            ++stats->records_refused;
        throw;
    }
    if (onchip_nv)
        recovered->importOnChipNvState(nv_state);

    if (stats) {
        stamps.close(RecoveryStats::PosmapRebuild, obs::hostNowNs());
        stats->sample(stamps.windows());
        ++stats->recoveries;
        stats->redelivered_entries += redelivered;
        stats->records_verified += scan.records_verified;
        stats->nodes_repaired += scan.nodes_repaired;
    }
    if (flight)
        flight->record(device, FlightEventKind::RecoveryDone, redelivered,
                       scan.records_verified, scan.nodes_repaired);
    return recovered;
}

} // namespace psoram
