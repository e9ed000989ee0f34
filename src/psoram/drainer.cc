#include "psoram/drainer.hh"

#include <algorithm>

#include "common/log.hh"
#include "nvm/flight_recorder.hh"

namespace psoram {

Drainer::Drainer(std::size_t data_capacity, std::size_t posmap_capacity)
    : adr_(data_capacity, posmap_capacity)
{
}

Cycle
Drainer::persist(const EvictionBundle &bundle, MemoryBackend &device,
                 Cycle earliest, const DrainCrashHook &hook)
{
    std::size_t data_idx = 0;
    std::size_t pos_idx = 0;
    Cycle done = earliest;
    bool first_round = true;

    while (data_idx < bundle.data_writes.size() ||
           pos_idx < bundle.posmap_writes.size()) {
        if (!first_round) {
            ++splits_;
            if (hook)
                hook(CrashSite::BetweenRounds);
        }
        first_round = false;

        // Step 5-B: "start" opens both queues; entries stream in. With
        // a finalizer one PosMap slot stays reserved for its entry.
        adr_.start();
        const std::uint64_t round_id = rounds_.value();
        if (flight_)
            flight_->record(*flight_sink_, FlightEventKind::RoundStart,
                            round_id);
        const std::size_t pos_reserve = finalizer_ ? 1 : 0;
        const std::size_t round_first_data = data_idx;
        std::size_t in_round = 0;
        while (data_idx < bundle.data_writes.size() &&
               !adr_.dataWpq().full()) {
            adr_.dataWpq().push(bundle.data_writes[data_idx]);
            ++data_idx;
            ++in_round;
        }
        // Metadata rides in the same bracket as (or a later one than)
        // the data it describes — never an earlier one (rule 2).
        while (pos_idx < bundle.posmap_writes.size() &&
               bundle.posmap_writes[pos_idx].after_data <= data_idx &&
               adr_.posmapWpq().size() + pos_reserve <
                   adr_.posmapWpq().capacity()) {
            adr_.posmapWpq().push(bundle.posmap_writes[pos_idx].entry);
            ++pos_idx;
            ++in_round;
        }
        // Progress is measured on the *bundle* alone — a finalizer
        // entry rides every round, so counting it would let an
        // undrainable bundle spin forever.
        if (in_round == 0)
            PSORAM_PANIC("drainer made no progress (capacities ",
                         adr_.dataWpq().capacity(), "/",
                         adr_.posmapWpq().capacity(), ")");

        if (finalizer_) {
            if (!adr_.posmapWpq().push(finalizer_(
                    bundle.data_writes.data() + round_first_data,
                    data_idx - round_first_data)))
                PSORAM_PANIC("no PosMap WPQ slot for the round "
                             "finalizer entry despite the reserve");
            ++in_round;
        }

        if (hook)
            hook(CrashSite::BeforeCommit);

        // Step 5-C: "end" commits the round; ADR guarantees it reaches
        // the NVM even across a power failure from here on.
        const std::size_t committed_data = adr_.dataWpq().size();
        const std::size_t committed_pos = adr_.posmapWpq().size();
        adr_.end();
        if (flight_)
            flight_->record(*flight_sink_, FlightEventKind::RoundCommit,
                            round_id, committed_data, committed_pos);

        if (hook)
            hook(CrashSite::AfterCommit);

        done = adr_.drain(device, done);
        // The drain *is* the durable watermark: every entry of the round
        // has physically reached the NVM cells.
        if (flight_)
            flight_->record(*flight_sink_, FlightEventKind::DrainWatermark,
                            round_id, committed_data + committed_pos);
        entries_ += in_round;
        ++rounds_;
    }
    return done;
}

} // namespace psoram
