#include "nvm/adr_domain.hh"

#include <algorithm>

#include "obs/trace.hh"

namespace psoram {

AdrDomain::AdrDomain(std::size_t data_capacity, std::size_t posmap_capacity)
    : data_wpq_("data_wpq", data_capacity),
      posmap_wpq_("posmap_wpq", posmap_capacity)
{
}

void
AdrDomain::start()
{
    // Boundary *before* the signal takes effect: a fault here leaves
    // the previous round's durable state untouched.
    if (fault_injector_)
        fault_injector_->boundary(PersistBoundary::RoundStart);
    PSORAM_TRACE_INSTANT("nvm", "adr.round_start", 0);
    data_wpq_.start();
    posmap_wpq_.start();
}

void
AdrDomain::end()
{
    // The durability point: a fault raised before the commit drops the
    // whole open round (ADR discards uncommitted entries), a fault any
    // later still delivers it through crashFlush().
    if (fault_injector_)
        fault_injector_->boundary(PersistBoundary::RoundCommit);
    PSORAM_TRACE_INSTANT_ARG(
        "nvm", "adr.round_commit", 0, "entries",
        static_cast<std::int64_t>(data_wpq_.size() +
                                  posmap_wpq_.size()));
    bytes_persisted_ += data_wpq_.queuedBytes() +
                        posmap_wpq_.queuedBytes();
    data_wpq_.end();
    posmap_wpq_.end();
}

Cycle
AdrDomain::drain(MemoryBackend &device, Cycle earliest)
{
    // In-order persistence without coalescing (§4.2.3): the metadata
    // entries drain strictly after the data blocks of their round.
    const FaultInjector::ScopedDrain drain_scope(fault_injector_);
    const Cycle data_done = data_wpq_.drainTo(device, earliest);
    return posmap_wpq_.drainTo(device, data_done);
}

std::size_t
AdrDomain::crashFlush(MemoryBackend &device)
{
    return data_wpq_.crashFlush(device) + posmap_wpq_.crashFlush(device);
}

} // namespace psoram
