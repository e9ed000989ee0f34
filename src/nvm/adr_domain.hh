/**
 * @file
 * ADR persistence domain: the pair of WPQs plus the drainer-facing
 * atomic start/end bracket spanning both queues.
 *
 * The paper's drainer issues one "start" and one "end" signal that control
 * *both* WPQs (data blocks and PosMap entries), which is what makes an
 * eviction round's data + metadata persistence atomic (§4.2.2 step 5-B).
 */

#ifndef PSORAM_NVM_ADR_DOMAIN_HH
#define PSORAM_NVM_ADR_DOMAIN_HH

#include <cstdint>

#include "common/stats.hh"
#include "nvm/fault_injector.hh"
#include "nvm/wpq.hh"

namespace psoram {

class AdrDomain
{
  public:
    /**
     * @param data_capacity entries in the data-block WPQ (96 or 4)
     * @param posmap_capacity entries in the PosMap WPQ (96 or 4)
     */
    AdrDomain(std::size_t data_capacity, std::size_t posmap_capacity);

    /** Open a round on both WPQs atomically ("start"). */
    void start();

    /** Commit both WPQs atomically ("end"). */
    void end();

    /** Drain both WPQs to @p device; returns last completion cycle. */
    Cycle drain(MemoryBackend &device, Cycle earliest);

    /**
     * Power-failure flush: committed rounds persist, uncommitted rounds
     * are dropped — on both queues, consistently.
     *
     * @return entries that reached NVM
     */
    std::size_t crashFlush(MemoryBackend &device);

    Wpq &dataWpq() { return data_wpq_; }
    Wpq &posmapWpq() { return posmap_wpq_; }
    const Wpq &dataWpq() const { return data_wpq_; }
    const Wpq &posmapWpq() const { return posmap_wpq_; }

    /** Total bytes pushed through the domain (drain energy accounting). */
    std::uint64_t bytesPersisted() const { return bytes_persisted_; }

    /**
     * Report the start/end signals (and bracket the drains) of this
     * domain as persist boundaries on @p injector. The injector must be
     * the same instance the backing device reports its writes to, so
     * the boundary numbering is one global sequence.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        fault_injector_ = injector;
    }

  private:
    Wpq data_wpq_;
    Wpq posmap_wpq_;
    std::uint64_t bytes_persisted_ = 0;
    FaultInjector *fault_injector_ = nullptr;
};

} // namespace psoram

#endif // PSORAM_NVM_ADR_DOMAIN_HH
