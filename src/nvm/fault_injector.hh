/**
 * @file
 * Deterministic fault injection at NVM persist boundaries.
 *
 * A *persist boundary* is a point in execution where the durable NVM
 * state is about to change: a WPQ round opening ("start" signal), a WPQ
 * round committing ("end" signal — the ADR durability point), an
 * individual entry draining out of a committed round, a direct
 * (non-WPQ) functional write, or, on the disk backend, a redo-log
 * append or sync, a checkpoint page write or a tree fsync. The
 * injector counts every boundary it passes; when armed at boundary k it
 * throws InjectedFault the moment the k-th boundary is reached — i.e.
 * *before* that boundary's durable effect applies.
 *
 * Because the simulator is deterministic for a fixed seed and trace,
 * the boundary sequence is reproducible: a probe run counts the total
 * boundary population B, and replaying the same trace armed at each
 * k in [1, B] crashes the system at every distinct persist point it
 * ever crosses. The crash-point enumerator (sim/crash_enumerator) and
 * the torture harness (tests/torture_crash) are built on exactly that.
 * It is the repository's only crash injector: the crash tests name a
 * protocol point and arm the boundary that leaves the same durable
 * state (armAtKind, DESIGN.md §10).
 *
 * ADR semantics are preserved under injection: a fault thrown mid-drain
 * leaves the committed entries in their queue, and the subsequent
 * power-failure flush still writes them — a committed round reaches the
 * NVM no matter where inside the drain the fault lands.
 */

#ifndef PSORAM_NVM_FAULT_INJECTOR_HH
#define PSORAM_NVM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace psoram {

/** The kinds of persist boundary the injector distinguishes. */
enum class PersistBoundary
{
    /** ADR bracket opened ("start" signal, both WPQs). */
    RoundStart,
    /** ADR bracket committed ("end" signal — the durability point). */
    RoundCommit,
    /** One committed WPQ entry reaching the NVM during a drain. */
    DrainWrite,
    /** A functional write outside any WPQ drain (non-persistent
     *  designs' eviction writes, recovery-era region writes). */
    DirectWrite,
    /** PagedDiskBackend writing one dirty page back in place at a
     *  checkpoint. The boundary fires *mid-page* — after the first
     *  half of the pwrite, before the rest and the checksum trailer —
     *  so the enumerator exercises genuinely torn pages, which the
     *  redo log then heals. */
    PageWrite,
    /** PagedDiskBackend checkpoint fsync of the tree file, before the
     *  log starts a new epoch. */
    Sync,
    /** PagedDiskBackend appending one redo-log record. The boundary
     *  fires *mid-record* — half the bytes land — so the enumerator
     *  exercises torn records, which replay must discard. */
    LogAppend,
    /** PagedDiskBackend fdatasync of the redo log: the disk's
     *  durability point. A fault here, then dropVolatile(), loses the
     *  log's unsynced tail (the OS page cache at a power failure). */
    LogSync,
};

inline constexpr std::size_t kNumPersistBoundaryKinds = 8;

const char *persistBoundaryName(PersistBoundary kind);

/** Thrown when the armed boundary index is reached. */
class InjectedFault : public std::runtime_error
{
  public:
    InjectedFault(PersistBoundary kind, std::uint64_t boundary_index)
        : std::runtime_error(
              "injected fault at persist boundary #" +
              std::to_string(boundary_index) + " (" +
              persistBoundaryName(kind) + ")"),
          kind_(kind), boundary_index_(boundary_index)
    {
    }

    PersistBoundary kind() const { return kind_; }
    std::uint64_t boundaryIndex() const { return boundary_index_; }

  private:
    PersistBoundary kind_;
    std::uint64_t boundary_index_;
};

class FaultInjector
{
  public:
    /**
     * Count a boundary crossing; throws InjectedFault exactly once when
     * the armed index is reached. Suspended injectors neither count nor
     * throw (recovery code runs under a suspension scope so its flush
     * writes don't perturb the deterministic boundary numbering).
     */
    void
    boundary(PersistBoundary kind)
    {
        if (suspended_ != 0)
            return;
        ++count_;
        ++kind_counts_[static_cast<std::size_t>(kind)];
        if (observer_)
            observer_(kind, count_);
        if (!armed_)
            return;
        if (kind_pending_ && kind == arm_kind_ &&
            kind_counts_[static_cast<std::size_t>(kind)] == kind_target_) {
            kind_pending_ = false;
            target_ = count_ + after_;
        }
        if (!kind_pending_ && count_ == target_) {
            armed_ = false;
            fired_ = true;
            fired_kind_ = kind;
            fired_index_ = count_;
            throw InjectedFault(kind, count_);
        }
    }

    /** Arm the injector to fault at the @p boundary_index-th boundary
     *  (1-based) counted from the last reset(). */
    void
    armAt(std::uint64_t boundary_index)
    {
        armed_ = true;
        kind_pending_ = false;
        target_ = boundary_index;
    }

    /**
     * Arm the injector to fault at the @p after-th boundary (of any
     * kind) following the @p occurrence-th boundary of @p kind (1-based),
     * both counted from this call; @p after = 0 faults at that boundary
     * itself. A crash test names a protocol point this way without
     * knowing the absolute index (DESIGN.md §10 maps each point).
     */
    void
    armAtKind(PersistBoundary kind, std::uint64_t occurrence,
              std::uint64_t after = 0)
    {
        armed_ = true;
        kind_pending_ = true;
        arm_kind_ = kind;
        kind_target_ = kindCount(kind) + occurrence;
        after_ = after;
    }

    void disarm() { armed_ = false; }

    /** Counter back to zero, disarmed, nothing fired. */
    void
    reset()
    {
        count_ = 0;
        armed_ = false;
        kind_pending_ = false;
        fired_ = false;
        target_ = 0;
        suspended_ = 0;
        kind_counts_.fill(0);
    }

    std::uint64_t boundariesSeen() const { return count_; }
    bool armed() const { return armed_; }
    bool fired() const { return fired_; }
    PersistBoundary firedKind() const { return fired_kind_; }
    std::uint64_t firedIndex() const { return fired_index_; }

    /** Boundaries seen per kind since the last reset(). */
    std::uint64_t
    kindCount(PersistBoundary kind) const
    {
        return kind_counts_[static_cast<std::size_t>(kind)];
    }

    /**
     * Boundary observer: called for every counted boundary, after the
     * count advances and *before* an armed fault throws — so an
     * observer armed at the same index as the fault mutates durable
     * state at exactly the crash point. The tamper-injection framework
     * (sim/tamper_injector.hh) is the intended client. Survives
     * reset(); pass an empty function to detach.
     */
    using Observer =
        std::function<void(PersistBoundary, std::uint64_t)>;

    void setObserver(Observer observer)
    {
        observer_ = std::move(observer);
    }

    /** @{ Drain bracket: writes issued inside count as DrainWrite. */
    bool inDrain() const { return drain_depth_ != 0; }

    class ScopedDrain
    {
      public:
        explicit ScopedDrain(FaultInjector *injector) : injector_(injector)
        {
            if (injector_)
                ++injector_->drain_depth_;
        }
        ~ScopedDrain()
        {
            if (injector_)
                --injector_->drain_depth_;
        }
        ScopedDrain(const ScopedDrain &) = delete;
        ScopedDrain &operator=(const ScopedDrain &) = delete;

      private:
        FaultInjector *injector_;
    };
    /** @} */

    /** @{ Suspension (recovery code): boundaries pass uncounted. */
    class ScopedSuspend
    {
      public:
        explicit ScopedSuspend(FaultInjector *injector)
            : injector_(injector)
        {
            if (injector_)
                ++injector_->suspended_;
        }
        ~ScopedSuspend()
        {
            if (injector_)
                --injector_->suspended_;
        }
        ScopedSuspend(const ScopedSuspend &) = delete;
        ScopedSuspend &operator=(const ScopedSuspend &) = delete;

      private:
        FaultInjector *injector_;
    };
    /** @} */

  private:
    std::uint64_t count_ = 0;
    std::uint64_t target_ = 0;
    bool armed_ = false;
    /** @{ armAtKind(): target_ is set once the kind's occurrence is
     *  seen. */
    bool kind_pending_ = false;
    PersistBoundary arm_kind_ = PersistBoundary::RoundStart;
    std::uint64_t kind_target_ = 0;
    std::uint64_t after_ = 0;
    /** @} */
    bool fired_ = false;
    PersistBoundary fired_kind_ = PersistBoundary::RoundCommit;
    std::uint64_t fired_index_ = 0;
    unsigned drain_depth_ = 0;
    unsigned suspended_ = 0;
    Observer observer_;
    std::array<std::uint64_t, kNumPersistBoundaryKinds> kind_counts_{};
};

} // namespace psoram

#endif // PSORAM_NVM_FAULT_INJECTOR_HH
