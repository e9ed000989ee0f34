/**
 * @file
 * System builder: lays out the NVM address space (ORAM tree, trusted
 * PosMap region, PosMap ORAM tree, shadow regions) and wires a device +
 * controller pair for one of the §5.1 design variants.
 */

#ifndef PSORAM_SIM_SYSTEM_HH
#define PSORAM_SIM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mem/backend.hh"
#include "nvm/fault_injector.hh"
#include "nvm/flight_recorder.hh"
#include "oram/integrity.hh"
#include "psoram/design.hh"
#include "psoram/psoram_controller.hh"

namespace psoram {

/** Which concrete MemoryBackend buildSystem constructs. */
enum class BackendKind
{
    /** In-memory NvmDevice (the default golden-digest model). */
    Memory,
    /** FileBackedNvm: in-memory model, image persisted at checkpoints. */
    File,
    /** PagedDiskBackend: out-of-core page-cached tree on a real file. */
    Disk,
};

const char *backendName(BackendKind kind);

struct SystemConfig
{
    DesignKind design = DesignKind::PsOram;

    /** @{ Memory system (Table 3c, Fig. 7 sweeps channels). */
    NvmTech main_tech = NvmTech::PCM;
    unsigned channels = 1;
    unsigned banks_per_channel = 8;
    /** @} */

    /** @{ ORAM geometry (Table 3b). */
    unsigned tree_height = 23;
    unsigned bucket_slots = 4;
    /** 0 = derive from 50 % utilization. */
    std::uint64_t num_blocks = 0;
    std::size_t stash_capacity = 200;
    std::size_t wpq_entries = 96;
    std::size_t temp_posmap_entries = 96;
    /** @} */

    CipherKind cipher = CipherKind::FastStream;
    std::uint64_t seed = 1;

    /**
     * Memory-integrity level (oram/integrity.hh): off keeps the
     * historical 96-byte slot layout byte-identical; mac widens tree
     * records to 128 bytes with a per-record GMAC tag; tree adds the
     * persistent Merkle tree + per-round root record. Non-Off requires
     * a persistent non-recursive design.
     */
    IntegrityMode integrity = IntegrityMode::Off;

    /**
     * Must be 1: accesses run one at a time per controller (DESIGN.md
     * §12 records why there is no intra-shard pipeline). Kept only
     * because the repository benchmark assigns it; removed in the next
     * change to the benchmark.
     */
    unsigned pipeline_depth = 1;

    /**
     * Persistent flight recorder ("black box", nvm/flight_recorder.hh):
     * reserve a CRC-stamped event ring at the end of the NVM layout and
     * wire it through the drainer and the file-image checkpoints. Off
     * by default: the ring appends are quiet writes, which the golden
     * traffic digests DO count — every byte-pinned configuration runs
     * without it. The reserved region is
     * laid out last, so enabling it shifts no other region base.
     */
    bool flight_recorder = false;
    /** Ring capacity in 64-byte event records. */
    std::size_t flight_records = 64;

    /**
     * Fault-injection negative control: suppress §4.2.2 backup blocks
     * while keeping the rest of the persistence machinery. The crash
     * enumerator must detect the resulting data loss — a build where it
     * does not is a broken checker.
     */
    bool disable_backup_blocks = false;

    /**
     * Storage backend. For back-compat, Memory (the default) combined
     * with a non-empty backing_file still builds FileBackedNvm, exactly
     * as before the flag existed; Disk requires a backing_file.
     */
    BackendKind backend = BackendKind::Memory;

    /**
     * Non-empty: back the NVM image with this file (FileBackedNvm), so
     * the persistent state survives process restarts — or, with
     * backend == Disk, the paged on-disk tree itself. Empty: in-memory
     * NvmDevice.
     */
    std::string backing_file;

    /** @{ PagedDiskBackend tuning (backend == Disk only). */
    std::size_t disk_cache_pages = 1024;
    std::size_t disk_pinned_pages = 64;
    /** @} */

    /** The backend buildSystem will actually construct, with the
     *  Memory+backing_file → File inference applied. */
    BackendKind effectiveBackend() const
    {
        if (backend == BackendKind::Memory && !backing_file.empty())
            return BackendKind::File;
        return backend;
    }
};

/** A wired device + controller pair. */
struct System
{
    /**
     * Invoked with every freshly recovered controller so observers,
     * crash policies and other per-instance registrations survive
     * recovery (they are attached to the controller object and would
     * otherwise be silently dropped).
     */
    using RebindHook = std::function<void(PsOramController &)>;

    SystemConfig config;
    PsOramParams params;
    /**
     * Black box + recovery stats. Declared BEFORE the device: members
     * destroy in reverse order, so the recorder outlives the backend's
     * destructor-time image persist (which stamps a final checkpoint
     * marker through its raw recorder pointer). Null when
     * config.flight_recorder is off (recovery_stats always exists).
     */
    std::unique_ptr<FlightRecorder> flight_recorder;
    std::unique_ptr<RecoveryStats> recovery_stats;
    std::unique_ptr<MemoryBackend> device;
    std::unique_ptr<PsOramController> controller;
    RebindHook rebind_hook;
    /** Non-owning; survives recovery (re-attached to the rebuilt
     *  controller). */
    FaultInjector *fault_injector = nullptr;

    /**
     * Rebuild the controller after a crash (keeps the device): applies
     * the ADR power-failure flush, drops all volatile state, and runs
     * recovery from the NVM image. The rebind hook (if set) is then
     * called with the new controller to re-attach observers and crash
     * policies. An attached fault injector is suspended for the
     * duration (recovery-era flush writes are not enumerable persist
     * boundaries) and re-attached to the new controller.
     */
    void recoverController();

    void setRebindHook(RebindHook hook) { rebind_hook = std::move(hook); }

    /**
     * Wire @p injector through the whole persist path: the device's
     * functional writes, the controller's WPQ start/end signals, and —
     * when file-backed — the image checkpoints. Null detaches.
     */
    void attachFaultInjector(FaultInjector *injector);
};

/** Construct the full system for @p config. */
System buildSystem(const SystemConfig &config);

/** Derive the controller parameter block (region layout) only. */
PsOramParams systemParams(const SystemConfig &config);

} // namespace psoram

#endif // PSORAM_SIM_SYSTEM_HH
