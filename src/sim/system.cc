#include "sim/system.hh"

#include "common/bitops.hh"
#include "common/log.hh"
#include "nvm/device.hh"
#include "nvm/paged_disk.hh"
#include "psoram/recovery.hh"

namespace psoram {

namespace {

/** Align a region base up to a 4 KiB boundary. */
Addr
alignUp(Addr addr)
{
    return (addr + 4095) & ~Addr{4095};
}

} // namespace

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Memory:
        return "memory";
      case BackendKind::Disk:
        return "disk";
    }
    return "?";
}

PsOramParams
systemParams(const SystemConfig &config)
{
    PsOramParams params;
    params.data_layout.geometry =
        TreeGeometry{config.tree_height, config.bucket_slots};
    params.data_layout.base = 0;

    params.num_blocks = config.num_blocks != 0
        ? config.num_blocks
        : params.data_layout.geometry.dataBlocks(0.5);
    params.stash_capacity = config.stash_capacity;
    params.cipher = config.cipher;
    params.seed = config.seed;
    if (config.pipeline_depth != 1)
        PSORAM_FATAL("pipeline_depth must be 1 (got ",
                     config.pipeline_depth, ")");

    params.design = designOptions(config.design);
    params.design.wpq_entries = config.wpq_entries;
    params.design.temp_posmap_entries = config.temp_posmap_entries;
    if (config.disable_backup_blocks)
        params.design.backup_blocks = false;

    if (config.integrity != IntegrityMode::Off) {
        // Scope: only backup-block persistence puts whole records
        // through the WPQ the root record can bind to.
        if (params.design.persist == PersistMode::None ||
            params.design.recursive_posmap)
            PSORAM_FATAL("integrity=",
                         integrityModeName(config.integrity),
                         " requires a persistent non-recursive design "
                         "(got ", designName(config.design), ")");
        if (config.wpq_entries < 2)
            PSORAM_FATAL("integrity needs wpq_entries >= 2");
        params.integrity = config.integrity;
        params.data_layout.record_bytes = kIntegrityRecordBytes;
    }

    // Region layout, packed after the data tree.
    Addr cursor = alignUp(params.data_layout.footprintBytes());

    params.posmap_region_base = cursor;
    cursor = alignUp(cursor +
                     params.num_blocks * PersistentPosMap::kEntryBytes);

    if (params.design.recursive_posmap) {
        // PoM tree sized at ~50 % utilization for the entry blocks.
        const std::uint64_t entry_blocks =
            divCeil(params.num_blocks, kEntriesPerPosBlock);
        unsigned height = 1;
        while (static_cast<std::uint64_t>(config.bucket_slots) *
                   ((2ULL << height) - 1) < 2 * entry_blocks)
            ++height;
        params.pom_height = height;
        const TreeGeometry pom_geo{height, config.bucket_slots};
        params.pom_tree_base = cursor;
        cursor = alignUp(cursor + pom_geo.numSlots() * kSlotBytes);

        params.pom_pos_region_base = cursor;
        cursor = alignUp(cursor +
                         entry_blocks * PersistentPosMap::kEntryBytes);

        params.shadow_data_base = cursor;
        cursor = alignUp(cursor + ShadowStashRegion::kHeaderBytes +
                         2 * params.stash_capacity * kSlotBytes);
        params.shadow_pom_base = cursor;
        cursor = alignUp(cursor + ShadowStashRegion::kHeaderBytes +
                         2 * params.pom_stash_capacity * kSlotBytes);

        if (params.design.usesWpq()) {
            // The recursive eviction bundle (data path + PoM path +
            // stash shadows) must commit in ONE atomic bracket: the
            // §4.2.3 write-ordering scheme for small WPQs is defined
            // for the non-recursive design only (see DESIGN.md). Size
            // the WPQs for the worst-case bundle.
            const std::uint64_t data_side =
                params.data_layout.geometry.blocksPerPath() +
                params.stash_capacity + 1 +
                params.pom_stash_capacity + 1;
            const std::uint64_t pom_path =
                static_cast<std::uint64_t>(config.bucket_slots) *
                (height + 1);
            const std::uint64_t min_entries =
                std::max<std::uint64_t>(data_side, 2 * pom_path + 8);
            if (params.design.wpq_entries < min_entries)
                params.design.wpq_entries = min_entries;
        }
    }

    params.naive_scratch_base = cursor;
    cursor = alignUp(cursor + params.data_layout.geometry.blocksPerPath() *
                              kBlockDataBytes);

    if (params.integrity != IntegrityMode::Off) {
        params.integrity_root_base = cursor;
        cursor = alignUp(cursor + IntegrityManager::kRootRecordBytes);
        if (params.integrity == IntegrityMode::Tree) {
            params.merkle_region_base = cursor;
            cursor = alignUp(cursor +
                             params.data_layout.geometry.numBuckets() *
                                 IntegrityManager::kHashBytes);
        }
    }

    if (config.flight_recorder) {
        // Laid out LAST: enabling the black box must not move any
        // other region (tree traffic stays byte-identical — pinned by
        // the transparency differential).
        params.flight_recorder_base = cursor;
        params.flight_recorder_records =
            config.flight_records ? config.flight_records
                                  : FlightRecorder::kDefaultRecords;
        cursor = alignUp(cursor + FlightRecorder::regionBytes(
                                      params.flight_recorder_records));
    }

    params.regions_end = cursor;
    return params;
}

System
buildSystem(const SystemConfig &config)
{
    System system;
    system.config = config;
    system.params = systemParams(config);

    // Capacity: every region systemParams laid out, plus headroom.
    const std::uint64_t capacity = system.params.regions_end + (1ULL << 20);
    switch (config.backend) {
      case BackendKind::Disk: {
        if (config.backing_file.empty())
            PSORAM_FATAL("backend=disk needs a backing_file path");
        PagedDiskConfig disk;
        disk.path = config.backing_file;
        disk.cache_pages = config.disk_cache_pages;
        disk.pinned_pages = config.disk_pinned_pages;
        const TreeLayout &tree = system.params.data_layout;
        disk.tree_levels = tree.geometry.levels();
        disk.bucket_bytes = tree.geometry.bucket_slots * tree.record_bytes;
        system.device = std::make_unique<PagedDiskBackend>(
            timingsFor(config.main_tech), config.channels,
            config.banks_per_channel, capacity, std::move(disk));
        break;
      }
      case BackendKind::Memory:
        if (!config.backing_file.empty())
            PSORAM_FATAL("backing_file '", config.backing_file,
                         "' needs backend=disk (the memory backend "
                         "keeps no file)");
        system.device = std::make_unique<NvmDevice>(
            timingsFor(config.main_tech), config.channels,
            config.banks_per_channel, capacity);
        break;
    }
    system.recovery_stats = std::make_unique<RecoveryStats>();
    if (system.params.flight_recorder_base != 0) {
        system.flight_recorder = std::make_unique<FlightRecorder>(
            system.params.flight_recorder_base,
            system.params.flight_recorder_records);
        system.flight_recorder->attach(*system.device);
        system.device->setFlightRecorder(system.flight_recorder.get());
    }
    system.controller = std::make_unique<PsOramController>(
        system.params, *system.device);
    if (system.flight_recorder)
        system.controller->attachFlightRecorder(
            system.flight_recorder.get());
    return system;
}

void
System::recoverController()
{
    {
        const FaultInjector::ScopedSuspend suspend(fault_injector);
        // Simulated power failure: the ADR flush redelivers the
        // committed in-flight rounds, then the device loses its
        // volatile state (powerFailureFlush), so recovery reads only
        // what had durably reached the medium.
        controller = RecoveryManager::recover(std::move(controller),
                                              *device,
                                              recovery_stats.get(),
                                              flight_recorder.get());
    }
    if (fault_injector)
        controller->attachFaultInjector(fault_injector);
    if (flight_recorder)
        controller->attachFlightRecorder(flight_recorder.get());
    if (rebind_hook)
        rebind_hook(*controller);
}

void
System::attachFaultInjector(FaultInjector *injector)
{
    fault_injector = injector;
    if (device)
        device->setFaultInjector(injector);
    if (controller)
        controller->attachFaultInjector(injector);
}

} // namespace psoram
