#include "psoram/psoram_controller.hh"

#include <algorithm>
#include <cstring>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/trace.hh"

namespace psoram {

namespace {

/** Derive the PosMap ORAM tree height from the data block count. */
unsigned
derivePomHeight(std::uint64_t num_blocks, unsigned bucket_slots)
{
    const std::uint64_t entry_blocks =
        divCeil(num_blocks, kEntriesPerPosBlock);
    // Size the tree for ~50 % utilization: slots >= 2 * entry blocks.
    unsigned height = 1;
    while ((static_cast<std::uint64_t>(bucket_slots) *
            ((2ULL << height) - 1)) < 2 * entry_blocks)
        ++height;
    return height;
}

} // namespace

PsOramController::PsOramController(const PsOramParams &params,
                                   MemoryBackend &device)
    : params_(params), device_(device), geo_(params.data_layout.geometry),
      codec_(params.key, params.cipher),
      rng_(params.seed ^ 0x5ca1ab1edeadbeefULL),
      stash_(params.stash_capacity),
      temp_(params.design.temp_posmap_entries),
      volatile_posmap_(params.num_blocks, geo_.numLeaves(), params.seed),
      persistent_posmap_(params.posmap_region_base, params.num_blocks,
                         params.seed, geo_.numLeaves())
{
    if (params_.num_blocks > geo_.numSlots())
        PSORAM_FATAL("logical blocks (", params_.num_blocks,
                     ") exceed tree slots (", geo_.numSlots(), ")");

    if (recursive()) {
        PosMapTreeLevel::Params pom_params;
        const unsigned pom_height = params_.pom_height != 0
            ? params_.pom_height
            : derivePomHeight(params_.num_blocks, geo_.bucket_slots);
        pom_params.layout.geometry =
            TreeGeometry{pom_height, geo_.bucket_slots};
        pom_params.layout.base = params_.pom_tree_base;
        pom_params.num_entry_blocks =
            divCeil(params_.num_blocks, kEntriesPerPosBlock);
        pom_params.stash_capacity = params_.pom_stash_capacity;
        pom_params.seed = params_.seed ^ 0x706f6d31ULL; // "pom1"

        const std::uint64_t pom_leaves =
            pom_params.layout.geometry.numLeaves();
        const std::uint64_t pom_seed = pom_params.seed;
        PosResolver resolver;
        if (persistent()) {
            pom_pos_region_ = std::make_unique<PersistentPosMap>(
                params_.pom_pos_region_base, pom_params.num_entry_blocks,
                pom_seed, pom_leaves);
            resolver = [this](std::uint64_t idx) {
                return pom_pos_region_->readEntry(device_, idx);
            };
        } else {
            resolver = [pom_seed, pom_leaves](std::uint64_t idx) {
                return initialPath(pom_seed, idx, pom_leaves);
            };
        }
        pom_ = std::make_unique<PosMapTreeLevel>(pom_params, device_,
                                                 codec_, rng_,
                                                 std::move(resolver));
        if (persistent()) {
            shadow_data_ = std::make_unique<ShadowStashRegion>(
                params_.shadow_data_base, params_.stash_capacity);
            shadow_pom_ = std::make_unique<ShadowStashRegion>(
                params_.shadow_pom_base, params_.pom_stash_capacity);
        }
    }

    if (persistent())
        drainer_ = std::make_unique<Drainer>(
            params_.design.wpq_entries, params_.design.wpq_entries);

    if (params_.integrity != IntegrityMode::Off) {
        if (!usesBackups())
            PSORAM_FATAL("integrity=",
                         integrityModeName(params_.integrity),
                         " requires a persistent non-recursive design");
        if (params_.design.wpq_entries < 2)
            PSORAM_FATAL("integrity needs wpq_entries >= 2 (one PosMap "
                         "slot per round is the root record's)");
        integrity_ = std::make_unique<IntegrityManager>(
            params_.key, params_.integrity, params_.data_layout,
            params_.integrity_root_base, params_.merkle_region_base);
        // Every committed round carries a root record binding exactly
        // the records that round (and its predecessors) wrote, so any
        // committed prefix verifies at recovery.
        drainer_->setRoundFinalizer(
            [this](const WpqEntry *round_data, std::size_t n) {
                for (std::size_t i = 0; i < n; ++i)
                    integrity_->noteRoundWrite(round_data[i].addr,
                                               round_data[i].data.data(),
                                               round_data[i].data.size());
                return integrity_->makeRootRecord(codec_.nextIv());
            });
    }

    if (params_.design.stash_tech != StashTech::SRAM) {
        const NvmTimingParams tech =
            params_.design.stash_tech == StashTech::PCM ? pcmTimings()
                                                        : sttramTimings();
        // On-chip buffer: one channel, a few banks.
        onchip_ = std::make_unique<NvmTiming>(tech, 1,
                                              params_.onchip_banks);
    }

    // Wire the phase components over the assembled subsystems.
    env_ = std::make_unique<PhaseEnv>(PhaseEnv{
        params_, geo_, device_, codec_, rng_, stash_, temp_,
        volatile_posmap_, persistent_posmap_, counters_, pom_.get(),
        shadow_data_.get(), shadow_pom_.get(), pom_pos_region_.get(),
        drainer_.get(), onchip_.get(), &commit_observer_, 0});
    env_->integrity = integrity_.get();
    env_->deferred_commits = &deferred_commits_;
    remapper_ = std::make_unique<Remapper>(*env_);
    loader_ = std::make_unique<PathLoader>(*env_);
    backup_planner_ = std::make_unique<BackupPlanner>(*env_);
    evictor_ = std::make_unique<Evictor>(*env_);
}

PsOramController::~PsOramController() = default;

OramAccessInfo
PsOramController::read(BlockAddr addr, std::uint8_t *out)
{
    const OramAccessInfo info = access(addr, false, out, nullptr);
    if (!group_open_)
        commitDurable(1);
    return info;
}

OramAccessInfo
PsOramController::write(BlockAddr addr, const std::uint8_t *in)
{
    const OramAccessInfo info = access(addr, true, nullptr, in);
    if (!group_open_)
        commitDurable(1);
    return info;
}

bool
PsOramController::endGroup(std::size_t requests)
{
    group_open_ = false;
    return commitDurable(requests);
}

bool
PsOramController::commitDurable(std::size_t requests)
{
    const bool traced = obs::TraceRecorder::enabled();
    const std::uint64_t t0 = traced ? obs::TraceRecorder::nowNs() : 0;
    const bool synced = device_.sync();
    if (synced && traced)
        obs::TraceRecorder::complete("disk", "disk.log_sync", t0, 0,
                                     "group",
                                     static_cast<std::int64_t>(requests));
    if (commit_observer_)
        for (const DeferredCommit &commit : deferred_commits_)
            commit_observer_(commit.addr, commit.data);
    deferred_commits_.clear();
    return synced;
}

PathId
PsOramController::committedPath(BlockAddr addr) const
{
    return env_->committedPath(addr);
}

PathId
PsOramController::effectivePath(BlockAddr addr) const
{
    if (const auto pending = temp_.get(addr))
        return *pending;
    return committedPath(addr);
}

OramAccessInfo
PsOramController::access(BlockAddr addr, bool is_write,
                         std::uint8_t *read_out,
                         const std::uint8_t *write_in)
{
    if (addr >= params_.num_blocks)
        PSORAM_PANIC("ORAM access beyond logical capacity: ", addr);
    ++accesses_;
    const std::uint64_t access_id =
        pending_access_id_ != 0 ? pending_access_id_ : accesses_.value();
    pending_access_id_ = 0;
    const std::uint64_t host_entry = obs::hostNowNs();

    // ---- Step 1: check stash. ----
    if (StashEntry *hit = stash_.find(addr)) {
        OramAccessInfo info;
        Cycle t = now_;
        if (onchip_) {
            t = env_->onChipRead(t);
            if (is_write)
                t = env_->onChipWrite(t);
            info.nvm_cycles = t - now_;
            now_ = t;
        }
        if (is_write)
            std::memcpy(hit->data.data(), write_in, kBlockDataBytes);
        else
            std::memcpy(read_out, hit->data.data(), kBlockDataBytes);
        ++counters_.stash_hits;
        info.stash_hit = true;
        stash_.sampleOccupancy();
        PSORAM_TRACE_INSTANT("oram", "stash_hit", access_id);
        phase_ns_.stash_hit.sample(
            static_cast<double>(obs::hostNowNs() - host_entry));
        phase_cycles_.stash_hit.sample(
            static_cast<double>(info.nvm_cycles));
        return info;
    }

    PSORAM_TRACE_SCOPE("oram", "access", access_id);

    AccessContext &ctx = ctx_;
    ctx.reset();
    ctx.addr = addr;
    ctx.is_write = is_write;
    ctx.start = ctx.t = now_;
    ctx.access_id = access_id;

    // Adjacent phase windows: each boundary stamp closes one phase and
    // opens the next, so the five phases sum to `total` by construction
    // (common/stats.hh WindowLedger).
    PhaseLatencyStats::Stamps ns(obs::hostNowNs());
    PhaseLatencyStats::Stamps cycles(ctx.t);
    const auto stamp = [&](PhaseLatencyStats::Window phase) {
        ns.close(phase, obs::hostNowNs());
        cycles.close(phase, ctx.t);
    };

    // ---- Step 2: access PosMap and backup the label. ----
    {
        PSORAM_TRACE_SCOPE("phase", "remap", access_id);
        remapper_->run(ctx);
    }
    ctx.info.leaf = ctx.leaf;
    if (observer_)
        observer_(ctx.leaf);
    stamp(PhaseLatencyStats::Remap);

    // ---- Step 3: load path. ----
    {
        PSORAM_TRACE_SCOPE("phase", "load", access_id);
        loader_->run(ctx);
    }
    stamp(PhaseLatencyStats::Load);

    // ---- Step 4: update stash and backup the data block. ----
    {
        PSORAM_TRACE_SCOPE("phase", "backup", access_id);
        StashEntry *entry = stash_.find(addr);
        if (!entry) {
            // First touch: materialize an all-zero block (lazy tree
            // init).
            StashEntry fresh;
            fresh.addr = addr;
            fresh.path = ctx.leaf;
            if (usesBackups())
                fresh.epoch =
                    persistent_posmap_.readFullEntry(device_, addr)
                        .epoch;
            stash_.insert(fresh);
            entry = stash_.find(addr);
        } else {
            backup_planner_->plan(ctx);
        }
        entry->path = ctx.new_leaf;
        ++entry->epoch; // the re-label consumes one remap epoch
        if (is_write)
            std::memcpy(entry->data.data(), write_in, kBlockDataBytes);
        else
            std::memcpy(read_out, entry->data.data(), kBlockDataBytes);
    }
    stamp(PhaseLatencyStats::Backup);

    // ---- Step 5: PS-ORAM eviction. ----
    {
        PSORAM_TRACE_SCOPE("phase", "evict", access_id);
        evictor_->run(ctx);
    }
    stamp(PhaseLatencyStats::Evict);

    now_ = std::max(ctx.t, ctx.start);
    ctx.info.nvm_cycles = now_ - ctx.start;
    stash_.sampleOccupancy();

    // The evict window contains the WPQ drain; report it as its own
    // phase (evict excludes it).
    ns.carve(PhaseLatencyStats::Evict, PhaseLatencyStats::Drain,
             ctx.drain_host_ns);
    cycles.carve(PhaseLatencyStats::Evict, PhaseLatencyStats::Drain,
                 ctx.drain_cycles);
    phase_ns_.sample(ns.windows());
    phase_cycles_.sample(cycles.windows());
    return ctx.info;
}

std::size_t
PsOramController::powerFailureFlush(RecoveryStats::Stamps *stamps)
{
    std::size_t redelivered = 0;
    {
        PSORAM_TRACE_SCOPE("recovery", "adr_redeliver", 0);
        if (drainer_)
            redelivered = drainer_->domain().crashFlush(device_);
    }
    if (stamps)
        stamps->close(RecoveryStats::AdrRedeliver, obs::hostNowNs());
    {
        PSORAM_TRACE_SCOPE("recovery", "wpq_replay", 0);
        device_.dropVolatile();
    }
    if (stamps)
        stamps->close(RecoveryStats::WpqReplay, obs::hostNowNs());
    // Nothing the dying controller deferred became durable.
    deferred_commits_.clear();
    return redelivered;
}

void
PsOramController::attachFlightRecorder(FlightRecorder *recorder)
{
    // Appends are quiet writes to the recorder's side region, so they
    // add no persist boundary to the protocol sequence they observe.
    if (drainer_)
        drainer_->setFlightRecorder(recorder, &device_);
}

void
PsOramController::registerStats(StatGroup &group) const
{
    group.addCounter("accesses", &accesses_,
                     "controller accesses served (stash hits included)");
    group.addCounter("stash_hits", &counters_.stash_hits,
                     "accesses served from the stash (step-1 fast path)");
    group.addCounter("backups", &counters_.backups,
                     "backup blocks created (step 4)");
    group.addCounter("stale_dropped", &counters_.stale_dropped,
                     "stale tree copies dropped during path loads");
    group.addCounter("forced_merges", &counters_.forced_merges,
                     "temporary-PosMap overflows forcing a merge");
    group.addCounter("unplaced_carried", &counters_.unplaced_carried,
                     "live stash residue carried across evictions");
    phase_ns_.registerWith(group, "phase_ns");
    phase_cycles_.registerWith(group, "phase_cycles");
}

IntegrityManager::RecoveryScan
PsOramController::recoverFromNvm(RecoveryStats::Stamps *stamps)
{
    PSORAM_TRACE_SCOPE("recovery", "recover_from_nvm", 0);
    {
        PSORAM_TRACE_SCOPE("recovery", "posmap_rebuild", 0);
        stash_.clear();
        temp_.clear();
        volatile_posmap_.clear();
        if (recursive()) {
            pom_->loseVolatileState();
            if (persistent()) {
                shadow_data_->resumeFrom(device_);
                shadow_pom_->resumeFrom(device_);
                for (const StashEntry &entry :
                     shadow_data_->recover(device_, codec_))
                    stash_.insert(entry);
                for (const StashEntry &entry :
                     shadow_pom_->recover(device_, codec_))
                    pom_->restoreStashEntry(entry);
            }
        }
    }
    if (stamps)
        stamps->close(RecoveryStats::PosmapRebuild, obs::hostNowNs());
    IntegrityManager::RecoveryScan scan;
    if (integrity_) {
        // Verify every record against its tag (and, in tree mode, the
        // recomputed Merkle root against the committed root record)
        // before serving a single access; throws IntegrityError rather
        // than accept a tampered or torn node. Also resumes the slot
        // codec past the persisted IV watermark so re-encryption never
        // reuses a CTR keystream.
        scan = integrity_->recoverFromDevice(device_, stamps);
        codec_.resumeIvsAfter(scan.slot_iv_floor);
        if (stamps)
            stamps->close(RecoveryStats::NodeRepair, obs::hostNowNs());
    }
    return scan;
}

PsOramController::OnChipNvState
PsOramController::exportOnChipNvState() const
{
    OnChipNvState state;
    for (std::size_t i = 0; i < stash_.size(); ++i)
        state.stash.push_back(stash_.at(i));
    state.posmap = volatile_posmap_.entries();
    return state;
}

void
PsOramController::importOnChipNvState(const OnChipNvState &state)
{
    stash_.clear();
    for (const StashEntry &entry : state.stash)
        stash_.insert(entry);
    volatile_posmap_.clear();
    for (const auto &[a, p] : state.posmap)
        volatile_posmap_.set(a, p);
}

TrafficCounts
PsOramController::traffic() const
{
    TrafficCounts counts;
    counts.reads = device_.timing().totalReads();
    counts.writes = device_.timing().totalWrites();
    if (onchip_)
        counts.writes += onchip_->totalWrites();
    return counts;
}

bool
PsOramController::committedDataInTree(BlockAddr addr,
                                      std::uint8_t *out) const
{
    const PathId leaf = committedPath(addr);
    const bool check_epoch = usesBackups();
    const std::uint32_t epoch = check_epoch
        ? persistent_posmap_.readFullEntry(device_, addr).epoch
        : 0;
    for (unsigned level = 0; level <= geo_.height; ++level) {
        const BucketId bucket = geo_.bucketAt(leaf, level);
        for (unsigned s = 0; s < geo_.bucket_slots; ++s) {
            SlotBytes raw{};
            device_.readBytes(params_.data_layout.slotAddr(bucket, s),
                            raw.data(), kSlotBytes);
            const PlainBlock block = codec_.decode(raw);
            if (!block.isDummy() && block.addr == addr &&
                block.path == leaf &&
                (!check_epoch || block.epoch == epoch)) {
                std::memcpy(out, block.data.data(), kBlockDataBytes);
                return true;
            }
        }
    }
    return false;
}

} // namespace psoram
