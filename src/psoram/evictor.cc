#include "psoram/evictor.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "oram/controller.hh"
#include "oram/integrity.hh"

namespace psoram {

static_assert(kSlotBytes <= kWpqEntryBytes,
              "encrypted tree slots must fit a WPQ entry inline");
static_assert(kIntegrityRecordBytes <= kWpqEntryBytes,
              "authenticated tree records must fit a WPQ entry inline");

void
Evictor::run(AccessContext &ctx)
{
    const BlockAddr addr = ctx.addr;
    const PathId leaf = ctx.leaf;
    const TreeGeometry &geo = env_.geo;
    Stash &stash = env_.stash;
    const unsigned levels = geo.levels();
    const unsigned z = geo.bucket_slots;
    const std::size_t path_slots = static_cast<std::size_t>(levels) * z;

    // Placement plan, slot-indexed as [level * z + slot].
    EvictScratch &sc = scratch_;
    sc.plan.assign(path_slots, PlainBlock::dummy());
    sc.used.assign(path_slots, 0);
    sc.prev_live.assign(path_slots, 0);
    sc.slot_writer.assign(path_slots, 0);
    sc.placed.clear();
    sc.data_writes.clear();

    const auto slotIx = [z](unsigned level, unsigned s) {
        return static_cast<std::size_t>(level) * z + s;
    };

    const auto place = [&](const StashEntry &e, unsigned level,
                           unsigned slot) {
        const std::size_t ix = slotIx(level, slot);
        sc.plan[ix] = e.toBlock();
        sc.used[ix] = 1;
        sc.slot_writer[ix] =
            static_cast<std::uint32_t>(sc.placed.size() + 1);
        sc.placed.push_back(Placed{e.addr, e.path, e.epoch, e.data,
                                   e.is_backup, 0, level, slot});
    };

    // Non-recursive PS designs use *safe placement* so that multi-round
    // (small-WPQ) evictions stay crash consistent. Recursive PS designs
    // commit the whole eviction in one atomic bracket (see DESIGN.md),
    // so they — like the non-persistent designs — can use classic
    // greedy placement.
    const bool safe_placement = env_.persistent() && !env_.recursive();

    // prev_live[slot]: the slot held a live block before this eviction.
    // Writes over such slots must commit after the writes that relocate
    // their contents (emission group 2 below).
    for (const LoadedSlot &ls : ctx.slots)
        if (ls.addr != kDummyBlockAddr)
            sc.prev_live[slotIx(ls.level, ls.slot)] = 1;

    if (safe_placement) {
        // Pass 0: backup copies return to the very slot their block
        // was loaded from (identity rewrite of the committed value).
        for (const LoadedSlot &ls : ctx.slots) {
            if (ls.addr == kDummyBlockAddr)
                continue;
            if (!ls.is_backup_site && ls.addr != addr)
                continue;
            StashEntry *backup = stash.findBackup(ls.addr);
            if (!backup)
                continue;
            place(*backup, ls.level, ls.slot);
            stash.removeBackup(ls.addr);
        }

        // Pass A (sink): every live stash entry — loaded, carried and
        // the target — may drop into a free slot that previously held a
        // dummy or stale block (unconditionally overwrite-safe). Free
        // slots are listed per level in ascending order up front;
        // consuming them through a cursor picks exactly the slot the
        // old per-candidate rescan found.
        sc.free_slots.assign(path_slots, 0);
        sc.free_count.assign(levels, 0);
        sc.free_cursor.assign(levels, 0);
        for (unsigned level = 0; level < levels; ++level)
            for (unsigned s = 0; s < z; ++s) {
                const std::size_t ix = slotIx(level, s);
                if (!sc.used[ix] && !sc.prev_live[ix])
                    sc.free_slots[slotIx(level,
                                         sc.free_count[level]++)] = s;
            }

        sc.cands.clear();
        for (std::size_t i = 0; i < stash.size(); ++i) {
            const StashEntry &e = stash.at(i);
            if (e.is_backup)
                continue;
            sc.cands.push_back(
                Cand{e.addr, geo.commonLevel(e.path, leaf)});
        }
        std::sort(sc.cands.begin(), sc.cands.end(),
                  [](const Cand &a, const Cand &b) {
                      return a.max_level > b.max_level;
                  });
        for (const Cand &cand : sc.cands) {
            for (int level = static_cast<int>(cand.max_level);
                 level >= 0; --level) {
                std::uint32_t &cur =
                    sc.free_cursor[static_cast<unsigned>(level)];
                if (cur ==
                    sc.free_count[static_cast<unsigned>(level)])
                    continue;
                const unsigned s = sc.free_slots[slotIx(
                    static_cast<unsigned>(level), cur)];
                ++cur;
                place(*stash.find(cand.addr),
                      static_cast<unsigned>(level), s);
                stash.remove(cand.addr);
                break;
            }
        }

        // Pass B (identity): loaded blocks that did not sink rewrite
        // their own slot.
        for (const LoadedSlot &ls : ctx.slots) {
            if (ls.addr == kDummyBlockAddr || ls.is_backup_site ||
                ls.addr == addr || sc.used[slotIx(ls.level, ls.slot)])
                continue;
            StashEntry *resident = stash.find(ls.addr);
            if (!resident || env_.temp.get(ls.addr))
                continue;
            place(*resident, ls.level, ls.slot);
            stash.remove(ls.addr);
        }

        // Pass C (vacated): remaining carried blocks may take slots
        // vacated by blocks that sank in pass A — those writes are
        // emitted in group 2, after the sunk copies are durable. The
        // free lists are rebuilt over every still-unused slot.
        sc.free_count.assign(levels, 0);
        sc.free_cursor.assign(levels, 0);
        for (unsigned level = 0; level < levels; ++level)
            for (unsigned s = 0; s < z; ++s)
                if (!sc.used[slotIx(level, s)])
                    sc.free_slots[slotIx(level,
                                         sc.free_count[level]++)] = s;

        for (std::size_t i = 0; i < stash.size();) {
            const StashEntry &e = stash.at(i);
            if (e.is_backup) {
                ++i;
                continue;
            }
            const unsigned max_level = geo.commonLevel(e.path, leaf);
            bool done = false;
            for (int level = static_cast<int>(max_level);
                 level >= 0 && !done; --level) {
                std::uint32_t &cur =
                    sc.free_cursor[static_cast<unsigned>(level)];
                if (cur ==
                    sc.free_count[static_cast<unsigned>(level)])
                    continue;
                place(e, static_cast<unsigned>(level),
                      sc.free_slots[slotIx(static_cast<unsigned>(level),
                                           cur)]);
                ++cur;
                done = true;
            }
            if (done)
                stash.removeAt(i);
            else
                ++i;
        }
    } else {
        // Classic greedy eviction, leaf-first (no crash guarantees).
        // commonLevel is computed once per entry; the cache mirrors the
        // stash's swap-with-last removal so positions stay aligned and
        // the deepest-eligible tie-breaks (earliest position wins) are
        // bit-identical to the per-slot rescan this replaces.
        sc.depths.clear();
        for (std::size_t i = 0; i < stash.size(); ++i)
            sc.depths.push_back(
                geo.commonLevel(stash.at(i).path, leaf));
        for (int level = static_cast<int>(geo.height); level >= 0;
             --level) {
            for (unsigned s = 0; s < z; ++s) {
                // Find the deepest-eligible stash entry for this slot.
                std::size_t best = stash.size();
                unsigned best_depth = 0;
                for (std::size_t i = 0; i < stash.size(); ++i) {
                    const unsigned common = sc.depths[i];
                    if (common >= static_cast<unsigned>(level) &&
                        (best == stash.size() ||
                         common > best_depth)) {
                        best = i;
                        best_depth = common;
                    }
                }
                if (best == stash.size())
                    break;
                place(stash.at(best), static_cast<unsigned>(level), s);
                stash.removeAt(best);
                sc.depths[best] = sc.depths.back();
                sc.depths.pop_back();
            }
        }
    }

    // Blocks that found no slot stay in the (volatile) stash until a
    // later eviction; their durable copy is the backup (non-recursive)
    // or the shadow region (recursive).
    env_.counters.unplaced_carried += stash.liveSize();

    // Emit the full re-encrypted path. With safe placement the writes
    // go out in two groups: first every slot that previously held a
    // dummy/stale block (unconditionally safe), then the slots that
    // held live blocks (identity rewrites, backup sites, and slots
    // vacated by group-1 relocations). The drainer preserves push order
    // across WPQ rounds, so any committed prefix is recoverable.
    sc.data_writes.reserve(geo.blocksPerPath());
    const auto emitGroup = [&](bool live_group) {
        for (unsigned level = 0; level < levels; ++level) {
            const BucketId bucket = geo.bucketAt(leaf, level);
            for (unsigned s = 0; s < z; ++s) {
                const std::size_t ix = slotIx(level, s);
                if (safe_placement &&
                    (sc.prev_live[ix] != 0) != live_group)
                    continue;
                sc.data_writes.emplace_back();
                WpqEntry &write = sc.data_writes.back();
                write.addr = env_.params.data_layout.slotAddr(bucket, s);
                const SlotBytes slot_bytes =
                    env_.codec.encode(sc.plan[ix]);
                if (env_.integrity) {
                    // Authenticated record: ciphertext + fresh version
                    // + GMAC tag, one WPQ entry (the durability atom).
                    std::uint8_t record[kIntegrityRecordBytes];
                    env_.integrity->sealRecord(bucket, s, slot_bytes,
                                               record);
                    write.data.assign(record,
                                      record + kIntegrityRecordBytes);
                } else {
                    write.data.assign(slot_bytes.begin(),
                                      slot_bytes.end());
                }
                if (const std::uint32_t pi = sc.slot_writer[ix])
                    sc.placed[pi - 1].write_index =
                        sc.data_writes.size();
            }
        }
    };
    emitGroup(false);
    if (safe_placement)
        emitGroup(true);

    if (!env_.persistent()) {
        // Direct (non-atomic) write-back; FullNVM reads each evicted
        // block out of its on-chip NVM stash first.
        Cycle issue =
            ctx.t + kAesLatencyCpuCycles / kCpuCyclesPerNvmCycle;
        if (env_.onchip) {
            // FullNVM: the eviction candidates stream out of the
            // on-chip NVM stash first (bank-pipelined phase).
            Cycle read_phase = issue;
            for (std::size_t i = 0; i < sc.data_writes.size(); ++i)
                read_phase = std::max(read_phase,
                                      env_.onChipRead(issue));
            issue = read_phase;
        }
        // One vectored write per eviction; each span still reports its
        // own DirectWrite boundary, in entry order. The accessOne
        // schedule afterwards runs in the same entry order against the
        // same channel state.
        std::vector<WriteSpan> spans;
        spans.reserve(sc.data_writes.size());
        for (const WpqEntry &write : sc.data_writes)
            spans.push_back({write.addr, write.data.data(),
                             write.data.size()});
        env_.device.writev(spans, Durability::Noisy);

        Cycle proc = issue;
        Cycle done = issue;
        for (const WpqEntry &write : sc.data_writes) {
            proc += env_.params.controller_block_cycles;
            done = std::max(done, env_.device.timing().accessOne(
                                      write.addr, true, proc));
        }
        ctx.t = done;
        return;
    }

    // PS designs: assemble the bundle and run the atomic WPQ protocol.
    // Swapping (rather than moving) the write list keeps both vectors'
    // capacity alive across the ctx/scratch reuse cycle.
    EvictionBundle &bundle = ctx.bundle;
    bundle.data_writes.swap(sc.data_writes);

    // Find where the accessed block became durable in this bundle: its
    // placed data slot, or the shadow region (recursive designs).
    std::size_t target_durable_at = 0;
    for (const Placed &p : sc.placed)
        if (p.addr == addr && !p.is_backup)
            target_durable_at = p.write_index;

    if (!env_.recursive()) {
        if (env_.params.design.persist == PersistMode::DirtyOnly) {
            // Step 5-A: only dirty temporary-PosMap entries of blocks
            // that return to the tree in this round are persisted.
            for (const Placed &p : sc.placed) {
                if (p.is_backup)
                    continue;
                const auto pending = env_.temp.get(p.addr);
                if (!pending)
                    continue;
                PosmapWrite pw;
                pw.after_data = p.write_index;
                pw.entry.addr =
                    env_.persistent_posmap.entryAddr(p.addr);
                const auto record = PersistentPosMap::encodeRecord(
                    *pending, p.epoch);
                pw.entry.data.assign(record.begin(), record.end());
                bundle.posmap_writes.push_back(std::move(pw));
            }
        } else { // NaiveAll
            // One metadata write per path slot, real or dummy. The
            // write-index -> placement map inverts slot_writer so each
            // slot costs one lookup instead of a scan over placed.
            sc.write_placed.assign(bundle.data_writes.size(), 0);
            for (std::size_t p = 0; p < sc.placed.size(); ++p)
                sc.write_placed[sc.placed[p].write_index - 1] =
                    static_cast<std::uint32_t>(p + 1);
            for (std::size_t i = 0; i < bundle.data_writes.size();
                 ++i) {
                PosmapWrite pw;
                pw.after_data = i + 1;
                const std::uint32_t pi = sc.write_placed[i];
                if (pi != 0 && !sc.placed[pi - 1].is_backup) {
                    const Placed &p = sc.placed[pi - 1];
                    const auto pending = env_.temp.get(p.addr);
                    const PathId path =
                        pending ? *pending : p.path;
                    pw.entry.addr =
                        env_.persistent_posmap.entryAddr(p.addr);
                    const auto record = PersistentPosMap::encodeRecord(
                        path, p.epoch);
                    pw.entry.data.assign(record.begin(), record.end());
                } else {
                    // Dummy slot: a scratch metadata write (the Naive
                    // design persists every entry indiscriminately).
                    pw.entry.addr = env_.params.naive_scratch_base +
                                    (i % geo.blocksPerPath()) *
                                        kBlockDataBytes;
                    pw.entry.data.resize(
                        PersistentPosMap::kEntryBytes);
                }
                bundle.posmap_writes.push_back(std::move(pw));
            }
        }
    } else {
        // Recursive: the PoM writes collected at step 2 must not
        // commit before the accessed block is durable.
        std::vector<PosmapWrite> pom_writes(
            bundle.posmap_writes.begin(),
            bundle.posmap_writes.begin() +
                static_cast<std::ptrdiff_t>(ctx.pom_after_data));
        bundle.posmap_writes.clear();

        // Shadow the stash residues (data + PoM) through the data WPQ.
        for (auto &entry :
             env_.shadow_data->snapshotWrites(stash, env_.codec))
            bundle.data_writes.push_back(std::move(entry));
        for (auto &entry : env_.shadow_pom->snapshotWrites(
                 env_.pom->stash(), env_.codec))
            bundle.data_writes.push_back(std::move(entry));

        if (target_durable_at == 0) {
            // Target not placed on the tree: it is in the stash, hence
            // inside the shadow snapshot just appended. Constrain the
            // PoM metadata to commit after the whole snapshot.
            target_durable_at = bundle.data_writes.size();
        }
        for (PosmapWrite &pw : pom_writes) {
            pw.after_data = target_durable_at;
            bundle.posmap_writes.push_back(std::move(pw));
        }
    }

    // Step 5-B/5-C: one (or more) atomic WPQ rounds. Streaming the
    // eviction into the persistence domain costs ~2 entries per NVM
    // cycle on the controller's internal port.
    const Cycle issue =
        ctx.t + kAesLatencyCpuCycles / kCpuCyclesPerNvmCycle +
        (bundle.data_writes.size() + bundle.posmap_writes.size()) / 2;
    Cycle done;
    {
        PSORAM_TRACE_SCOPE("phase", "drain", ctx.access_id);
        const std::uint64_t drain_t0 = obs::hostNowNs();
        done = env_.drainer->persist(bundle, env_.device, issue);
        ctx.drain_host_ns = obs::hostNowNs() - drain_t0;
        ctx.drain_cycles = done - issue;
    }

    // Post-commit bookkeeping: merge committed remaps into the main
    // PosMap (functionally already durable via the drained region
    // writes) and report durable data to the test oracle.
    for (const Placed &p : sc.placed) {
        if (p.is_backup)
            continue;
        if (!env_.recursive())
            env_.temp.erase(p.addr);
        env_.notifyCommit(p.addr, p.data);
    }
    if (env_.recursive()) {
        // Shadowed stash blocks are durable too.
        for (std::size_t i = 0; i < stash.size(); ++i) {
            const StashEntry &e = stash.at(i);
            if (!e.is_backup)
                env_.notifyCommit(e.addr, e.data);
        }
    }
    if (env_.integrity) {
        // Lazily persist the interior Merkle nodes the committed
        // rounds dirtied — quiet writes, off the enumerable crash
        // surface (recovery recomputes and repairs them; only the
        // root record above is load-bearing).
        env_.integrity->streamDirtyNodes(env_.device);
    }
    ctx.t = done;
}

} // namespace psoram
