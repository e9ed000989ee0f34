#include "sim/designs.hh"

#include "common/log.hh"

namespace psoram {

std::vector<DesignKind>
nonRecursiveDesigns()
{
    return {DesignKind::Baseline, DesignKind::FullNvm,
            DesignKind::FullNvmStt, DesignKind::NaivePsOram,
            DesignKind::PsOram};
}

std::vector<DesignKind>
recursiveDesigns()
{
    return {DesignKind::RcrBaseline, DesignKind::RcrPsOram};
}

std::vector<DesignKind>
allDesigns()
{
    std::vector<DesignKind> designs = nonRecursiveDesigns();
    for (const DesignKind kind : recursiveDesigns())
        designs.push_back(kind);
    return designs;
}

SystemConfig
configFromOverrides(const Config &overrides, DesignKind design)
{
    SystemConfig config;
    config.design = design;
    config.tree_height =
        static_cast<unsigned>(overrides.getUint("height", 23));
    config.bucket_slots = static_cast<unsigned>(overrides.getUint("z", 4));
    config.stash_capacity =
        static_cast<std::size_t>(overrides.getUint("stash", 200));
    config.wpq_entries =
        static_cast<std::size_t>(overrides.getUint("wpq", 96));
    config.channels =
        static_cast<unsigned>(overrides.getUint("channels", 1));
    config.banks_per_channel =
        static_cast<unsigned>(overrides.getUint("banks", 8));
    config.seed = overrides.getUint("seed", 1);

    const std::string cipher = overrides.getString("cipher", "fast");
    if (cipher == "aes")
        config.cipher = CipherKind::Aes128Ctr;
    else if (cipher == "fast")
        config.cipher = CipherKind::FastStream;
    else
        PSORAM_FATAL("unknown cipher '", cipher, "' (aes|fast)");

    const std::string tech = overrides.getString("tech", "pcm");
    if (tech == "pcm")
        config.main_tech = NvmTech::PCM;
    else if (tech == "stt")
        config.main_tech = NvmTech::STTRAM;
    else
        PSORAM_FATAL("unknown tech '", tech, "' (pcm|stt)");

    const std::string integrity = overrides.getString("integrity", "off");
    if (!parseIntegrityMode(integrity, config.integrity))
        PSORAM_FATAL("unknown integrity '", integrity,
                     "' (off|mac|tree)");

    const std::string backend = overrides.getString("backend", "memory");
    if (backend == "memory")
        config.backend = BackendKind::Memory;
    else if (backend == "disk")
        config.backend = BackendKind::Disk;
    else if (backend == "file")
        PSORAM_FATAL("backend=file is gone: use backend=disk (a disk "
                     "tree whose cachepages covers the tree is in core)");
    else
        PSORAM_FATAL("unknown backend '", backend, "' (memory|disk)");
    config.backing_file = overrides.getString("backingfile", "");
    config.disk_cache_pages = static_cast<std::size_t>(
        overrides.getUint("cachepages", config.disk_cache_pages));
    config.disk_pinned_pages = static_cast<std::size_t>(
        overrides.getUint("pinpages", config.disk_pinned_pages));
    config.flight_recorder = overrides.getUint("flightrec", 0) != 0;
    config.flight_records = static_cast<std::size_t>(
        overrides.getUint("flightrecords", config.flight_records));
    return config;
}

void
printConfigBanner(std::ostream &os, const SystemConfig &config,
                  std::uint64_t instructions)
{
    const TreeGeometry geo{config.tree_height, config.bucket_slots};
    os << "# Configuration (Table 3)\n"
       << "#   core: in-order, 3.2 GHz; L1 32K/32K 2-way (2 cyc); "
          "L2 1MB 8-way (20 cyc)\n"
       << "#   ORAM: L=" << config.tree_height << ", Z="
       << config.bucket_slots << ", 64B blocks, "
       << geo.dataBlocks(0.5) << " logical blocks (50% util), stash "
       << config.stash_capacity << ", C_tPos 96\n"
       << "#   NVM: " << nvmTechName(config.main_tech) << " 400 MHz, "
       << config.channels << " channel(s) x "
       << config.banks_per_channel << " banks, WPQs "
       << config.wpq_entries << "-entry\n"
       << "#   trace: " << instructions
       << " instructions per workload (simpoint-style sample)\n";
}

} // namespace psoram
