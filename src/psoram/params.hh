/**
 * @file
 * PS-ORAM controller parameter block and the small shared types the
 * controller, the protocol phases, and the engine frontend all use.
 * Split out of psoram_controller.hh so the phase components do not
 * depend on the controller class.
 */

#ifndef PSORAM_PSORAM_PARAMS_HH
#define PSORAM_PSORAM_PARAMS_HH

#include <array>
#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "crypto/aes128.hh"
#include "oram/block.hh"
#include "oram/integrity.hh"
#include "oram/tree.hh"
#include "psoram/design.hh"

namespace psoram {

struct PsOramParams
{
    TreeLayout data_layout;
    /** Logical block address space. */
    std::uint64_t num_blocks;
    std::size_t stash_capacity = 200;
    Aes128::Key key{};
    CipherKind cipher = CipherKind::FastStream;
    std::uint64_t seed = 1;
    DesignOptions design;

    /** @{ NVM region bases; sim::SystemBuilder lays these out. */
    Addr posmap_region_base = 0;  ///< trusted PosMap region (non-rcr)
    Addr pom_tree_base = 0;       ///< PosMap ORAM tree (recursive)
    Addr pom_pos_region_base = 0; ///< persisted PoM positions (Rcr-PS)
    Addr shadow_data_base = 0;    ///< data stash shadow (Rcr-PS)
    Addr shadow_pom_base = 0;     ///< PoM stash shadow (Rcr-PS)
    Addr naive_scratch_base = 0;  ///< Naive all-entry metadata scratch
    /** @} */

    /** @{ Integrity subsystem (oram/integrity.hh). Non-Off requires a
     *  persistent non-recursive design and
     *  data_layout.record_bytes == kIntegrityRecordBytes; sim's
     *  systemParams() sets all of it consistently. */
    IntegrityMode integrity = IntegrityMode::Off;
    Addr integrity_root_base = 0; ///< per-round root record
    Addr merkle_region_base = 0;  ///< persisted interior-node array
    /** @} */

    /** @{ Persistent flight recorder (nvm/flight_recorder.hh). 0 base
     *  disables it — the reserved region is laid out last, so every
     *  other region base is identical with the recorder on or off. */
    Addr flight_recorder_base = 0;
    std::size_t flight_recorder_records = 0;
    /** @} */

    /** PoM tree height; 0 derives it from num_blocks (recursive). */
    unsigned pom_height = 0;
    std::size_t pom_stash_capacity = 64;

    /** Banks of the on-chip NVM buffer (FullNVM designs). */
    unsigned onchip_banks = 8;
    /** Controller pipeline occupancy per block (decrypt/steer). */
    Cycle controller_block_cycles = 2;
};

/** Traffic as the paper counts it: NVM transactions (Fig. 6). */
struct TrafficCounts
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

/**
 * Observer for durable commits: invoked once a block's data has become
 * crash-recoverable (placed on the tree in a committed round, or written
 * to the shadow region). Test oracles use this to track the expected
 * post-recovery value of every address.
 */
using CommitObserver =
    std::function<void(BlockAddr, const std::array<std::uint8_t,
                                                   kBlockDataBytes> &)>;

} // namespace psoram

#endif // PSORAM_PSORAM_PARAMS_HH
