/**
 * @file
 * Catalog of the evaluated design variants and the Table 3 config dump
 * shared by the bench binaries.
 */

#ifndef PSORAM_SIM_DESIGNS_HH
#define PSORAM_SIM_DESIGNS_HH

#include <ostream>
#include <vector>

#include "common/config.hh"
#include "psoram/design.hh"
#include "sim/system.hh"

namespace psoram {

/** The non-recursive designs of Fig. 5(a)/6 in paper order. */
std::vector<DesignKind> nonRecursiveDesigns();

/** The recursive designs of Fig. 5(b). */
std::vector<DesignKind> recursiveDesigns();

/** All seven evaluated designs. */
std::vector<DesignKind> allDesigns();

/**
 * Build a SystemConfig from command-line style overrides. Recognized
 * keys: height, z, stash, wpq, channels, banks, seed, cipher
 * (aes|fast), tech (pcm|stt), integrity (off|mac|tree), backend
 * (memory|file|disk), backingfile, cachepages, pinpages, flightrec,
 * flightrecords.
 */
SystemConfig configFromOverrides(const Config &overrides,
                                 DesignKind design);

/** Print the Table 3 style configuration banner. */
void printConfigBanner(std::ostream &os, const SystemConfig &config,
                       std::uint64_t instructions);

} // namespace psoram

#endif // PSORAM_SIM_DESIGNS_HH
