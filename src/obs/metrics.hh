/**
 * @file
 * MetricsExporter: on-demand JSON snapshots of registered StatGroups.
 *
 * Components register their StatGroup (non-owning pointer; the group
 * must outlive every snapshot the exporter takes). A snapshot walks
 * every group under the group's own locking, so exporting is safe
 * while engine workers keep mutating the underlying counters and
 * distributions. The document is
 *
 *   {"groups": [{"name": ..., "counters": {...},
 *                "distributions": {"x": {"count","sum","min","max",
 *                                         "mean"}}}]}
 */

#ifndef PSORAM_OBS_METRICS_HH
#define PSORAM_OBS_METRICS_HH

#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace psoram::obs {

class MetricsExporter
{
  public:
    MetricsExporter() = default;

    MetricsExporter(const MetricsExporter &) = delete;
    MetricsExporter &operator=(const MetricsExporter &) = delete;

    /** Register @p group (non-owning; must outlive registration). */
    void addGroup(const StatGroup *group);

    std::size_t numGroups() const;

    /** Serialize a snapshot of every registered group. */
    void writeJson(std::ostream &os) const;

    /** writeJson() into the file at @p path.
     *  @return false (with a warning on stderr) on I/O failure */
    bool writeTo(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<const StatGroup *> groups_;
};

} // namespace psoram::obs

#endif // PSORAM_OBS_METRICS_HH
