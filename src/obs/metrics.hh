/**
 * @file
 * MetricsExporter: on-demand snapshots of registered StatGroups to JSON
 * or Prometheus text exposition format.
 *
 * Components register their StatGroup (non-owning pointer; the group
 * must outlive every snapshot the exporter takes). A snapshot walks
 * every group under the group's own locking, so exporting is safe
 * while engine workers keep mutating the underlying counters and
 * distributions.
 *
 * Output selection is by extension: a path ending in ".prom" or ".txt"
 * gets the Prometheus text format, anything else the JSON document
 *
 *   {"groups": [{"name": ..., "counters": {...},
 *                "distributions": {"x": {"count","sum","min","max",
 *                                         "mean"}}}]}
 *
 * Two push modes exist for harnesses that cannot call writeTo() at a
 * convenient time: startPeriodic() runs a background dump thread, and
 * dumpAtExit() registers a std::atexit hook on the global() exporter
 * (benches and torture_crash use it so even an aborted run leaves a
 * metrics file behind). Groups registered for either must effectively
 * live for the program's remaining lifetime.
 */

#ifndef PSORAM_OBS_METRICS_HH
#define PSORAM_OBS_METRICS_HH

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"

namespace psoram::obs {

class MetricsExporter
{
  public:
    MetricsExporter() = default;
    ~MetricsExporter();

    MetricsExporter(const MetricsExporter &) = delete;
    MetricsExporter &operator=(const MetricsExporter &) = delete;

    /** Process-wide exporter (never destroyed; for atexit dumps). */
    static MetricsExporter &global();

    /** Register @p group (non-owning; must outlive registration). */
    void addGroup(const StatGroup *group);

    std::size_t numGroups() const;

    /** @{ Serialize a snapshot of every registered group. */
    void writeJson(std::ostream &os) const;
    void writePrometheus(std::ostream &os) const;
    /** Format by extension: ".prom"/".txt" -> Prometheus, else JSON.
     *  @return false (with a warning on stderr) on I/O failure */
    bool writeTo(const std::string &path) const;
    /** @} */

    /** Dump to @p path every @p every until stopPeriodic() (or
     *  destruction). Restarting replaces the previous schedule. */
    void startPeriodic(const std::string &path,
                       std::chrono::milliseconds every);
    void stopPeriodic();

    /** Register a std::atexit dump of global() to @p path (last call
     *  wins). Groups registered on global() must stay alive to exit. */
    static void dumpAtExit(const std::string &path);

  private:
    std::vector<StatGroup::Snapshot> collect() const;

    mutable std::mutex mutex_;
    std::vector<const StatGroup *> groups_;

    /** @{ Periodic dump thread. */
    std::mutex periodic_mutex_;
    std::condition_variable periodic_cv_;
    bool periodic_stop_ = false;
    std::thread periodic_thread_;
    /** @} */
};

} // namespace psoram::obs

#endif // PSORAM_OBS_METRICS_HH
