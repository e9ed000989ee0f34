#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace psoram::obs {

thread_local TraceRecorder::ThreadBuffer *TraceRecorder::tls_buffer_ =
    nullptr;

TraceRecorder &
TraceRecorder::instance()
{
    // Leaked singleton: worker threads may record during static
    // destruction of the harness; the recorder must outlive them all.
    static TraceRecorder *recorder = new TraceRecorder();
    return *recorder;
}

TraceRecorder::ThreadBuffer &
TraceRecorder::threadBuffer()
{
    if (tls_buffer_)
        return *tls_buffer_;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = next_tid_++;
    tls_buffer_ = buffer.get();
    buffers_.push_back(std::move(buffer));
    return *tls_buffer_;
}

void
TraceRecorder::enable(std::size_t ring_capacity)
{
    ring_capacity_.store(ring_capacity == 0 ? 1 : ring_capacity,
                         std::memory_order_relaxed);
    clear();
    enabled_flag_.store(true, std::memory_order_relaxed);
}

void
TraceRecorder::disable()
{
    enabled_flag_.store(false, std::memory_order_relaxed);
}

void
TraceRecorder::clear()
{
    epoch_ns_.store(hostNowNs(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        buffer->ring.clear();
        buffer->head = 0;
        buffer->recorded = 0;
    }
}

void
TraceRecorder::setThreadName(const std::string &name)
{
    ThreadBuffer &buffer = instance().threadBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.name = name;
}

std::uint64_t
TraceRecorder::nowNs()
{
    return hostNowNs() -
           instance().epoch_ns_.load(std::memory_order_relaxed);
}

void
TraceRecorder::push(const TraceEvent &event)
{
    ThreadBuffer &buffer = threadBuffer();
    const std::size_t capacity =
        ring_capacity_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(buffer.mutex);
    TraceEvent stamped = event;
    stamped.tid = buffer.tid;
    if (buffer.ring.size() < capacity) {
        buffer.ring.push_back(stamped);
    } else {
        buffer.ring[buffer.head] = stamped;
        buffer.head = (buffer.head + 1) % capacity;
    }
    ++buffer.recorded;
}

void
TraceRecorder::instant(const char *category, const char *name,
                       std::uint64_t id, const char *arg_name,
                       std::int64_t arg)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'i';
    event.ts_ns = nowNs();
    event.id = id;
    event.arg_name = arg_name;
    event.arg = arg;
    instance().push(event);
}

void
TraceRecorder::complete(const char *category, const char *name,
                        std::uint64_t start_ns, std::uint64_t id,
                        const char *arg_name, std::int64_t arg)
{
    if (!enabled())
        return;
    const std::uint64_t end_ns = nowNs();
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'X';
    event.ts_ns = start_ns;
    event.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
    event.id = id;
    event.arg_name = arg_name;
    event.arg = arg;
    instance().push(event);
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto &buffer : buffers_) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            events.insert(events.end(), buffer->ring.begin(),
                          buffer->ring.end());
        }
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.ts_ns < b.ts_ns;
              });
    return events;
}

std::vector<std::pair<std::uint32_t, std::string>>
TraceRecorder::threadNames() const
{
    std::vector<std::pair<std::uint32_t, std::string>> names;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        if (!buffer->name.empty())
            names.emplace_back(buffer->tid, buffer->name);
    }
    return names;
}

std::uint64_t
TraceRecorder::droppedEvents() const
{
    std::uint64_t dropped = 0;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        if (buffer->recorded > buffer->ring.size())
            dropped += buffer->recorded - buffer->ring.size();
    }
    return dropped;
}

bool
TraceRecorder::writeTo(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write trace to " << path << "\n";
        return false;
    }

    const auto escape = [](const std::string &s) {
        std::string quoted;
        for (const char c : s) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        return quoted;
    };

    // Every recording thread gets a named track so Perfetto never shows
    // a bare numeric tid; threads that never called setThreadName()
    // fall back to "thread-N".
    std::vector<std::pair<std::uint32_t, std::string>> tracks;
    {
        std::lock_guard<std::mutex> lock(registry_mutex_);
        for (const auto &buffer : buffers_) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            tracks.emplace_back(buffer->tid,
                                buffer->name.empty()
                                    ? "thread-" +
                                          std::to_string(buffer->tid)
                                    : buffer->name);
        }
    }

    out << "{\"traceEvents\": [\n";
    bool first = true;
    // Track-name metadata events first (Perfetto reads them anywhere,
    // but leading with them keeps the file skimmable).
    for (const auto &[tid, name] : tracks) {
        if (!first)
            out << ",\n";
        first = false;
        out << "  {\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": 1, \"tid\": " << tid
            << ", \"args\": {\"name\": \"" << escape(name) << "\"}}";
    }
    char buf[64];
    for (const TraceEvent &event : snapshot()) {
        if (!first)
            out << ",\n";
        first = false;
        out << "  {\"name\": \"" << event.name << "\", \"cat\": \""
            << event.category << "\", \"ph\": \"" << event.phase
            << "\", \"pid\": 1, \"tid\": " << event.tid;
        // Chrome trace timestamps are microseconds; keep ns precision.
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(event.ts_ns) / 1000.0);
        out << ", \"ts\": " << buf;
        if (event.phase == 'X') {
            std::snprintf(buf, sizeof(buf), "%.3f",
                          static_cast<double>(event.dur_ns) / 1000.0);
            out << ", \"dur\": " << buf;
        }
        if (event.phase == 'i')
            out << ", \"s\": \"t\"";
        if (event.id != 0 || event.arg_name) {
            out << ", \"args\": {";
            bool first_arg = true;
            if (event.id != 0) {
                out << "\"id\": " << event.id;
                first_arg = false;
            }
            if (event.arg_name) {
                if (!first_arg)
                    out << ", ";
                out << "\"" << event.arg_name << "\": " << event.arg;
            }
            out << "}";
        }
        out << "}";
    }
    out << "\n]}\n";
    return out.good();
}

} // namespace psoram::obs
