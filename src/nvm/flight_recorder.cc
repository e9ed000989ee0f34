#include "nvm/flight_recorder.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/crc32.hh"
#include "obs/trace.hh"

namespace psoram {

namespace {

std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
storeLe64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

void
storeLe32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

bool
allZero(const std::uint8_t *p, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        if (p[i] != 0)
            return false;
    return true;
}

} // namespace

const char *
flightEventKindName(FlightEventKind kind)
{
    switch (kind) {
      case FlightEventKind::RoundStart:
        return "round-start";
      case FlightEventKind::RoundCommit:
        return "round-commit";
      case FlightEventKind::DrainWatermark:
        return "drain-watermark";
      case FlightEventKind::Checkpoint:
        return "checkpoint";
      case FlightEventKind::RecoveryStart:
        return "recovery-start";
      case FlightEventKind::RecoveryDone:
        return "recovery-done";
    }
    return "?";
}

FlightRecorder::FlightRecorder(Addr base, std::size_t num_records)
    : base_(base), num_records_(num_records)
{
}

void
FlightRecorder::attach(MemoryBackend &device)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Decoded prior = decode(device, base_, num_records_);
    if (prior.header_valid) {
        // Reopen: keep the previous run's ring intact (it is the crash
        // evidence) and append after its tail. Torn slots advance the
        // counter too — their seq is unknown, so never reuse it.
        next_seq_ = prior.events.empty()
            ? prior.torn_records
            : prior.events.back().seq + 1 + prior.torn_records;
        return;
    }
    std::uint8_t header[kHeaderBytes] = {};
    storeLe64(header, kMagic);
    storeLe32(header + 8, static_cast<std::uint32_t>(num_records_));
    storeLe32(header + 12, static_cast<std::uint32_t>(kRecordBytes));
    const std::uint8_t zero[kRecordBytes] = {};
    std::vector<WriteSpan> spans;
    spans.push_back(WriteSpan{base_, header, kHeaderBytes});
    for (std::size_t i = 0; i < num_records_; ++i)
        spans.push_back(WriteSpan{base_ + kHeaderBytes + i * kRecordBytes,
                                  zero, kRecordBytes});
    device.writevQuiet(spans);
    next_seq_ = 0;
}

void
FlightRecorder::record(MemoryBackend &device, FlightEventKind kind,
                       std::uint64_t arg0, std::uint64_t arg1,
                       std::uint64_t arg2)
{
    std::uint8_t rec[kRecordBytes] = {};
    std::uint64_t seq;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        seq = next_seq_++;
    }
    storeLe32(rec + 4, static_cast<std::uint32_t>(kind));
    storeLe64(rec + 8, seq);
    storeLe64(rec + 16, obs::hostNowNs());
    storeLe64(rec + 24, arg0);
    storeLe64(rec + 32, arg1);
    storeLe64(rec + 40, arg2);
    storeLe32(rec, crc32(rec + 4, kCrcCoverBytes - 4));
    const Addr slot =
        base_ + kHeaderBytes + (seq % num_records_) * kRecordBytes;
    const WriteSpan span{slot, rec, kRecordBytes};
    device.writevQuiet(&span, 1);
}

std::uint64_t
FlightRecorder::nextSeq() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_seq_;
}

FlightRecorder::Decoded
FlightRecorder::decode(const MemoryBackend &device, Addr base,
                       std::size_t num_records)
{
    Decoded out;
    std::uint8_t header[kHeaderBytes];
    device.readBytes(base, header, sizeof(header));
    out.header_valid =
        loadLe64(header) == kMagic &&
        loadLe32(header + 8) == num_records &&
        loadLe32(header + 12) == kRecordBytes;
    if (!out.header_valid)
        return out;

    std::uint8_t rec[kRecordBytes];
    for (std::size_t i = 0; i < num_records; ++i) {
        device.readBytes(base + kHeaderBytes + i * kRecordBytes, rec,
                         sizeof(rec));
        if (allZero(rec, sizeof(rec)))
            continue; // never written
        if (loadLe32(rec) != crc32(rec + 4, kCrcCoverBytes - 4)) {
            ++out.torn_records;
            continue;
        }
        FlightEvent ev;
        ev.kind = static_cast<FlightEventKind>(loadLe32(rec + 4));
        ev.seq = loadLe64(rec + 8);
        ev.host_ns = loadLe64(rec + 16);
        ev.arg0 = loadLe64(rec + 24);
        ev.arg1 = loadLe64(rec + 32);
        ev.arg2 = loadLe64(rec + 40);
        out.events.push_back(ev);
    }
    std::sort(out.events.begin(), out.events.end(),
              [](const FlightEvent &a, const FlightEvent &b) {
                  return a.seq < b.seq;
              });
    return out;
}

std::string
FlightRecorder::format(const Decoded &decoded)
{
    std::ostringstream os;
    if (!decoded.header_valid) {
        os << "flight recorder: no valid ring header (region virgin or "
              "overwritten)\n";
        return os.str();
    }
    os << "flight recorder: " << decoded.events.size()
       << " event(s) decoded, " << decoded.torn_records
       << " torn record(s) skipped\n";
    const std::uint64_t t0 =
        decoded.events.empty() ? 0 : decoded.events.front().host_ns;
    for (const FlightEvent &ev : decoded.events) {
        os << "  seq=" << ev.seq << " +"
           << (ev.host_ns >= t0 ? (ev.host_ns - t0) / 1000 : 0) << "us "
           << flightEventKindName(ev.kind) << " args=[" << ev.arg0
           << ", " << ev.arg1 << ", " << ev.arg2 << "]\n";
    }
    return os.str();
}

} // namespace psoram
