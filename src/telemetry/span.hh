/**
 * @file
 * Pipeline span tracing: named, timestamped intervals recorded into a
 * bounded in-process buffer and exported as Chrome/Perfetto
 * trace-event JSON ("X" complete events, ts/dur in microseconds).
 *
 * Spans are off by default (metrics are the always-on layer); pmdbd
 * --trace-out and pmdb_run --trace-out enable them for a run and write
 * the trace at exit. Each span carries a track id — the session id on
 * the daemon, the thread on a client — so Perfetto lays the pipeline
 * stages (client publish → ring residency → rule evaluation →
 * verdict) out as per-session rows.
 */

#ifndef PMDB_TELEMETRY_SPAN_HH
#define PMDB_TELEMETRY_SPAN_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "metrics.hh"

namespace pmdb
{
namespace telemetry
{

/** Span recording switch, independent of the metrics switch. */
bool spansEnabled();
void setSpansEnabled(bool on);

/** One completed interval on a track. */
struct Span
{
    /** Stage name ("ring.residency", "session.rule_eval", ...). */
    std::string name;
    /** Trace-event category ("client", "pmdbd", "detector"). */
    std::string category;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    /** Perfetto row: session id on the daemon, thread id on a client. */
    std::uint64_t track = 0;
    /** Optional single argument rendered into the event's "args"
     *  ("events=512"). */
    std::string arg;
};

/**
 * Bounded global span sink. When full the oldest spans are dropped
 * (and counted) — tracing a long run keeps the tail, which is the part
 * being inspected.
 */
class SpanBuffer
{
  public:
    static SpanBuffer &global();

    void record(Span span);

    /** Copy out the buffered spans (test + export path). */
    std::deque<Span> drain();

    std::uint64_t dropped() const;

    void setCapacity(std::size_t capacity);

    /** Render the buffer as Chrome trace-event JSON. */
    std::string toChromeTrace();

    /** Write toChromeTrace() to @p path; false on I/O failure. */
    bool writeChromeTrace(const std::string &path);

  private:
    SpanBuffer() = default;

    mutable std::mutex mutex_;
    std::deque<Span> spans_;
    std::size_t capacity_ = 65536;
    std::uint64_t dropped_ = 0;
};

/** RAII span: times construction → destruction onto the buffer. */
class SpanTimer
{
  public:
    SpanTimer(const char *name, const char *category,
              std::uint64_t track, std::string arg = std::string())
        : active_(spansEnabled())
    {
        if (!active_)
            return;
        span_.name = name;
        span_.category = category;
        span_.track = track;
        span_.arg = std::move(arg);
        span_.startNs = nowNs();
    }

    ~SpanTimer()
    {
        if (!active_)
            return;
        span_.durNs = nowNs() - span_.startNs;
        SpanBuffer::global().record(std::move(span_));
    }

    SpanTimer(const SpanTimer &) = delete;
    SpanTimer &operator=(const SpanTimer &) = delete;

  private:
    bool active_;
    Span span_;
};

} // namespace telemetry
} // namespace pmdb

#endif // PMDB_TELEMETRY_SPAN_HH
