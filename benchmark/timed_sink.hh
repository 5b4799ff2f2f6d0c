/**
 * @file
 * TimedSink: the traced run's probe at the trace → detector (or trace
 * → service client) boundary. It wraps any TraceSink, forwards every
 * virtual, and times a sample of the calls.
 *
 * Timing every call would double the cost of the cheapest events, so
 * handle() is timed for 1 in 1024 events, picked by a hash of the
 * event's sequence number: a pseudo-random 1 in 1024 of each event kind,
 * which periodic event patterns cannot alias with. An event that is not
 * picked costs one multiply and the forwarded call; the sink writes
 * nothing for it, so call counts are estimated as 1024 per timed call.
 * The event count is exact: the highest sequence number seen
 * (ProgramEnd's).
 *
 * The rate is set by memcached_mt, where every call runs inside the
 * runtime's contended sink mutex. Paired traced/untraced passes there
 * (36-48 pairs each) put the tracing overhead at ~4% when 1 in 64
 * events was timed, ~2% at 1 in 256 and ~1% at 1 in 1024; forwarding
 * alone cost nothing measurable. A timed call adds two clock reads
 * (~37 ns each on a 4-vCPU Xeon VM) to the critical section.
 *
 * ProgramEnd (where the detector finalizes) is rare and expensive, so
 * every one is timed, as is every handleBatch(). Fences are sampled like
 * the rest, for the same reason.
 *
 * Timed calls also become spans, capped per sink, that are held here
 * and handed to telemetry::SpanBuffer when the sink is destroyed. The
 * buffer keeps only its newest spans, and on pmdbd_mix the daemon
 * records ~65K in one session; spans recorded as they happen would be
 * pushed out before the session ends.
 *
 * Calls must be serialized, as PmRuntime's dispatch guarantees (its
 * sink mutex in thread-safe mode).
 */

#ifndef PMDB_BENCHMARK_TIMED_SINK_HH
#define PMDB_BENCHMARK_TIMED_SINK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "telemetry/span.hh"
#include "trace/sink.hh"

namespace pmdb
{
namespace bench
{

class TimedSink : public TraceSink
{
  public:
    /** handle() is timed for 1 in 2^sampleShift events. */
    static constexpr unsigned sampleShift = 10;
    /** Sink-call spans one TimedSink records at most. */
    static constexpr std::size_t maxSpans = 256;

    /** Wrap @p inner; spans go on Perfetto row @p track. */
    TimedSink(TraceSink &inner, std::uint64_t track)
        : inner_(inner), track_(track)
    {
    }

    /** Hands the held spans to telemetry::SpanBuffer. */
    ~TimedSink() override;

    TimedSink(const TimedSink &) = delete;
    TimedSink &operator=(const TimedSink &) = delete;

    void attached(const NameTable &names) override
    {
        inner_.attached(names);
    }
    void handle(const Event &event) override;
    void handleBatch(const Event *events, std::size_t count) override;
    bool isDbiBased() const override { return inner_.isDbiBased(); }
    bool requiresSynchronousDelivery() const override
    {
        return inner_.requiresSynchronousDelivery();
    }

    /** Durations (ns) of the timed handle() calls for @p kind. */
    const std::vector<double> &samples(EventKind kind) const
    {
        return kinds_[static_cast<std::size_t>(kind)].samples;
    }

    /**
     * Estimated time inside the wrapped sink, ns: the sampled handle()
     * time scaled by the sampling rate, plus every ProgramEnd and every
     * batch.
     */
    double busyNs() const;

    /** Events delivered, through handle() and handleBatch(). */
    std::uint64_t events() const { return lastSeq_; }

    /** Calls into the sink (handle() plus handleBatch()). */
    std::uint64_t calls() const
    {
        return events() - batchEvents_ + batchCalls_;
    }

  private:
    struct KindStats
    {
        std::uint64_t timedNs = 0;
        std::vector<double> samples;
    };

    void recordSpan(const char *name, std::uint64_t start,
                    std::uint64_t dur);

    TraceSink &inner_;
    std::uint64_t track_;
    std::array<KindStats, 16> kinds_;
    /** Highest event sequence number seen: the events delivered. */
    std::uint64_t lastSeq_ = 0;
    std::uint64_t batchCalls_ = 0;
    std::uint64_t batchEvents_ = 0;
    std::uint64_t batchNs_ = 0;
    std::vector<telemetry::Span> spans_;
};

} // namespace bench
} // namespace pmdb

#endif // PMDB_BENCHMARK_TIMED_SINK_HH
