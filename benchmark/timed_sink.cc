#include "timed_sink.hh"

#include <algorithm>
#include <string>

namespace pmdb
{
namespace bench
{

TimedSink::~TimedSink()
{
    for (telemetry::Span &span : spans_)
        telemetry::SpanBuffer::global().record(std::move(span));
}

void
TimedSink::handle(const Event &event)
{
    // Fibonacci hashing: the top bits of seq * 2^64/phi are spread
    // evenly over consecutive sequence numbers.
    const bool picked =
        ((event.seq * 0x9e3779b97f4a7c15ull) >> (64 - sampleShift)) == 0;
    if (!picked && event.kind != EventKind::ProgramEnd) {
        inner_.handle(event);
        return;
    }
    const std::uint64_t start = telemetry::nowNs();
    inner_.handle(event);
    const std::uint64_t dur = telemetry::nowNs() - start;
    KindStats &kind = kinds_[static_cast<std::size_t>(event.kind)];
    kind.timedNs += dur;
    kind.samples.push_back(static_cast<double>(dur));
    lastSeq_ = std::max(lastSeq_, event.seq);
    recordSpan(toString(event.kind), start, dur);
}

void
TimedSink::handleBatch(const Event *events, std::size_t count)
{
    const std::uint64_t start = telemetry::nowNs();
    inner_.handleBatch(events, count);
    const std::uint64_t dur = telemetry::nowNs() - start;
    ++batchCalls_;
    batchEvents_ += count;
    batchNs_ += dur;
    if (count)
        lastSeq_ = std::max(lastSeq_, events[count - 1].seq);
    recordSpan("batch", start, dur);
}

void
TimedSink::recordSpan(const char *name, std::uint64_t start,
                      std::uint64_t dur)
{
    if (spans_.size() >= maxSpans || !telemetry::spansEnabled())
        return;
    telemetry::Span span;
    span.name = std::string("sink.") + name;
    span.category = "bench";
    span.startNs = start;
    span.durNs = dur;
    span.track = track_;
    span.arg = "parent=workload.run";
    spans_.push_back(std::move(span));
}

double
TimedSink::busyNs() const
{
    double total = static_cast<double>(batchNs_);
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
        const bool every =
            k == static_cast<std::size_t>(EventKind::ProgramEnd);
        total += static_cast<double>(kinds_[k].timedNs) *
                 (every ? 1.0 : static_cast<double>(1u << sampleShift));
    }
    return total;
}

} // namespace bench
} // namespace pmdb
