#include "span.hh"

#include <atomic>
#include <cstdio>

#include "common/json.hh"

namespace pmdb
{
namespace telemetry
{

namespace
{

std::atomic<bool> &
spanFlag()
{
    static std::atomic<bool> flag{false};
    return flag;
}

} // namespace

bool
spansEnabled()
{
    return spanFlag().load(std::memory_order_relaxed);
}

void
setSpansEnabled(bool on)
{
    spanFlag().store(on, std::memory_order_relaxed);
}

SpanBuffer &
SpanBuffer::global()
{
    static SpanBuffer instance;
    return instance;
}

void
SpanBuffer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= capacity_)
    {
        spans_.pop_front();
        ++dropped_;
    }
    spans_.push_back(std::move(span));
}

std::deque<Span>
SpanBuffer::drain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::deque<Span> out;
    out.swap(spans_);
    return out;
}

std::uint64_t
SpanBuffer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
SpanBuffer::setCapacity(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity ? capacity : 1;
    while (spans_.size() > capacity_)
    {
        spans_.pop_front();
        ++dropped_;
    }
}

std::string
SpanBuffer::toChromeTrace()
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter json;
    json.beginObject().key("traceEvents").beginArray();
    for (const Span &span : spans_)
    {
        json.beginObject()
            .field("name", span.name)
            .field("cat", span.category)
            .field("ph", "X")
            .field("pid", 1)
            .field("tid", span.track)
            .field("ts", static_cast<double>(span.startNs) / 1e3, 1)
            .field("dur", static_cast<double>(span.durNs) / 1e3, 1);
        if (!span.arg.empty())
            json.key("args").beginObject().field("detail", span.arg)
                .endObject();
        json.endObject();
    }
    json.endArray()
        .field("displayTimeUnit", "ms")
        .key("otherData")
        .beginObject()
        .field("dropped_spans", dropped_)
        .endObject();
    return json.endObject().str();
}

bool
SpanBuffer::writeChromeTrace(const std::string &path)
{
    const std::string text = toChromeTrace();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace telemetry
} // namespace pmdb
