#include "metrics.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/json.hh"

namespace pmdb
{
namespace telemetry
{

namespace
{

bool
envDisabled()
{
    const char *env = std::getenv("PMDB_TELEMETRY");
    if (!env)
        return false;
    return !std::strcmp(env, "0") || !std::strcmp(env, "off") ||
           !std::strcmp(env, "false");
}

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag{!envDisabled()};
    return flag;
}

} // namespace

bool
enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::size_t
Counter::nextStripe()
{
    static std::atomic<std::size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed) %
           counterStripes;
}

std::uint64_t
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Integer rank avoids float accumulation: the smallest rank r with
    // r >= q * count, at least 1.
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count));
    if (static_cast<double>(rank) < q * static_cast<double>(count))
        ++rank;
    if (rank == 0)
        rank = 1;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < histogramBuckets; ++b)
    {
        cumulative += buckets[b];
        if (cumulative >= rank)
            return histogramBucketBound(b);
    }
    return histogramBucketBound(histogramBuckets - 1);
}

void
MetricsSnapshot::addCounter(std::string name, std::uint64_t value)
{
    MetricSample sample;
    sample.name = std::move(name);
    sample.kind = MetricSample::Kind::Counter;
    sample.value = static_cast<std::int64_t>(value);
    samples.push_back(std::move(sample));
}

void
MetricsSnapshot::addGauge(std::string name, std::int64_t value)
{
    MetricSample sample;
    sample.name = std::move(name);
    sample.kind = MetricSample::Kind::Gauge;
    sample.value = value;
    samples.push_back(std::move(sample));
}

void
MetricsSnapshot::addHistogram(std::string name, HistogramSnapshot hist)
{
    MetricSample sample;
    sample.name = std::move(name);
    sample.kind = MetricSample::Kind::Histogram;
    sample.hist = hist;
    samples.push_back(std::move(sample));
}

void
MetricsSnapshot::sortByName()
{
    std::sort(samples.begin(), samples.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.name < b.name;
              });
}

const MetricSample *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricSample &sample : samples)
        if (sample.name == name)
            return &sample;
    return nullptr;
}

namespace
{

const char *
kindName(MetricSample::Kind kind)
{
    switch (kind)
    {
    case MetricSample::Kind::Counter:
        return "counter";
    case MetricSample::Kind::Gauge:
        return "gauge";
    case MetricSample::Kind::Histogram:
        return "histogram";
    }
    return "counter";
}

} // namespace

std::string
MetricsSnapshot::toJson() const
{
    JsonWriter json;
    json.beginObject()
        .field("schema", schemaVersion)
        .key("metrics")
        .beginArray();
    for (const MetricSample &sample : samples)
    {
        json.beginObject()
            .field("name", sample.name)
            .field("type", kindName(sample.kind));
        if (sample.kind == MetricSample::Kind::Histogram)
        {
            json.field("count", sample.hist.count)
                .field("sum", sample.hist.sum)
                .key("buckets")
                .beginArray();
            for (const std::uint64_t bucket : sample.hist.buckets)
                json.value(bucket);
            json.endArray();
        }
        else
        {
            json.field("value", sample.value);
        }
        json.endObject();
    }
    return json.endArray().endObject().str();
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Counter> &slot = counters_[name];
    if (!slot)
        slot.reset(new Counter());
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Histogram> &slot = histograms_[name];
    if (!slot)
        slot.reset(new Histogram());
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto &entry : counters_)
        snap.addCounter(entry.first, entry.second->value());
    for (const auto &entry : histograms_)
        snap.addHistogram(entry.first, entry.second->snapshot());
    snap.sortByName();
    return snap;
}

void
Registry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : counters_)
        entry.second->reset();
    for (auto &entry : histograms_)
        entry.second->reset();
}

} // namespace telemetry
} // namespace pmdb
