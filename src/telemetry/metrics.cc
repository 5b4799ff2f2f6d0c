#include "metrics.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

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

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const MetricSample &incoming : other.samples)
    {
        MetricSample *mine = nullptr;
        for (MetricSample &candidate : samples)
            if (candidate.name == incoming.name &&
                candidate.kind == incoming.kind)
            {
                mine = &candidate;
                break;
            }
        if (!mine)
        {
            samples.push_back(incoming);
            continue;
        }
        if (incoming.kind == MetricSample::Kind::Histogram)
            mine->hist.merge(incoming.hist);
        else
            mine->value += incoming.value;
    }
    sortByName();
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

/**
 * Split "name{label=\"v\"}" into the bare name and the label block;
 * the Prometheus renderer keeps them separate so the underscore
 * translation never touches label values.
 */
void
splitLabels(const std::string &name, std::string *bare,
            std::string *labels)
{
    std::size_t brace = name.find('{');
    if (brace == std::string::npos)
    {
        *bare = name;
        labels->clear();
        return;
    }
    *bare = name.substr(0, brace);
    *labels = name.substr(brace);
    if (!labels->empty() && labels->back() == '}')
        labels->pop_back();
    if (!labels->empty() && labels->front() == '{')
        labels->erase(labels->begin());
}

std::string
promName(const std::string &bare)
{
    std::string out = "pmdb_";
    for (char c : bare)
    {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out.push_back(c);
        else
            out.push_back('_');
    }
    return out;
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

std::string
MetricsSnapshot::toPrometheus() const
{
    std::ostringstream out;
    std::string lastTyped;
    for (const MetricSample &sample : samples)
    {
        std::string bare, labels;
        splitLabels(sample.name, &bare, &labels);
        const std::string name = promName(bare);
        if (sample.kind == MetricSample::Kind::Histogram)
        {
            if (lastTyped != name)
            {
                out << "# TYPE " << name << " histogram\n";
                lastTyped = name;
            }
            std::uint64_t cumulative = 0;
            for (std::size_t b = 0; b < histogramBuckets; ++b)
            {
                cumulative += sample.hist.buckets[b];
                if (sample.hist.buckets[b] == 0 &&
                    b + 1 < histogramBuckets)
                    continue;
                out << name << "_bucket{";
                if (!labels.empty())
                    out << labels << ",";
                if (b + 1 < histogramBuckets)
                    out << "le=\"" << histogramBucketBound(b) << "\"}";
                else
                    out << "le=\"+Inf\"}";
                out << " " << cumulative << "\n";
            }
            out << name << "_sum";
            if (!labels.empty())
                out << "{" << labels << "}";
            out << " " << sample.hist.sum << "\n";
            out << name << "_count";
            if (!labels.empty())
                out << "{" << labels << "}";
            out << " " << sample.hist.count << "\n";
        }
        else
        {
            if (lastTyped != name)
            {
                out << "# TYPE " << name << " "
                    << (sample.kind == MetricSample::Kind::Gauge
                            ? "gauge"
                            : "counter")
                    << "\n";
                lastTyped = name;
            }
            out << name;
            if (!labels.empty())
                out << "{" << labels << "}";
            out << " " << sample.value << "\n";
        }
    }
    return out.str();
}

namespace
{

/**
 * Minimal recursive-descent parser for exactly the JSON this file
 * emits (objects, arrays, strings with the escapes we write, and
 * integers). Not a general JSON library — pmdb_stat links only
 * pmdb_telemetry and must parse daemon snapshots without one.
 */
struct JsonCursor
{
    const char *p;
    const char *end;
    std::string error;

    explicit JsonCursor(const std::string &text)
        : p(text.data()), end(text.data() + text.size())
    {
    }

    void
    skipSpace()
    {
        while (p < end &&
               std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    }

    bool
    fail(const std::string &message)
    {
        if (error.empty())
            error = message;
        return false;
    }

    bool
    expect(char c)
    {
        skipSpace();
        if (p >= end || *p != c)
            return fail(std::string("expected '") + c + "'");
        ++p;
        return true;
    }

    bool
    peek(char c)
    {
        skipSpace();
        return p < end && *p == c;
    }

    bool
    parseString(std::string *out)
    {
        if (!expect('"'))
            return false;
        out->clear();
        while (p < end && *p != '"')
        {
            if (*p == '\\' && p + 1 < end)
            {
                ++p;
                switch (*p)
                {
                case 'n':
                    out->push_back('\n');
                    break;
                case 't':
                    out->push_back('\t');
                    break;
                case 'u':
                {
                    // JsonWriter writes \u00XX, only for control bytes.
                    if (end - p < 5 || p[1] != '0' || p[2] != '0' ||
                        !std::isxdigit(static_cast<unsigned char>(p[3])) ||
                        !std::isxdigit(static_cast<unsigned char>(p[4])))
                        return fail("bad \\u escape");
                    out->push_back(static_cast<char>(
                        std::stoi(std::string(p + 3, 2), nullptr, 16)));
                    p += 4;
                    break;
                }
                default:
                    out->push_back(*p);
                    break;
                }
            }
            else
            {
                out->push_back(*p);
            }
            ++p;
        }
        if (p >= end)
            return fail("unterminated string");
        ++p;
        return true;
    }

    bool
    parseInt(std::int64_t *out)
    {
        skipSpace();
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end && std::isdigit(static_cast<unsigned char>(*p)))
            ++p;
        if (p == start)
            return fail("expected integer");
        *out = std::strtoll(std::string(start, p).c_str(), nullptr, 10);
        return true;
    }
};

} // namespace

bool
MetricsSnapshot::fromJson(const std::string &text, MetricsSnapshot *out,
                          std::string *error)
{
    MetricsSnapshot parsed;
    JsonCursor cur(text);
    auto bail = [&](const std::string &message) {
        if (error)
            *error = cur.error.empty() ? message : cur.error;
        return false;
    };

    if (!cur.expect('{'))
        return bail("not an object");
    bool sawMetrics = false;
    while (true)
    {
        std::string key;
        if (!cur.parseString(&key))
            return bail("bad key");
        if (!cur.expect(':'))
            return bail("missing ':'");
        if (key == "schema")
        {
            std::int64_t version = 0;
            if (!cur.parseInt(&version))
                return bail("bad schema");
            if (version != schemaVersion)
                return bail("unsupported snapshot schema version");
        }
        else if (key == "metrics")
        {
            sawMetrics = true;
            if (!cur.expect('['))
                return bail("metrics not an array");
            while (!cur.peek(']'))
            {
                if (!cur.expect('{'))
                    return bail("metric not an object");
                MetricSample sample;
                std::string type = "counter";
                while (true)
                {
                    std::string field;
                    if (!cur.parseString(&field))
                        return bail("bad metric field");
                    if (!cur.expect(':'))
                        return bail("missing ':'");
                    if (field == "name")
                    {
                        if (!cur.parseString(&sample.name))
                            return bail("bad name");
                    }
                    else if (field == "type")
                    {
                        if (!cur.parseString(&type))
                            return bail("bad type");
                    }
                    else if (field == "value")
                    {
                        if (!cur.parseInt(&sample.value))
                            return bail("bad value");
                    }
                    else if (field == "count")
                    {
                        std::int64_t v = 0;
                        if (!cur.parseInt(&v))
                            return bail("bad count");
                        sample.hist.count =
                            static_cast<std::uint64_t>(v);
                    }
                    else if (field == "sum")
                    {
                        std::int64_t v = 0;
                        if (!cur.parseInt(&v))
                            return bail("bad sum");
                        sample.hist.sum = static_cast<std::uint64_t>(v);
                    }
                    else if (field == "buckets")
                    {
                        if (!cur.expect('['))
                            return bail("buckets not an array");
                        std::size_t b = 0;
                        while (!cur.peek(']'))
                        {
                            std::int64_t v = 0;
                            if (!cur.parseInt(&v))
                                return bail("bad bucket");
                            if (b >= histogramBuckets)
                                return bail("too many buckets");
                            sample.hist.buckets[b++] =
                                static_cast<std::uint64_t>(v);
                            if (cur.peek(','))
                                cur.expect(',');
                        }
                        cur.expect(']');
                        if (b != histogramBuckets)
                            return bail("bucket count mismatch");
                    }
                    else
                    {
                        return bail("unknown metric field " + field);
                    }
                    if (cur.peek(','))
                    {
                        cur.expect(',');
                        continue;
                    }
                    break;
                }
                if (!cur.expect('}'))
                    return bail("unterminated metric");
                if (type == "counter")
                    sample.kind = MetricSample::Kind::Counter;
                else if (type == "gauge")
                    sample.kind = MetricSample::Kind::Gauge;
                else if (type == "histogram")
                    sample.kind = MetricSample::Kind::Histogram;
                else
                    return bail("unknown metric type " + type);
                parsed.samples.push_back(std::move(sample));
                if (cur.peek(','))
                    cur.expect(',');
            }
            cur.expect(']');
        }
        else
        {
            return bail("unknown snapshot key " + key);
        }
        if (cur.peek(','))
        {
            cur.expect(',');
            continue;
        }
        break;
    }
    if (!cur.expect('}'))
        return bail("unterminated object");
    if (!sawMetrics)
        return bail("missing metrics array");
    *out = std::move(parsed);
    return true;
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

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Gauge> &slot = gauges_[name];
    if (!slot)
        slot.reset(new Gauge());
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
    for (const auto &entry : gauges_)
        snap.addGauge(entry.first, entry.second->value());
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
    for (auto &entry : gauges_)
        entry.second->set(0);
    for (auto &entry : histograms_)
        entry.second->reset();
}

} // namespace telemetry
} // namespace pmdb
