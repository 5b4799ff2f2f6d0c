/**
 * @file
 * Telemetry substrate tests: histogram bucket math and merge
 * determinism (any merge order yields identical buckets and
 * quantiles), snapshot JSON round-tripping, Prometheus rendering, and
 * the registry's stable-reference contract.
 */

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.hh"
#include "telemetry/span.hh"

namespace pmdb::telemetry
{
namespace
{

TEST(TelemetryHistogram, BucketBoundaries)
{
    // Bucket 0 is exactly zero; bucket b >= 1 covers [2^(b-1), 2^b).
    EXPECT_EQ(histogramBucketOf(0), 0u);
    EXPECT_EQ(histogramBucketOf(1), 1u);
    EXPECT_EQ(histogramBucketOf(2), 2u);
    EXPECT_EQ(histogramBucketOf(3), 2u);
    EXPECT_EQ(histogramBucketOf(4), 3u);
    EXPECT_EQ(histogramBucketOf(255), 8u);
    EXPECT_EQ(histogramBucketOf(256), 9u);
    // Saturating top bucket.
    EXPECT_EQ(histogramBucketOf(~std::uint64_t{0}),
              histogramBuckets - 1);
    for (std::size_t b = 1; b + 1 < histogramBuckets; ++b) {
        const std::uint64_t bound = histogramBucketBound(b);
        EXPECT_EQ(histogramBucketOf(bound - 1), b) << b;
        EXPECT_EQ(histogramBucketOf(bound), b + 1) << b;
    }
}

TEST(TelemetryHistogram, MergeOrderIsIrrelevant)
{
    // Three disjoint shards of one sample population, merged in every
    // permutation: buckets, count, sum and quantiles must be
    // bit-identical — the property that makes per-thread histograms
    // aggregatable without coordination.
    std::mt19937_64 rng(7);
    std::vector<HistogramSnapshot> parts(3);
    for (HistogramSnapshot &part : parts) {
        Histogram hist;
        for (int i = 0; i < 5000; ++i)
            hist.record(rng() % 1000000);
        part = hist.snapshot();
    }

    std::vector<std::size_t> order = {0, 1, 2};
    HistogramSnapshot reference;
    bool first = true;
    do {
        HistogramSnapshot merged;
        for (const std::size_t idx : order)
            merged.merge(parts[idx]);
        if (first) {
            reference = merged;
            first = false;
            EXPECT_EQ(reference.count, 15000u);
        } else {
            EXPECT_EQ(merged, reference);
            EXPECT_EQ(merged.quantile(0.50), reference.quantile(0.50));
            EXPECT_EQ(merged.quantile(0.95), reference.quantile(0.95));
            EXPECT_EQ(merged.quantile(0.99), reference.quantile(0.99));
        }
    } while (std::next_permutation(order.begin(), order.end()));
}

TEST(TelemetryHistogram, QuantilesAreBucketUpperBounds)
{
    Histogram hist;
    // 99 fast samples in bucket [1,2), one slow sample in [512,1024).
    for (int i = 0; i < 99; ++i)
        hist.record(1);
    hist.record(600);
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_EQ(snap.quantile(0.50), 2u);
    EXPECT_EQ(snap.quantile(0.99), 2u);
    EXPECT_EQ(snap.quantile(1.0), 1024u);
    EXPECT_DOUBLE_EQ(snap.mean(), (99.0 * 1 + 600.0) / 100.0);
}

TEST(TelemetryHistogram, ConcurrentRecordsAllLand)
{
    Histogram hist;
    constexpr int threads = 4;
    constexpr int perThread = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&hist] {
            for (int i = 0; i < perThread; ++i)
                hist.record(static_cast<std::uint64_t>(i));
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count,
              static_cast<std::uint64_t>(threads) * perThread);
    std::uint64_t bucketTotal = 0;
    for (const std::uint64_t b : snap.buckets)
        bucketTotal += b;
    EXPECT_EQ(bucketTotal, snap.count);
}

TEST(TelemetryCounter, StripedAddsSum)
{
    Counter counter;
    constexpr int threads = 8;
    constexpr int perThread = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&counter] {
            for (int i = 0; i < perThread; ++i)
                counter.add(1);
        });
    }
    for (std::thread &thread : pool)
        thread.join();
    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(threads) * perThread);
}

MetricsSnapshot
buildSnapshot()
{
    Histogram hist;
    for (int i = 0; i < 1000; ++i)
        hist.record(static_cast<std::uint64_t>(i * i));
    MetricsSnapshot snap;
    snap.addCounter("pmdbd.events_drained", 123456);
    snap.addCounter("pmdbd.session.events{session=\"1\"}", 777);
    snap.addGauge("pmdbd.session.millis{session=\"1\"}", -3);
    snap.addHistogram("detector.eval_ns{class=\"store\"}",
                      hist.snapshot());
    snap.sortByName();
    return snap;
}

TEST(TelemetrySnapshot, JsonRoundTripIsIdentity)
{
    const MetricsSnapshot snap = buildSnapshot();
    const std::string json = snap.toJson();

    MetricsSnapshot parsed;
    std::string error;
    ASSERT_TRUE(MetricsSnapshot::fromJson(json, &parsed, &error))
        << error;
    EXPECT_EQ(parsed, snap);
    // Serialize -> parse -> serialize is a fixed point.
    EXPECT_EQ(parsed.toJson(), json);
}

/** Names go through the shared escaper; the reader must undo it. */
TEST(TelemetrySnapshot, JsonRoundTripsEscapedNames)
{
    std::string name = "odd{label=\"a\\b\"}";
    for (char c = 1; c < 0x20; ++c)
        name += c;
    MetricsSnapshot snap;
    snap.addCounter(name, 5);
    const std::string json = snap.toJson();
    for (const char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;

    MetricsSnapshot parsed;
    std::string error;
    ASSERT_TRUE(MetricsSnapshot::fromJson(json, &parsed, &error))
        << error;
    EXPECT_EQ(parsed, snap);
    EXPECT_FALSE(MetricsSnapshot::fromJson(
        "{\"schema\": 1, \"metrics\": [{\"name\": \"\\u00zz\", "
        "\"type\": \"counter\", \"value\": 1}]}",
        &parsed, &error));
}

TEST(TelemetrySnapshot, JsonRejectsGarbage)
{
    MetricsSnapshot parsed;
    std::string error;
    EXPECT_FALSE(MetricsSnapshot::fromJson("", &parsed, &error));
    EXPECT_FALSE(MetricsSnapshot::fromJson("{", &parsed, &error));
    EXPECT_FALSE(
        MetricsSnapshot::fromJson("{\"schema\": 1}", &parsed, &error));
}

TEST(TelemetrySnapshot, PrometheusShape)
{
    const MetricsSnapshot snap = buildSnapshot();
    const std::string prom = snap.toPrometheus();

    EXPECT_NE(prom.find("# TYPE pmdb_pmdbd_events_drained counter"),
              std::string::npos);
    EXPECT_NE(prom.find("pmdb_pmdbd_events_drained 123456"),
              std::string::npos);
    // Labels survive as Prometheus label sets.
    EXPECT_NE(prom.find("pmdb_pmdbd_session_events{session=\"1\"} 777"),
              std::string::npos);
    // Histograms render cumulative buckets ending at +Inf, plus _sum
    // and _count.
    EXPECT_NE(prom.find("pmdb_detector_eval_ns_bucket{class=\"store\","
                        "le=\"+Inf\"} 1000"),
              std::string::npos);
    EXPECT_NE(prom.find("pmdb_detector_eval_ns_count{class=\"store\"} "
                        "1000"),
              std::string::npos);
    // Every line is either a comment or name<space>value.
    std::size_t start = 0;
    while (start < prom.size()) {
        std::size_t end = prom.find('\n', start);
        if (end == std::string::npos)
            end = prom.size();
        const std::string line = prom.substr(start, end - start);
        if (!line.empty() && line[0] != '#')
            EXPECT_NE(line.find(' '), std::string::npos) << line;
        start = end + 1;
    }
}

TEST(TelemetrySnapshot, MergeAddsAndFoldsHistograms)
{
    Histogram hist;
    hist.record(5);
    MetricsSnapshot a;
    a.addCounter("x", 1);
    a.addHistogram("h", hist.snapshot());
    a.sortByName();
    MetricsSnapshot b;
    b.addCounter("x", 2);
    b.addHistogram("h", hist.snapshot());
    b.sortByName();

    a.merge(b);
    const MetricSample *x = a.find("x");
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->value, 3);
    const MetricSample *h = a.find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->hist.count, 2u);
}

TEST(TelemetryRegistry, ReferencesAreStable)
{
    Registry &reg = Registry::global();
    reg.resetForTest();
    Counter &c1 = reg.counter("test.stable");
    c1.add(7);
    Counter &c2 = reg.counter("test.stable");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 7u);

    const MetricsSnapshot snap = reg.snapshot();
    const MetricSample *sample = snap.find("test.stable");
    ASSERT_NE(sample, nullptr);
    EXPECT_EQ(sample->value, 7);
    reg.resetForTest();
}

TEST(TelemetryEnabled, RuntimeToggle)
{
    const bool was = enabled();
    setEnabled(false);
    EXPECT_FALSE(enabled());
    setEnabled(true);
    EXPECT_TRUE(enabled());
    setEnabled(was);
}

TEST(TelemetrySpans, BufferDrainsAndExports)
{
    SpanBuffer &buffer = SpanBuffer::global();
    buffer.drain(); // discard anything earlier tests recorded
    const bool was = spansEnabled();
    setSpansEnabled(true);

    {
        SpanTimer timer("unit.test", "tests", 42, "detail=1");
    }
    Span manual;
    manual.name = "manual";
    manual.category = "tests";
    manual.startNs = 1000;
    manual.durNs = 2500;
    manual.track = 7;
    buffer.record(manual);

    const std::string trace = buffer.toChromeTrace();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"manual\""), std::string::npos);
    EXPECT_NE(trace.find("\"unit.test\""), std::string::npos);

    const std::deque<Span> spans = buffer.drain();
    setSpansEnabled(was);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "unit.test");
    EXPECT_EQ(spans[0].track, 42u);
    EXPECT_GE(spans[1].durNs, 2500u);
    EXPECT_TRUE(buffer.drain().empty());
}

} // namespace
} // namespace pmdb::telemetry
