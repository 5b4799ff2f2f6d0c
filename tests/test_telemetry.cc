/**
 * @file
 * Telemetry substrate tests: histogram bucket math and merge
 * determinism (any merge order yields identical buckets and
 * quantiles), striped counters, the registry's stable-reference
 * contract, and the span buffer.
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
