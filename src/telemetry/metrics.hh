/**
 * @file
 * Always-on, low-overhead metrics substrate for the whole pipeline:
 * counters, gauges, and fixed-bucket latency histograms collected in a
 * process-global registry, snapshotted on demand as JSON or Prometheus
 * text.
 *
 * Design constraints (DESIGN.md §14):
 *
 *  - **Hot-path cost.** Counter::add is one relaxed fetch_add on a
 *    thread-striped cache line (no locks, no false sharing between
 *    producer threads); Histogram::record is a log2 bucket index plus
 *    two relaxed adds. Call sites additionally gate on
 *    telemetry::enabled() — a single relaxed bool load — so disabling
 *    telemetry reduces the instrumentation to a predictable branch.
 *    bench/telemetry_bench holds the dispatch-path cost of the enabled
 *    substrate under 2% (BENCH_telemetry.json).
 *
 *  - **Deterministic merge.** Histograms are fixed log2 buckets;
 *    merging per-thread / per-worker / per-session histograms is
 *    bucket-wise addition — commutative and associative — so merged
 *    buckets and every derived quantile are bit-identical regardless
 *    of merge order (tests/test_telemetry.cc asserts this, mirroring
 *    the 1-vs-4-worker report-identity pattern).
 *
 *  - **Snapshot identity.** A MetricsSnapshot serializes to JSON and
 *    parses back to an equal snapshot (round-trip asserted in tests),
 *    so pmdb_stat and pmdbd --json can never drift from the registry:
 *    both render the same snapshot structure.
 *
 * Metric names are dotted paths with optional Prometheus-style labels
 * embedded in the name ("pmdbd.session.events{session=\"1\"}"); the
 * Prometheus renderer translates dots to underscores and keeps the
 * label set.
 */

#ifndef PMDB_TELEMETRY_METRICS_HH
#define PMDB_TELEMETRY_METRICS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pmdb
{
namespace telemetry
{

/**
 * Global telemetry switch. Defaults to on; the PMDB_TELEMETRY
 * environment variable ("0"/"off"/"false" to disable) sets the initial
 * value, and setEnabled() flips it at runtime (telemetry_bench measures
 * both sides). Call sites read it with one relaxed load.
 */
bool enabled();
void setEnabled(bool on);

/** Monotonic nanoseconds (CLOCK_MONOTONIC). Comparable across
 *  processes on the same host — the ring-residency stamp relies on
 *  that. */
std::uint64_t nowNs();

/** Stripes per counter; a power of two. */
constexpr std::size_t counterStripes = 16;

/**
 * Monotonic counter, striped across cache lines by thread so
 * concurrent producers (pollers, pool workers, client threads) never
 * contend on one line. value() sums the stripes.
 */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        cells_[stripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        std::uint64_t total = 0;
        for (const Cell &cell : cells_)
            total += cell.v.load(std::memory_order_relaxed);
        return total;
    }

    void
    reset()
    {
        for (Cell &cell : cells_)
            cell.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Cell
    {
        std::atomic<std::uint64_t> v{0};
    };

    /**
     * Stable per-thread stripe, assigned on first use. The slot is
     * constant-initialized to an out-of-range sentinel so the hot
     * path is a guard-free TLS read plus one branch; only a thread's
     * first add takes the assignment path.
     */
    static std::size_t
    stripeIndex()
    {
        thread_local std::size_t slot = counterStripes;
        std::size_t s = slot;
        if (s >= counterStripes) [[unlikely]]
            slot = s = nextStripe();
        return s;
    }

    static std::size_t nextStripe();

    std::array<Cell, counterStripes> cells_;
};

/** Point-in-time signed value (queue depth, active sessions). */
class Gauge
{
  public:
    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> v_{0};
};

/** Fixed bucket count shared by every histogram (merge compatibility). */
constexpr std::size_t histogramBuckets = 40;

/**
 * Bucket index for @p v: 0 holds zero, bucket b >= 1 holds
 * [2^(b-1), 2^b), saturating at the top bucket. With 40 buckets the
 * top covers everything >= 2^38 ns ≈ 4.6 min — ample for latencies,
 * and batch-size distributions fit comfortably too.
 */
inline std::size_t
histogramBucketOf(std::uint64_t v)
{
    if (v == 0)
        return 0;
    return std::min<std::size_t>(histogramBuckets - 1,
                                 std::bit_width(v));
}

/** Inclusive upper bound used as bucket b's representative value. */
inline std::uint64_t
histogramBucketBound(std::size_t b)
{
    if (b == 0)
        return 0;
    return 1ull << b;
}

/** Immutable histogram contents: the unit of merging and reporting. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, histogramBuckets> buckets{};

    /** Bucket-wise addition: commutative, associative, deterministic. */
    void
    merge(const HistogramSnapshot &other)
    {
        count += other.count;
        sum += other.sum;
        for (std::size_t i = 0; i < histogramBuckets; ++i)
            buckets[i] += other.buckets[i];
    }

    /**
     * Deterministic quantile estimate: the representative (upper
     * bound) of the first bucket whose cumulative count reaches
     * ceil(q * count). Derived from buckets alone, so any merge order
     * yields the same answer.
     */
    std::uint64_t quantile(double q) const;

    double
    mean() const
    {
        return count ? static_cast<double>(sum) /
                           static_cast<double>(count)
                     : 0.0;
    }

    bool
    operator==(const HistogramSnapshot &other) const
    {
        return count == other.count && sum == other.sum &&
               buckets == other.buckets;
    }
};

/** Fixed-bucket latency/size histogram with relaxed atomic buckets. */
class Histogram
{
  public:
    void
    record(std::uint64_t v)
    {
        buckets_[histogramBucketOf(v)].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    /** Fold a locally-accumulated delta in with one atomic add per
     *  non-empty bucket — the spill half of thread-local batching on
     *  paths where even one record() per call is too hot. */
    void
    recordBulk(const HistogramSnapshot &delta)
    {
        for (std::size_t i = 0; i < histogramBuckets; ++i)
            if (delta.buckets[i])
                buckets_[i].fetch_add(delta.buckets[i],
                                      std::memory_order_relaxed);
        count_.fetch_add(delta.count, std::memory_order_relaxed);
        sum_.fetch_add(delta.sum, std::memory_order_relaxed);
    }

    HistogramSnapshot
    snapshot() const
    {
        HistogramSnapshot snap;
        snap.count = count_.load(std::memory_order_relaxed);
        snap.sum = sum_.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < histogramBuckets; ++i)
            snap.buckets[i] =
                buckets_[i].load(std::memory_order_relaxed);
        return snap;
    }

    void
    reset()
    {
        for (auto &bucket : buckets_)
            bucket.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::uint64_t>, histogramBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/** One named metric inside a snapshot. */
struct MetricSample
{
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
    };

    std::string name;
    Kind kind = Kind::Counter;
    /** Counter/Gauge value (counters are non-negative). */
    std::int64_t value = 0;
    /** Histogram contents (Kind::Histogram only). */
    HistogramSnapshot hist;

    bool
    operator==(const MetricSample &other) const
    {
        return name == other.name && kind == other.kind &&
               value == other.value && hist == other.hist;
    }
};

/**
 * A point-in-time copy of a metric set, sorted by name. This is the
 * single structure every output renders: the metrics endpoint, pmdbd
 * --json, and pmdb_stat all consume the same snapshot, so their views
 * cannot drift.
 */
struct MetricsSnapshot
{
    /** Snapshot wire-format version (the "schema" JSON field). */
    static constexpr int schemaVersion = 1;

    std::vector<MetricSample> samples;

    void addCounter(std::string name, std::uint64_t value);
    void addGauge(std::string name, std::int64_t value);
    void addHistogram(std::string name, HistogramSnapshot hist);

    /** Samples must be name-sorted before rendering or comparing. */
    void sortByName();

    /** Merge @p other's samples (same-name histograms merge bucket-
     *  wise, counters/gauges add); used to fold dynamic daemon state
     *  into the registry snapshot. */
    void merge(const MetricsSnapshot &other);

    const MetricSample *find(const std::string &name) const;

    std::string toJson() const;
    std::string toPrometheus() const;

    /**
     * Parse the toJson() format back into a snapshot. Strict about the
     * shape this file writes; returns false with @p error filled on
     * malformed input. Round-trip identity (parse(toJson()) == *this)
     * is asserted in tests.
     */
    static bool fromJson(const std::string &text, MetricsSnapshot *out,
                         std::string *error = nullptr);

    bool
    operator==(const MetricsSnapshot &other) const
    {
        return samples == other.samples;
    }
};

/**
 * Process-global metric registry. Lookup interns the name under a
 * mutex and returns a stable reference — call sites resolve their
 * metrics once (static or member) and touch only the lock-free metric
 * on the hot path.
 */
class Registry
{
  public:
    static Registry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Name-sorted copy of every registered metric. */
    MetricsSnapshot snapshot() const;

    /** Zero every metric (tests and benchmarks only — references stay
     *  valid). */
    void resetForTest();

  private:
    Registry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace telemetry
} // namespace pmdb

#endif // PMDB_TELEMETRY_METRICS_HH
