#include "bench.hh"

#include <cmath>
#include <cstddef>
#include <cstdio>

#include "common/stopwatch.hh"

namespace pmdb
{
namespace bench
{

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    std::fprintf(stderr, "pmdb_bench: CHECK FAILED: %s\n", what.c_str());
}

void
RunResult::add(const std::string &name, const std::string &unit,
               double value)
{
    metrics.push_back({name, unit, value, 1, value, value});
}

void
RunResult::addMedian(const std::string &name, const std::string &unit,
                     std::vector<double> samples)
{
    Metric metric;
    metric.name = name;
    metric.unit = unit;
    metric.samples = samples.size();
    metric.q1 = quantile(samples, 0.25);
    metric.q3 = quantile(samples, 0.75);
    metric.value = quantile(std::move(samples), 0.5);
    metrics.push_back(std::move(metric));
}

const Metric *
RunResult::find(const std::string &name) const
{
    for (const Metric &metric : metrics) {
        if (metric.name == name)
            return &metric;
    }
    return nullptr;
}

double
histogramQuantile(const telemetry::HistogramSnapshot &hist, double q)
{
    if (hist.count == 0)
        return 0.0;
    const double target = q * static_cast<double>(hist.count);
    double seen = 0.0;
    for (std::size_t b = 0; b < telemetry::histogramBuckets; ++b) {
        const double in = static_cast<double>(hist.buckets[b]);
        if (in == 0.0 || seen + in < target) {
            seen += in;
            continue;
        }
        if (b == 0)
            return 0.0;
        // Bucket b holds [2^(b-1), 2^b).
        const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
        return lo + lo * (target - seen) / in;
    }
    return std::ldexp(1.0, static_cast<int>(telemetry::histogramBuckets));
}

telemetry::HistogramSnapshot
registryHistogram(const std::string &name)
{
    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    const telemetry::MetricSample *sample = snap.find(name);
    return sample ? sample->hist : telemetry::HistogramSnapshot{};
}

std::int64_t
registryValue(const std::string &name)
{
    const telemetry::MetricsSnapshot snap =
        telemetry::Registry::global().snapshot();
    const telemetry::MetricSample *sample = snap.find(name);
    return sample ? sample->value : 0;
}

double
timeIt(const std::function<void()> &fn)
{
    Stopwatch watch;
    fn();
    return watch.elapsedSeconds();
}

std::size_t
measureFor(double seconds, std::size_t min_reps,
           const std::function<void(std::size_t)> &rep,
           double cap_seconds)
{
    Stopwatch watch;
    std::size_t done = 0;
    while (done < min_reps || watch.elapsedSeconds() < seconds) {
        if (done >= 3 && watch.elapsedSeconds() >= cap_seconds)
            break;
        rep(done++);
    }
    return done;
}

void
crossCheck(const std::string &what, double bench_value,
           double program_value, std::size_t *mismatches)
{
    const bool agree = bench_value > 0.0 && program_value > 0.0 &&
                       bench_value <= 2.0 * program_value &&
                       program_value <= 2.0 * bench_value;
    if (!agree)
        ++*mismatches;
    std::fprintf(stderr,
                 "pmdb_bench: cross-check %-28s bench %12.1f  "
                 "program %12.1f  %s\n",
                 what.c_str(), bench_value, program_value,
                 agree ? "ok" : "MISMATCH");
}

} // namespace bench
} // namespace pmdb
