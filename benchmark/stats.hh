/**
 * @file
 * What pmdb_bench and bench_compare share: sample quantiles, a small
 * JSON reader, and BENCHMARK.json's metric lists. The metric names,
 * units and bounds live only in BENCHMARK.json; both programs read them
 * from there.
 */

#ifndef PMDB_BENCHMARK_STATS_HH
#define PMDB_BENCHMARK_STATS_HH

#include <string>
#include <utility>
#include <vector>

namespace pmdb
{
namespace bench
{

/**
 * Linear-interpolation quantile of @p values (the "inclusive" method:
 * q=0 is the minimum, q=1 the maximum). Empty input gives 0.
 */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** A parsed JSON value (just enough for result records and the spec). */
struct Json
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;

    /** The member @p key of an object, or null. */
    const Json *get(const std::string &key) const;
};

/**
 * Parse @p text as one JSON document (strict, nesting limited to 64
 * levels). \\u escapes read as '?': every name here is ASCII.
 */
bool parseJson(const std::string &text, Json *out);

/** Read the whole file at @p path. */
bool readFile(const std::string &path, std::string *out);

/** One metric of BENCHMARK.json. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    bool higherIsBetter = false;
    /** Allowed worsening, as a share of the parent's median (end-to-end
     *  metrics only). */
    double bound = 0.0;
};

/** BENCHMARK.json's metric lists, in file order. */
struct BenchSpec
{
    std::vector<MetricSpec> endToEnd;
    std::vector<MetricSpec> perLayer;
};

/** Load @p path; on failure @p error says why. */
bool loadSpec(const std::string &path, BenchSpec *out, std::string *error);

} // namespace bench
} // namespace pmdb

#endif // PMDB_BENCHMARK_STATS_HH
