/**
 * @file
 * bench_compare — compare two sets of pmdb_bench result records (the
 * JSON lines `pmdb_bench --out FILE` appends), a parent set and a
 * change set, against the end-to-end metrics and bounds of
 * BENCHMARK.json.
 *
 * Usage:
 *   bench_compare [--spec BENCHMARK.json] --parent FILE... --change FILE...
 *
 * For every (workload, end-to-end metric) it prints each side's median
 * and quartiles over its runs, the pair wins (the i-th parent run of a
 * workload against the i-th change run; ties count for neither side)
 * and a verdict:
 *  - improved:   at least 10 pairs, the change wins at least 9 in 10 of
 *                them, and the medians differ by more than the
 *                distance between the parent's quartiles;
 *  - regressed:  the change median is worse than the parent's by more
 *                than the metric's bound;
 *  - unresolved: the parent's own spread (quartile distance over
 *                median) is wider than the bound, unless every change
 *                run reads better than every parent run;
 *  - unchanged:  otherwise.
 * The error rate (failed / attempted checks) has a bound of 0: any
 * increase is a regression. Exit status: 0 when nothing regressed, 1 on
 * a regression, 2 on bad usage or malformed input.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hh"

namespace
{

using pmdb::bench::Json;
using pmdb::bench::MetricSpec;
using pmdb::bench::quantile;

/** One untraced pmdb_bench run of one workload. */
struct Record
{
    std::map<std::string, double> values;
    double attempted = 0.0;
    double failed = 0.0;
};

/** Runs per workload, in file order; workload order of first sight. */
struct RunSet
{
    std::vector<std::string> order;
    std::map<std::string, std::vector<Record>> runs;
};

bool
fail(const std::string &message)
{
    std::fprintf(stderr, "bench_compare: %s\n", message.c_str());
    return false;
}

bool
loadRuns(const std::vector<std::string> &paths, RunSet *out)
{
    for (const std::string &path : paths) {
        std::string text;
        if (!pmdb::bench::readFile(path, &text))
            return fail("cannot open " + path);
        std::istringstream lines(text);
        std::string line;
        int lineno = 0;
        while (std::getline(lines, line)) {
            ++lineno;
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            const std::string where = path + ":" + std::to_string(lineno);
            Json doc;
            if (!pmdb::bench::parseJson(line, &doc))
                return fail(where + ": not valid JSON");
            const Json *workload = doc.get("workload");
            const Json *trace = doc.get("trace");
            const Json *metrics = doc.get("metrics");
            const Json *attempted = doc.get("attempted");
            const Json *failed = doc.get("failed");
            if (!workload || workload->type != Json::Type::String ||
                !trace || trace->type != Json::Type::Number || !metrics ||
                metrics->type != Json::Type::Object || !attempted ||
                attempted->type != Json::Type::Number || !failed ||
                failed->type != Json::Type::Number)
                return fail(where + ": not a pmdb_bench record");
            if (trace->number != 0)
                continue; // traced runs carry per-layer metrics only
            Record record;
            record.attempted = attempted->number;
            record.failed = failed->number;
            for (const auto &[name, metric] : metrics->object) {
                const Json *value = metric.get("value");
                if (!value || value->type != Json::Type::Number)
                    return fail(where + ": metric " + name +
                                " has no value");
                record.values[name] = value->number;
            }
            if (!out->runs.count(workload->string))
                out->order.push_back(workload->string);
            out->runs[workload->string].push_back(std::move(record));
        }
    }
    if (out->order.empty())
        return fail("no untraced records in the given files");
    return true;
}

struct Side
{
    std::vector<double> values;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;

    explicit Side(std::vector<double> v) : values(std::move(v))
    {
        median = quantile(values, 0.5);
        q1 = quantile(values, 0.25);
        q3 = quantile(values, 0.75);
    }
};

/** Apply the verdict rules (file header) to one metric. */
std::string
verdict(const MetricSpec &spec, const Side &parent, const Side &change,
        std::size_t wins, std::size_t pairs)
{
    const double sign = spec.higherIsBetter ? 1.0 : -1.0;
    const double gain = sign * (change.median - parent.median);
    if (pairs >= 10 && wins * 10 >= pairs * 9 &&
        gain > parent.q3 - parent.q1)
        return "improved";
    if (-gain > spec.bound * std::fabs(parent.median))
        return "regressed";
    const double spread = parent.median != 0.0
                              ? (parent.q3 - parent.q1) /
                                    std::fabs(parent.median)
                              : 0.0;
    if (spread > spec.bound) {
        bool all_better = true;
        for (double c : change.values) {
            for (double p : parent.values)
                all_better = all_better && sign * (c - p) > 0.0;
        }
        if (!all_better)
            return "unresolved";
    }
    return "unchanged";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_path = "BENCHMARK.json";
    std::vector<std::string> parent_paths;
    std::vector<std::string> change_paths;
    std::vector<std::string> *target = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spec" && i + 1 < argc) {
            spec_path = argv[++i];
            target = nullptr;
        } else if (arg == "--parent") {
            target = &parent_paths;
        } else if (arg == "--change") {
            target = &change_paths;
        } else if (target && arg.rfind("--", 0) != 0) {
            target->push_back(arg);
        } else {
            std::fprintf(stderr,
                         "usage: bench_compare [--spec BENCHMARK.json] "
                         "--parent FILE... --change FILE...\n");
            return 2;
        }
    }
    if (parent_paths.empty() || change_paths.empty()) {
        std::fprintf(stderr, "bench_compare: need --parent and --change "
                     "result files\n");
        return 2;
    }

    pmdb::bench::BenchSpec spec_file;
    std::string error;
    if (!pmdb::bench::loadSpec(spec_path, &spec_file, &error)) {
        fail(error);
        return 2;
    }
    const std::vector<MetricSpec> &specs = spec_file.endToEnd;
    RunSet parent;
    RunSet change;
    if (!loadRuns(parent_paths, &parent) || !loadRuns(change_paths, &change))
        return 2;

    std::printf("%-13s %-14s %-6s %14s %25s %14s %25s %8s %6s  %s\n",
                "workload", "metric", "unit", "parent", "parent q1..q3",
                "change", "change q1..q3", "delta", "wins", "verdict");
    int regressions = 0;
    for (const std::string &workload : parent.order) {
        const auto found = change.runs.find(workload);
        if (found == change.runs.end()) {
            std::printf("%-13s (no change runs)\n", workload.c_str());
            continue;
        }
        const std::vector<Record> &p_runs = parent.runs[workload];
        const std::vector<Record> &c_runs = found->second;
        const std::size_t pairs = std::min(p_runs.size(), c_runs.size());
        for (const MetricSpec &spec : specs) {
            std::vector<double> p_values;
            std::vector<double> c_values;
            for (const Record &r : p_runs) {
                if (r.values.count(spec.name))
                    p_values.push_back(r.values.at(spec.name));
            }
            for (const Record &r : c_runs) {
                if (r.values.count(spec.name))
                    c_values.push_back(r.values.at(spec.name));
            }
            if (p_values.empty() || c_values.empty()) {
                std::printf("%-13s %-14s missing from a side\n",
                            workload.c_str(), spec.name.c_str());
                continue;
            }
            std::size_t wins = 0;
            const std::size_t n =
                std::min({pairs, p_values.size(), c_values.size()});
            for (std::size_t i = 0; i < n; ++i) {
                const double d = c_values[i] - p_values[i];
                if (spec.higherIsBetter ? d > 0.0 : d < 0.0)
                    ++wins;
            }
            const Side p(p_values);
            const Side c(c_values);
            const std::string v = verdict(spec, p, c, wins, n);
            regressions += v == "regressed";
            char p_range[64];
            char c_range[64];
            std::snprintf(p_range, sizeof(p_range), "%.6g..%.6g", p.q1,
                          p.q3);
            std::snprintf(c_range, sizeof(c_range), "%.6g..%.6g", c.q1,
                          c.q3);
            std::printf("%-13s %-14s %-6s %14.6g %25s %14.6g %25s %+7.2f%% "
                        "%2zu/%-3zu  %s\n",
                        workload.c_str(), spec.name.c_str(),
                        spec.unit.c_str(), p.median, p_range, c.median,
                        c_range,
                        p.median != 0.0
                            ? 100.0 * (c.median - p.median) /
                                  std::fabs(p.median)
                            : 0.0,
                        wins, n, v.c_str());
        }
        double p_att = 0, p_fail = 0, c_att = 0, c_fail = 0;
        for (const Record &r : p_runs) {
            p_att += r.attempted;
            p_fail += r.failed;
        }
        for (const Record &r : c_runs) {
            c_att += r.attempted;
            c_fail += r.failed;
        }
        const double p_rate = p_att > 0 ? p_fail / p_att : 0.0;
        const double c_rate = c_att > 0 ? c_fail / c_att : 0.0;
        const bool worse = c_rate > p_rate;
        regressions += worse;
        std::printf("%-13s %-14s %-6s %14.6g %25s %14.6g %25s %8s %6s  %s\n",
                    workload.c_str(), "error_rate", "frac", p_rate, "",
                    c_rate, "", "", "", worse ? "regressed" : "unchanged");
    }
    return regressions ? 1 : 0;
}
