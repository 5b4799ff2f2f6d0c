/**
 * @file
 * pmdb_bench — the repository benchmark. Runs closed-loop workloads
 * (tx_inproc, memcached_mt, pmdbd_mix, crash_atomic), each in a forked
 * child, checks every verdict, and prints the end-to-end metrics or,
 * with --trace 1, the per-layer metrics. See benchmark/README.md.
 *
 * Usage:
 *   pmdb_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
 *              [--spec FILE] [--out FILE] [--git SHA]
 *
 * Without --workload every workload runs in turn. Each workload prints
 * the metrics --spec (default BENCHMARK.json) lists, end_to_end or with
 * --trace 1 per_layer, by name and unit; with --workload the last line
 * of stdout is
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * --out appends a fuller record per workload (seed, git SHA, cores,
 * repetitions, quartiles) for bench_compare. Exit status: 0 when every
 * check passed, 1 on a failed check or a failed child, 2 on bad usage.
 */

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "common/stopwatch.hh"

namespace
{

using pmdb::bench::Metric;
using pmdb::bench::MetricSpec;
using pmdb::bench::RunConfig;
using pmdb::bench::RunResult;
using pmdb::bench::WorkloadDef;

/** A child that outlives this is killed (the run must end in 180 s). */
constexpr unsigned childTimeoutSec = 160;

/**
 * Set-up children per end-to-end run; setup_s and peak_rss_mb are their
 * medians. On pmdbd_mix one child's peak moves by ±12% with how the two
 * sessions' report shipping happens to overlap, and memcached_mt's
 * warm-up repetition is bimodal (see its mutex hand-off in README.md).
 */
constexpr int setupChildren = 5;

void
usage()
{
    std::fprintf(stderr,
                 "usage: pmdb_bench [--workload NAME] [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                  [--spec FILE] [--out FILE] [--git SHA]\n"
                 "workloads:");
    for (const WorkloadDef &def : pmdb::bench::workloadDefs())
        std::fprintf(stderr, " %s", def.name);
    std::fprintf(stderr, "\n");
}

bool
parseUnsigned(const char *text, unsigned long long max,
              unsigned long long *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
        value > max)
        return false;
    *out = value;
    return true;
}

/** Child → parent wire format: one whitespace-separated line each. */
std::string
serialize(const RunResult &result)
{
    std::ostringstream out;
    out.precision(17);
    out << "reps " << result.reps << "\n";
    out << "checks " << result.checks.attempted << " "
        << result.checks.failed << "\n";
    for (const Metric &metric : result.metrics) {
        out << "metric " << metric.name << " " << metric.unit << " "
            << metric.value << " " << metric.samples << " " << metric.q1
            << " " << metric.q3 << "\n";
    }
    return out.str();
}

bool
deserialize(const std::string &text, RunResult *result)
{
    std::istringstream in(text);
    std::string tag;
    bool sawChecks = false;
    while (in >> tag) {
        if (tag == "reps") {
            in >> result->reps;
        } else if (tag == "checks") {
            in >> result->checks.attempted >> result->checks.failed;
            sawChecks = true;
        } else if (tag == "metric") {
            Metric metric;
            in >> metric.name >> metric.unit >> metric.value >>
                metric.samples >> metric.q1 >> metric.q3;
            result->metrics.push_back(metric);
        } else {
            return false;
        }
        if (!in)
            return false;
    }
    return sawChecks;
}

bool
writeAll(int fd, const std::string &data)
{
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Run one workload in a forked child. The child owns the telemetry
 * registry and every thread the workload starts; its peak RSS comes
 * from wait4. Returns false when the child did not finish cleanly.
 */
bool
runChild(const WorkloadDef &def, const RunConfig &config,
         RunResult *result, double *peak_rss_mb)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("pmdb_bench: pipe");
        return false;
    }
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("pmdb_bench: fork");
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        ::close(fds[0]);
        ::alarm(childTimeoutSec);
        const pmdb::Stopwatch watch;
        RunResult child = def.run(config);
        if (config.setupOnly)
            child.add("setup_s", "s", watch.elapsedSeconds());
        const bool ok = writeAll(fds[1], serialize(child));
        ::close(fds[1]);
        std::fflush(nullptr);
        ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    struct rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        if (WIFSIGNALED(status)) {
            std::fprintf(stderr, "pmdb_bench: %s child killed by %s\n",
                         def.name, strsignal(WTERMSIG(status)));
        } else {
            std::fprintf(stderr, "pmdb_bench: %s child failed\n",
                         def.name);
        }
        return false;
    }
    if (!deserialize(text, result)) {
        std::fprintf(stderr, "pmdb_bench: %s child sent a malformed "
                     "result\n", def.name);
        return false;
    }
    return true;
}

/** JSON has no NaN or infinity; a non-finite reading is reported as 0. */
double
finite(const std::string &name, double value)
{
    if (std::isfinite(value))
        return value;
    std::fprintf(stderr, "pmdb_bench: %s is not finite; reporting 0\n",
                 name.c_str());
    return 0.0;
}

/**
 * The metrics a mode prints: @p specs (BENCHMARK.json's end_to_end or
 * per_layer list), in its order. A metric of a layer the workload does
 * not reach reads 0.
 */
std::vector<Metric>
selectMetrics(const RunResult &result, const std::vector<MetricSpec> &specs)
{
    std::vector<Metric> out;
    for (const MetricSpec &spec : specs) {
        const Metric *found = result.find(spec.name);
        Metric metric = found ? *found : Metric{spec.name, spec.unit};
        if (metric.unit != spec.unit) {
            std::fprintf(stderr, "pmdb_bench: %s reported in %s, "
                         "expected %s\n", spec.name.c_str(),
                         metric.unit.c_str(), spec.unit.c_str());
        }
        metric.value = finite(metric.name, metric.value);
        metric.q1 = finite(metric.name, metric.q1);
        metric.q3 = finite(metric.name, metric.q3);
        out.push_back(metric);
    }
    for (const Metric &metric : result.metrics) {
        bool listed = false;
        for (const Metric &kept : out)
            listed = listed || kept.name == metric.name;
        if (!listed)
            std::fprintf(stderr, "pmdb_bench: unlisted metric %s\n",
                         metric.name.c_str());
    }
    return out;
}

std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
contractLine(bool correct, const RunResult &result,
             const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " +
                      std::to_string(std::max<std::uint64_t>(
                          1, result.checks.attempted)) +
                      ", \"failed\": " +
                      std::to_string(correct ? result.checks.failed
                                             : std::max<std::uint64_t>(
                                                   1, result.checks.failed)) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}}";
}

std::string
recordLine(const WorkloadDef &def, const RunConfig &config,
           const std::string &git, bool correct, const RunResult &result,
           const std::vector<Metric> &metrics)
{
    std::string out = std::string("{\"workload\": \"") + def.name +
                      "\", \"seed\": " + std::to_string(config.seed) +
                      ", \"trace\": " + (config.traced ? "1" : "0") +
                      ", \"seconds\": " + number(config.seconds) +
                      ", \"git\": \"" + git + "\", \"cores\": " +
                      std::to_string(std::max(
                          1u, std::thread::hardware_concurrency())) +
                      ", \"reps\": " + std::to_string(result.reps) +
                      ", \"correct\": " + (correct ? "true" : "false") +
                      ", \"attempted\": " +
                      std::to_string(result.checks.attempted) +
                      ", \"failed\": " +
                      std::to_string(result.checks.failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               number(m.value) + ", \"unit\": \"" + m.unit +
               "\", \"n\": " + std::to_string(m.samples) +
               ", \"q1\": " + number(m.q1) + ", \"q3\": " + number(m.q3) +
               "}";
    }
    return out + "}}";
}

void
printHuman(const WorkloadDef &def, bool correct, const RunResult &result,
           const std::vector<Metric> &metrics)
{
    std::printf("== %s: %zu reps, %llu/%llu checks passed%s\n", def.name,
                result.reps,
                static_cast<unsigned long long>(result.checks.attempted -
                                                result.checks.failed),
                static_cast<unsigned long long>(result.checks.attempted),
                correct ? "" : "  [FAILED]");
    for (const Metric &m : metrics) {
        std::printf("   %-32s %14.6g %-12s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples > 1)
            std::printf(" n=%zu q1=%.6g q3=%.6g", m.samples, m.q1, m.q3);
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using pmdb::bench::workloadDefs;

    RunConfig config;
    std::string only;
    std::string spec_path = "BENCHMARK.json";
    std::string out_path;
    std::string git = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        }
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *value = argv[++i];
        unsigned long long number = 0;
        if (arg == "--workload") {
            only = value;
        } else if (arg == "--seed" && parseUnsigned(value, ~0ull, &number)) {
            config.seed = number;
        } else if (arg == "--seconds" && parseUnsigned(value, 3600, &number) &&
                   number > 0) {
            config.seconds = static_cast<double>(number);
        } else if (arg == "--trace" && parseUnsigned(value, 1, &number)) {
            config.traced = number == 1;
        } else if (arg == "--spec") {
            spec_path = value;
        } else if (arg == "--out") {
            out_path = value;
        } else if (arg == "--git" &&
                   std::strspn(value, "0123456789abcdefghijklmnopqrstuvwxyz"
                                      "ABCDEFGHIJKLMNOPQRSTUVWXYZ._-") ==
                       std::strlen(value)) {
            git = value;
        } else {
            usage();
            return 2;
        }
    }

    pmdb::bench::BenchSpec spec;
    std::string error;
    if (!pmdb::bench::loadSpec(spec_path, &spec, &error)) {
        std::fprintf(stderr, "pmdb_bench: %s\n", error.c_str());
        return 2;
    }

    std::vector<const WorkloadDef *> selected;
    for (const WorkloadDef &def : workloadDefs()) {
        if (only.empty() || only == def.name)
            selected.push_back(&def);
    }
    if (selected.empty()) {
        std::fprintf(stderr, "pmdb_bench: unknown workload '%s'\n",
                     only.c_str());
        usage();
        return 2;
    }

    // Sockets, rings and span traces go next to the binary. The path is
    // kept relative to the working directory: a Unix socket path must
    // fit in 108 bytes.
    std::error_code ec;
    const std::filesystem::path out_dir = std::filesystem::proximate(
        std::filesystem::path(argv[0]).parent_path() / "out", ec);
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "pmdb_bench: cannot create %s: %s\n",
                     out_dir.c_str(), ec.message().c_str());
        return 1;
    }
    config.outDir = out_dir.empty() ? "." : out_dir.string();

    std::FILE *out_file = nullptr;
    if (!out_path.empty()) {
        out_file = std::fopen(out_path.c_str(), "a");
        if (!out_file) {
            std::fprintf(stderr, "pmdb_bench: cannot open %s\n",
                         out_path.c_str());
            return 1;
        }
    }

    bool all_correct = true;
    std::string last_contract;
    for (const WorkloadDef *def : selected) {
        RunResult result;
        double peak_rss_mb = 0.0;
        bool child_ok = runChild(*def, config, &result, &peak_rss_mb);
        if (!config.traced) {
            // Set-up time and peak RSS come from children that only set
            // up; their checks count like the measured child's.
            RunConfig setup_only = config;
            setup_only.setupOnly = true;
            std::vector<double> setups;
            std::vector<double> peaks;
            for (int i = 0; i < setupChildren; ++i) {
                RunResult once;
                child_ok = runChild(*def, setup_only, &once, &peak_rss_mb) &&
                           child_ok;
                const Metric *setup = once.find("setup_s");
                setups.push_back(setup ? setup->value : 0.0);
                peaks.push_back(peak_rss_mb);
                result.checks.attempted += once.checks.attempted;
                result.checks.failed += once.checks.failed;
            }
            result.addMedian("setup_s", "s", setups);
            result.addMedian("peak_rss_mb", "MiB", peaks);
        }
        const bool correct = child_ok && result.checks.failed == 0 &&
                             result.checks.attempted > 0;
        all_correct = all_correct && correct;
        const std::vector<Metric> metrics = selectMetrics(
            result, config.traced ? spec.perLayer : spec.endToEnd);
        printHuman(*def, correct, result, metrics);
        const std::string record =
            recordLine(*def, config, git, correct, result, metrics);
        if (out_file)
            std::fprintf(out_file, "%s\n", record.c_str());
        last_contract = contractLine(correct, result, metrics);
        std::fflush(stdout);
    }
    if (out_file)
        std::fclose(out_file);
    if (selected.size() == 1)
        std::printf("%s\n", last_contract.c_str());
    else
        std::printf("pmdb_bench: %zu workloads, %s\n", selected.size(),
                    all_correct ? "all checks passed" : "CHECKS FAILED");
    return all_correct ? 0 : 1;
}
