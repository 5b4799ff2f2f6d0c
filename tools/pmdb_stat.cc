/**
 * @file
 * pmdb_stat — live pmdbd introspection client.
 *
 * Attaches to a running daemon's --metrics-sock endpoint and renders
 * the snapshot: top-line ingest counters, per-session event rates,
 * and per-rule-class evaluation-latency histograms (p50/p95/p99).
 * Watch mode refreshes every --interval seconds with rates computed
 * from successive snapshots; `--help` lists the flags.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/cli.hh"
#include "service/transport.hh"
#include "telemetry/metrics.hh"

namespace
{

std::atomic<bool> interrupted{false};

void
onSignal(int)
{
    interrupted.store(true);
}

/**
 * One request/response round trip: connect, send the format word,
 * read until the daemon closes. Empty string on failure.
 */
std::string
fetch(const std::string &socketPath, const std::string &format,
      std::string *error)
{
    const int fd = pmdb::connectUnix(socketPath, 2000, error);
    if (fd < 0)
        return {};
    std::string reply;
    const std::string request = format + "\n";
    if (::write(fd, request.data(), request.size()) !=
        static_cast<ssize_t>(request.size())) {
        if (error)
            *error = "short write to metrics socket";
        ::close(fd);
        return {};
    }
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = std::strerror(errno);
            ::close(fd);
            return {};
        }
        if (n == 0)
            break;
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

/** Split "base{label=\"value\"}" into (base, value); value empty when
 *  the name carries no label block. */
std::pair<std::string, std::string>
splitLabel(const std::string &name)
{
    const std::size_t brace = name.find('{');
    if (brace == std::string::npos)
        return {name, {}};
    const std::size_t open = name.find('"', brace);
    const std::size_t close =
        open == std::string::npos ? std::string::npos
                                  : name.find('"', open + 1);
    if (close == std::string::npos)
        return {name.substr(0, brace), {}};
    return {name.substr(0, brace),
            name.substr(open + 1, close - open - 1)};
}

std::int64_t
valueOf(const pmdb::telemetry::MetricsSnapshot &snap,
        const std::string &name)
{
    const pmdb::telemetry::MetricSample *s = snap.find(name);
    return s ? s->value : 0;
}

/** Collect samples whose name is base{key=\"...\"}, keyed by label. */
std::map<std::string, const pmdb::telemetry::MetricSample *>
byLabel(const pmdb::telemetry::MetricsSnapshot &snap,
        const std::string &base)
{
    std::map<std::string, const pmdb::telemetry::MetricSample *> out;
    const std::string prefix = base + "{";
    for (const pmdb::telemetry::MetricSample &s : snap.samples) {
        if (s.name.compare(0, prefix.size(), prefix) == 0)
            out[splitLabel(s.name).second] = &s;
    }
    return out;
}

void
render(const pmdb::telemetry::MetricsSnapshot &snap,
       const pmdb::telemetry::MetricsSnapshot *prev, double dtSec)
{
    using pmdb::telemetry::MetricSample;

    const std::int64_t events = valueOf(snap, "pmdbd.events_drained");
    const std::int64_t frames = valueOf(snap, "pmdbd.frames_drained");
    const std::int64_t polls = valueOf(snap, "pmdbd.polls");
    const std::int64_t idle = valueOf(snap, "pmdbd.idle_polls");
    const std::int64_t done =
        valueOf(snap, "pmdbd.sessions_completed");

    double eventRate = 0.0;
    if (prev && dtSec > 0.0) {
        eventRate = static_cast<double>(
                        events - valueOf(*prev,
                                         "pmdbd.events_drained")) /
                    dtSec;
    }
    const double idleFrac =
        polls ? static_cast<double>(idle) /
                    static_cast<double>(polls)
              : 0.0;
    std::printf("pmdbd: %lld events (%lld frames) drained, "
                "%lld session(s) done, idle-poll ratio %.3f",
                static_cast<long long>(events),
                static_cast<long long>(frames),
                static_cast<long long>(done), idleFrac);
    if (prev)
        std::printf(", %.0f events/s", eventRate);
    std::printf("\n");

    const auto sessions = byLabel(snap, "pmdbd.session.events");
    if (!sessions.empty()) {
        std::printf("\n%-10s %12s %10s %10s %6s\n", "session",
                    "events", "batches", "events/s", "live");
        const auto batches = byLabel(snap, "pmdbd.session.batches");
        const auto live = byLabel(snap, "pmdbd.session.live");
        const auto prevSessions =
            prev ? byLabel(*prev, "pmdbd.session.events")
                 : std::map<std::string, const MetricSample *>{};
        for (const auto &[id, sample] : sessions) {
            double rate = 0.0;
            const auto prevIt = prevSessions.find(id);
            if (prevIt != prevSessions.end() && dtSec > 0.0) {
                rate = static_cast<double>(sample->value -
                                           prevIt->second->value) /
                       dtSec;
            }
            const auto batchIt = batches.find(id);
            const auto liveIt = live.find(id);
            std::printf("%-10s %12lld %10lld %10.0f %6s\n",
                        id.c_str(),
                        static_cast<long long>(sample->value),
                        static_cast<long long>(
                            batchIt != batches.end()
                                ? batchIt->second->value
                                : 0),
                        rate,
                        liveIt != live.end() &&
                                liveIt->second->value
                            ? "yes"
                            : "no");
        }
    }

    bool header = false;
    for (const MetricSample &s : snap.samples) {
        if (s.kind != MetricSample::Kind::Histogram || !s.hist.count)
            continue;
        const auto [base, label] = splitLabel(s.name);
        if (base != "detector.eval_ns" &&
            base != "pmdbd.shard.queue_wait_ns" &&
            base != "pmdbd.shard.eval_ns" &&
            base != "pmdbd.ring_residency_ns" &&
            base != "detector.store_run_ns")
            continue;
        if (!header) {
            std::printf("\n%-28s %10s %10s %10s %10s\n", "latency",
                        "count", "p50(us)", "p95(us)", "p99(us)");
            header = true;
        }
        const std::string title =
            label.empty() ? base : base + "[" + label + "]";
        std::printf("%-28s %10llu %10.1f %10.1f %10.1f\n",
                    title.c_str(),
                    static_cast<unsigned long long>(s.hist.count),
                    static_cast<double>(s.hist.quantile(0.50)) / 1e3,
                    static_cast<double>(s.hist.quantile(0.95)) / 1e3,
                    static_cast<double>(s.hist.quantile(0.99)) / 1e3);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    bool once = false;
    bool rawJson = false;
    bool rawProm = false;
    unsigned intervalSec = 2;
    using namespace pmdb;
    cli::Parser cli(
        "pmdb_stat", "--socket PATH [options]",
        {
            cli::flag("--socket", "PATH", &socketPath,
                      "the daemon's metrics socket (--metrics-sock)"),
            cli::flag("--once", &once, "print one snapshot and exit"),
            cli::flag("--interval", "SEC", &intervalSec,
                      "watch-mode refresh period (default 2)"),
            cli::flag("--json", &rawJson, "dump the JSON snapshot, exit"),
            cli::flag("--prom", &rawProm, "dump Prometheus text, exit"),
        });
    cli.parseOrExit(argc, argv);
    if (socketPath.empty())
        cli.fail("--socket is required");
    if (rawJson && rawProm)
        cli.fail("--json and --prom are exclusive");
    if (intervalSec == 0)
        intervalSec = 1;

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::string error;
    if (rawJson || rawProm) {
        const std::string reply =
            fetch(socketPath, rawProm ? "prom" : "json", &error);
        if (reply.empty()) {
            std::fprintf(stderr, "pmdb_stat: %s\n", error.c_str());
            return pmdb::exitFailure;
        }
        std::fwrite(reply.data(), 1, reply.size(), stdout);
        return 0;
    }

    pmdb::telemetry::MetricsSnapshot prev;
    bool havePrev = false;
    auto prevAt = std::chrono::steady_clock::now();
    for (;;) {
        const std::string reply = fetch(socketPath, "json", &error);
        if (reply.empty()) {
            std::fprintf(stderr, "pmdb_stat: %s\n", error.c_str());
            return pmdb::exitFailure;
        }
        pmdb::telemetry::MetricsSnapshot snap;
        if (!pmdb::telemetry::MetricsSnapshot::fromJson(reply, &snap,
                                                        &error)) {
            std::fprintf(stderr,
                         "pmdb_stat: malformed snapshot: %s\n",
                         error.c_str());
            return pmdb::exitFailure;
        }
        const auto now = std::chrono::steady_clock::now();
        const double dt =
            std::chrono::duration<double>(now - prevAt).count();
        if (!once)
            std::printf("\033[H\033[2J");
        render(snap, havePrev ? &prev : nullptr, dt);
        std::fflush(stdout);
        if (once)
            return 0;
        prev = std::move(snap);
        havePrev = true;
        prevAt = now;
        for (unsigned slept = 0;
             slept < intervalSec * 10 && !interrupted.load();
             ++slept) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
        if (interrupted.load())
            return 0;
    }
}
