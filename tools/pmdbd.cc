/**
 * @file
 * pmdbd — the out-of-process detection daemon.
 *
 * Listens on a Unix-domain socket for trace-stream sessions (see
 * src/service/), runs each session's stream through its own detector
 * on a pool of worker threads, and replies to every client with its
 * bug report.
 *
 * `--help` lists the flags. The --json aggregate carries per-session
 * attribution (batches drained, events/s, queue-full stalls, bug
 * sites) and the metrics snapshot, which holds every daemon counter;
 * --metrics-sock clients send "json" or "prom" and get that snapshot
 * back (see tools/pmdb_stat).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/cli.hh"
#include "service/daemon.hh"

namespace
{

std::atomic<bool> interrupted{false};

void
onSignal(int)
{
    interrupted.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    ServiceConfig config;
    std::size_t once = 0;
    bool json = false;
    cli::Parser cli(
        "pmdbd", "--socket PATH [options]",
        {
            cli::flag("--socket", "PATH", &config.socketPath,
                      "listen on this Unix-domain socket (required)"),
            cli::flag("--workers", "N", &config.pool.shards,
                      "detector worker threads (default 1)"),
            cli::flag("--array-capacity", "N",
                      &config.pool.arrayCapacity,
                      "per-session store-array capacity"),
            cli::flag("--pollers", "N", &config.pollers,
                      "ring-poller threads multiplexing client rings"),
            cli::flag("--once", "N", &once,
                      "exit after N sessions complete (default: run "
                      "until SIGINT/SIGTERM)"),
            cli::flag("--json", &json,
                      "print the aggregated per-session report on exit"),
            cli::flag("--metrics-sock", "PATH", &config.metricsSocketPath,
                      "serve live metrics snapshots on PATH"),
            cli::flag("--trace-out", "FILE", &config.traceOutPath,
                      "write a Chrome/Perfetto span trace on exit"),
        });
    cli.parseOrExit(argc, argv);
    if (config.socketPath.empty())
        cli.fail("--socket is required");

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    ServiceDaemon daemon(config);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "pmdbd: %s\n", error.c_str());
        return exitFailure;
    }
    std::fprintf(stderr,
                 "pmdbd: listening on %s (%zu workers, %zu pollers)\n",
                 config.socketPath.c_str(), config.pool.shards,
                 config.pollers ? config.pollers : 1);

    if (cli.given("--once")) {
        while (!interrupted.load() && !daemon.waitForSessions(once, 200)) {
        }
    } else {
        while (!interrupted.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
    }
    daemon.stop();

    if (json)
        std::printf("%s\n", daemon.aggregatedJson().c_str());
    std::fprintf(stderr, "pmdbd: served %zu session(s)\n",
                 daemon.completedSessions());
    return 0;
}
