/**
 * @file
 * pmdb_run — the repository's equivalent of the paper artifact's
 * `run.sh <CHECKER> <INPUTSIZE> <WORKLOAD>` scripts: run one workload
 * under one detector and print the bug report and bookkeeping
 * statistics (optionally as JSON).
 *
 * Usage: `pmdb_run <checker> <inputsize> <workload> [options]`;
 * `--help` lists the flags, `--list` the checkers and workloads.
 *
 * With --connect, detection runs out-of-process: the event stream is
 * shipped to a pmdbd daemon at SOCKET and the daemon's report is
 * printed. The checker must be "pmdebugger" (that is what the daemon
 * runs).
 *
 * With --shared-pool, the workload maps the given multi-writer pool
 * file as writer N (shared-pool workloads only, e.g. shared_queue);
 * combined with --connect, the daemon additionally merges all
 * sessions on the same pool and runs the cross-session rules
 * (pmdb_crossproc drives this two-writer setup end to end).
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include <unistd.h>

#include "common/cli.hh"
#include "common/stopwatch.hh"
#include "core/report.hh"
#include "detectors/pmtest.hh"
#include "detectors/registry.hh"
#include "service/remote_sink.hh"
#include "trace/recorder.hh"
#include "trace/trace_file.hh"
#include "workloads/workload.hh"

namespace
{

/**
 * Print the registered checker and workload names, one per line,
 * grouped under a header — script-friendly discovery instead of
 * erroring on an unknown name.
 */
void
listRegistries()
{
    std::printf("checkers:\n");
    for (const std::string &name : pmdb::detectorNames())
        std::printf("  %s\n", name.c_str());
    std::printf("  none\n");
    std::printf("workloads:\n");
    for (const std::string &name : pmdb::workloadNames())
        std::printf("  %s\n", name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    WorkloadOptions options;
    std::string trace_out;
    std::string connect_socket;
    std::uint32_t ring_slots = 4096;
    bool json = false;
    bool list = false;
    cli::Parser cli(
        "pmdb_run", "<checker> <inputsize> <workload> [options]",
        {
            cli::flag("--threads", "N", &options.threads,
                      "workload threads"),
            cli::flag("--fault", "NAME",
                      [&](const std::string &name) {
                          options.faults.enable(name);
                          return true;
                      },
                      "enable a fault injection (repeatable)"),
            cli::flag("--set-ratio", "R", &options.setRatio,
                      "memcached/redis set fraction"),
            cli::flag("--seed", "S", &options.seed, "workload seed"),
            cli::flag("--trace-out", "FILE", &trace_out,
                      "record the event trace to FILE"),
            cli::flag("--json", &json, "print the report as JSON"),
            cli::flag("--connect", "SOCKET", &connect_socket,
                      "detect out-of-process in the pmdbd at SOCKET"),
            // An unchecked value would turn "-1" into 4 billion slots
            // and a multi-hundred-GB ring mapping.
            cli::flag("--ring-slots", "N", &ring_slots,
                      "client ring slots, 1..4194304", 1, 1u << 22),
            cli::flag("--shared-pool", "FILE", &options.sharedPoolPath,
                      "map the multi-writer pool FILE"),
            cli::flag("--writer", "N", &options.sharedWriter,
                      "writer id within the shared pool"),
            cli::flag("--list", &list,
                      "list checkers and workloads, then exit"),
        },
        0, 3);
    cli.parseOrExit(argc, argv);
    if (list) {
        listRegistries();
        return 0;
    }
    if (cli.args().size() != 3)
        cli.fail("expected <checker> <inputsize> <workload>");
    const std::string &checker = cli.args()[0];
    const std::string &workload_name = cli.args()[2];
    std::uint64_t ops = 0;
    if (!cli::parseUnsigned(cli.args()[1].c_str(), 0, UINT64_MAX, &ops))
        cli.fail("bad <inputsize> '" + cli.args()[1] + "'");
    options.operations = ops;

    auto workload = makeWorkload(workload_name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload_name.c_str());
        return exitUsage;
    }

    PmRuntime runtime;

    if (!connect_socket.empty()) {
        if (checker != "pmdebugger") {
            std::fprintf(stderr,
                         "--connect runs the daemon's pmdebugger; "
                         "pass 'pmdebugger' as the checker\n");
            return exitUsage;
        }
        RemoteSink::Options ropts;
        ropts.socketPath = connect_socket;
        ropts.ringPath =
            "/tmp/pmdb_client." + std::to_string(::getpid()) + ".ring";
        ropts.ringSlots = ring_slots;
        ropts.model = workload->model();
        ropts.orderSpecText = workload->orderSpecText();
        ropts.sharedPoolPath = options.sharedPoolPath;
        ropts.sharedWriterId = options.sharedWriter;

        RemoteSink sink;
        std::string error;
        if (!sink.connect(ropts, &error)) {
            std::fprintf(stderr, "pmdbd connect failed: %s\n",
                         error.c_str());
            return exitFailure;
        }
        runtime.attach(&sink);

        Stopwatch watch;
        workload->run(runtime, options);
        const double seconds = watch.elapsedSeconds();

        ReportBody report;
        if (!sink.finish(&report, &error)) {
            std::fprintf(stderr, "pmdbd session failed: %s\n",
                         error.c_str());
            return exitFailure;
        }
        // The daemon ships the verdict, not a rendering of it.
        BugCollector bugs;
        for (const BugReport &bug : report.bugs)
            bugs.report(bug);
        if (json) {
            std::printf("%s\n", reportToJson(bugs, report.stats).c_str());
        } else {
            std::printf("%s via pmdbd: %zu ops in %.4fs\n",
                        workload_name.c_str(), options.operations,
                        seconds);
            std::printf("events: %llu processed\n",
                        static_cast<unsigned long long>(
                            report.eventsProcessed));
            std::printf("%s", bugs.summary().c_str());
        }
        return 0;
    }

    DebuggerConfig config;
    config.model = workload->model();
    if (!workload->orderSpecText().empty())
        config.orderSpec = OrderSpec::fromText(workload->orderSpecText());

    std::unique_ptr<Detector> detector;
    if (checker != "none") {
        detector = makeDetector(checker, config);
        if (!detector) {
            std::fprintf(stderr, "unknown checker '%s'\n",
                         checker.c_str());
            return exitUsage;
        }
        runtime.attach(detector.get());
        if (checker == "pmtest") {
            options.pmtest =
                static_cast<PmTestDetector *>(detector.get());
        }
    }

    TraceRecorder recorder;
    if (!trace_out.empty())
        runtime.attach(&recorder);

    Stopwatch watch;
    workload->run(runtime, options);
    runtime.drain();
    const double seconds = watch.elapsedSeconds();
    if (detector)
        detector->finalize();

    if (!trace_out.empty()) {
        std::string error;
        if (!writeTraceFile(trace_out, recorder.events(),
                            runtime.names(), &error)) {
            std::fprintf(stderr, "trace write failed: %s\n",
                         error.c_str());
            return exitFailure;
        }
        std::fprintf(stderr, "trace: %zu events -> %s\n",
                     recorder.events().size(), trace_out.c_str());
    }

    if (!detector) {
        std::printf("%s: %zu ops in %.4fs (no checker)\n",
                    workload_name.c_str(), options.operations, seconds);
        return 0;
    }

    if (json) {
        std::printf("%s\n",
                    reportToJson(detector->bugs(), detector->stats())
                        .c_str());
    } else {
        std::printf("%s under %s: %zu ops in %.4fs\n",
                    workload_name.c_str(), checker.c_str(),
                    options.operations, seconds);
        std::printf("%s", detector->bugs().summary().c_str());
        std::printf("%s\n", detector->stats().toString().c_str());
    }
    return 0;
}
