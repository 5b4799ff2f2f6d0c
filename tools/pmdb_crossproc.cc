/**
 * @file
 * pmdb_crossproc — two-writer shared-pool detection, end to end.
 *
 * Hosts a detection daemon in-process, creates a multi-writer
 * SharedPmemPool file, forks two client processes (producer and
 * consumer of the shared_queue workload), and prints the daemon's
 * cross-session verdict: the bugs only the merged two-writer event
 * stream can expose.
 *
 * `--create-pool` only lays out a pool file, for driving the writers
 * by hand via `pmdb_run --shared-pool`; `--help` lists the flags.
 *
 * Exit codes (ToolExit): 0 no cross-session bugs, 1 infrastructure
 * failure (daemon, client, or pool setup), 3 unknown fault/case name,
 * 8 cross-session bugs detected (the seeded-case success code).
 */

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/json.hh"
#include "pmem/shared_device.hh"
#include "service/daemon.hh"
#include "service/remote_sink.hh"
#include "workloads/shared_queue.hh"

namespace
{

/**
 * One forked writer: connect to the daemon (retrying while it boots),
 * run the shared_queue role, and ship the report handshake. The
 * process exits 0 on success — its event stream and verdict live in
 * the daemon.
 */
int
childMain(const std::string &socket_path, const std::string &pool_path,
          std::uint32_t writer, std::size_t ops, std::uint64_t seed,
          const std::string &fault)
{
    using namespace pmdb;

    SharedQueueWorkload workload;
    WorkloadOptions options;
    options.operations = ops;
    options.seed = seed;
    options.sharedPoolPath = pool_path;
    options.sharedWriter = writer;
    if (!fault.empty())
        options.faults.enable(fault);

    RemoteSink::Options ropts;
    ropts.socketPath = socket_path;
    ropts.ringPath = pool_path + ".w" + std::to_string(writer) + ".ring";
    ropts.model = workload.model();
    ropts.sharedPoolPath = pool_path;
    ropts.sharedWriterId = writer;

    RemoteSink sink;
    std::string error;
    bool connected = false;
    for (int attempt = 0; attempt < 200; ++attempt) {
        if (sink.connect(ropts, &error)) {
            connected = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (!connected) {
        std::fprintf(stderr, "writer %u: connect failed: %s\n", writer,
                     error.c_str());
        return 1;
    }

    PmRuntime runtime;
    runtime.attach(&sink);
    workload.run(runtime, options);

    ReportBody report;
    if (!sink.finish(&report, &error)) {
        std::fprintf(stderr, "writer %u: session failed: %s\n", writer,
                     error.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    std::size_t ops = 64;
    std::uint64_t seed = 42;
    std::size_t shards = 4;
    std::string fault;
    std::string case_name;
    std::string dir = "/tmp";
    std::string create_pool;
    bool json = false;
    bool list_cases = false;
    cli::Parser cli(
        "pmdb_crossproc", "[--fault NAME | --case NAME] [options]",
        {
            cli::flag("--ops", "N", &ops, "shared_queue operations"),
            cli::flag("--fault", "NAME", &fault,
                      "enable one shared_queue fault on both writers"),
            cli::flag("--case", "NAME", &case_name,
                      "shorthand for a seeded case's fault"),
            cli::flag("--shards", "N", &shards, "daemon detector shards"),
            cli::flag("--seed", "S", &seed, "workload seed"),
            cli::flag("--dir", "PATH", &dir,
                      "directory for the pool/ring/socket files"),
            cli::flag("--json", &json, "print the verdict as JSON"),
            cli::flag("--list-cases", &list_cases,
                      "list the seeded cases and exit"),
            cli::flag("--create-pool", "PATH", &create_pool,
                      "only lay out a shared_queue pool file sized for "
                      "--ops, then exit"),
        });
    cli.parseOrExit(argc, argv);
    if (list_cases) {
        for (const CrossprocCase &c : crossprocCases()) {
            std::printf("%s  (fault %s -> %s)\n", c.name.c_str(),
                        c.fault.c_str(), c.rule.c_str());
        }
        return exitOk;
    }
    if (!case_name.empty()) {
        fault.clear();
        for (const CrossprocCase &c : crossprocCases()) {
            if (c.name == case_name)
                fault = c.fault;
        }
        if (fault.empty()) {
            std::fprintf(stderr, "unknown case '%s' (--list-cases)\n",
                         case_name.c_str());
            return exitUnknownName;
        }
    }
    if (!fault.empty()) {
        bool known = false;
        for (const CrossprocCase &c : crossprocCases())
            known = known || c.fault == fault;
        if (!known) {
            std::fprintf(stderr, "unknown fault '%s' (--list-cases)\n",
                         fault.c_str());
            return exitUnknownName;
        }
    }

    if (!create_pool.empty()) {
        std::string err;
        if (!SharedPmemPool::createPoolFile(
                create_pool, SharedQueueWorkload::poolBytesFor(ops),
                &err)) {
            std::fprintf(stderr, "pool create failed: %s\n",
                         err.c_str());
            return exitFailure;
        }
        std::printf("created %s (%zu ops)\n", create_pool.c_str(), ops);
        return 0;
    }

    const std::string base =
        dir + "/pmdb_crossproc." + std::to_string(::getpid());
    const std::string pool_path = base + ".pool";
    const std::string socket_path = base + ".sock";

    std::string error;
    if (!SharedPmemPool::createPoolFile(
            pool_path, SharedQueueWorkload::poolBytesFor(ops), &error)) {
        std::fprintf(stderr, "pool create failed: %s\n", error.c_str());
        return exitFailure;
    }

    // Fork both writers *before* the daemon's threads exist, so the
    // children start from a clean single-threaded state; they retry
    // the connect while the daemon boots.
    std::vector<pid_t> children;
    for (const std::uint32_t writer :
         {SharedQueueWorkload::producerWriter,
          SharedQueueWorkload::consumerWriter}) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::fprintf(stderr, "fork failed: %s\n",
                         std::strerror(errno));
            return exitFailure;
        }
        if (pid == 0) {
            std::_Exit(childMain(socket_path, pool_path, writer, ops,
                                 seed, fault));
        }
        children.push_back(pid);
    }

    ServiceConfig config;
    config.socketPath = socket_path;
    config.pool.shards = shards;
    ServiceDaemon daemon(config);
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "daemon start failed: %s\n", error.c_str());
        for (const pid_t pid : children)
            ::kill(pid, SIGKILL);
        return exitFailure;
    }

    bool childFailed = false;
    for (const pid_t pid : children) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            childFailed = true;
        }
    }
    while (!daemon.waitForSessions(2, 200)) {
        if (childFailed)
            break;
    }
    daemon.stop();
    const auto results = daemon.crossprocResults();
    ::unlink(pool_path.c_str());
    if (childFailed) {
        std::fprintf(stderr, "a writer process failed\n");
        return exitFailure;
    }

    std::size_t crossBugs = 0;
    if (json) {
        JsonWriter out;
        out.beginObject()
            .field("tool", "crossproc")
            .field("ops", ops)
            .field("shards", shards)
            .field("fault", fault)
            .key("groups")
            .beginArray();
        for (const CrossGroupResult &group : results) {
            out.raw(group.toJson());
            crossBugs += group.bugs.size();
        }
        std::printf("%s\n", out.endArray().endObject().str().c_str());
    } else {
        std::printf("shared_queue: %zu ops, 2 writers, %zu shard(s)%s%s\n",
                    ops, shards,
                    fault.empty() ? "" : ", fault ", fault.c_str());
        for (const auto &group : results) {
            std::printf("pool %s: %llu shared events merged, "
                        "%zu cross-session bug(s)\n",
                        group.pool.c_str(),
                        static_cast<unsigned long long>(
                            group.eventsReplayed),
                        group.bugs.size());
            for (const CrossBug &bug : group.bugs)
                std::printf("  %s\n", bug.toString().c_str());
            crossBugs += group.bugs.size();
        }
        if (results.empty())
            std::printf("no shared-pool session group formed\n");
    }
    return crossBugs > 0 ? exitCrossBugs : 0;
}
