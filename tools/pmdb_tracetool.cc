/**
 * @file
 * pmdb_tracetool — record, inspect, characterize, replay, minimize and
 * repair instrumented PM traces (the record-once / analyze-many
 * workflow).
 *
 * Subcommands: record, info, charz (Section 3 characterization),
 * replay, crashsim, minimize, repair, gen-fingerprints; `--help` lists
 * each one's arguments and flags.
 *
 * Exit codes (ToolExit): 3 unknown workload/checker/case name, 4
 * unreadable or corrupt trace file, 5 trace loaded but its tail was
 * truncated (info only; the longest valid prefix was recovered), 6
 * no verified repair / target bug not reproduced. The failing file or
 * name is printed to stderr.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "advise/advise.hh"
#include "charz/characterize.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "core/report.hh"
#include "crashsim/crash_points.hh"
#include "detectors/registry.hh"
#include "repair/case_repair.hh"
#include "repair/minimize.hh"
#include "repair/patch.hh"
#include "trace/recorder.hh"
#include "trace/trace_file.hh"
#include "workloads/suite_runner.hh"
#include "workloads/workload.hh"

namespace
{

/** Every subcommand's flag values; each command reads its own. */
struct ToolOptions
{
    pmdb::FaultSet faults;
    bool correct = false;
    pmdb::CaseParams params;
    bool sites = false;
    bool json = false;
    bool fingerprints = false;
    std::string caseName;
    pmdb::CrashsimOptions crash;
    pmdb::MinimizeOptions minimize;
};

/**
 * Load a trace or fail with exitBadTrace, naming the file. A trace with
 * a torn tail is usable (the longest valid prefix), so it loads with a
 * warning; `info` surfaces the flag and its own exit code.
 */
bool
loadTrace(const char *path, pmdb::LoadedTrace *trace,
          bool *truncated = nullptr)
{
    std::string error;
    bool torn = false;
    if (!pmdb::readTraceFile(path, trace, &torn, &error)) {
        std::fprintf(stderr, "%s: %s\n", path, error.c_str());
        return false;
    }
    if (torn && !truncated) {
        std::fprintf(stderr,
                     "%s: warning: trace truncated mid-record; "
                     "using the recovered prefix (%zu events)\n",
                     path, trace->events.size());
    }
    if (truncated)
        *truncated = torn;
    return true;
}

/**
 * Resolve the (trace, case) pair for minimize/repair: either
 * `case:<name>` (record the suite case in-process) or a trace file
 * plus `--case <name>` for the detector configuration and target.
 * Returns 0 on success, else the exit code.
 */
int
resolveSource(const pmdb::cli::Parser &cli, const std::string &source,
              const std::string &case_name, pmdb::LoadedTrace *trace,
              const pmdb::BugCase **bug_case)
{
    using namespace pmdb;
    if (source.rfind("case:", 0) == 0) {
        const std::string name = source.substr(5);
        *bug_case = findBugCase(name);
        if (!*bug_case) {
            std::fprintf(stderr, "unknown bug-suite case '%s'\n",
                         name.c_str());
            return exitUnknownName;
        }
        *trace = recordCaseTrace(**bug_case);
        return 0;
    }
    if (case_name.empty()) {
        cli.fail("a trace-file source needs --case <name> for the "
                 "detector configuration");
    }
    *bug_case = findBugCase(case_name);
    if (!*bug_case) {
        std::fprintf(stderr, "unknown bug-suite case '%s'\n",
                     case_name.c_str());
        return exitUnknownName;
    }
    if (!loadTrace(source.c_str(), trace))
        return exitBadTrace;
    return 0;
}

int
cmdRecord(const pmdb::cli::Parser &cli, const ToolOptions &opt)
{
    using namespace pmdb;
    const std::vector<std::string> &args = cli.args();
    const std::string &source = args[0];
    const bool case_form = source.rfind("case:", 0) == 0;
    if (args.size() != (case_form ? 2u : 3u))
        cli.fail("record takes <workload> <ops> <out.trc> or "
                 "case:<name> <out.trc>");
    for (const char *flag :
         {"--correct", "--seed", "--threads", "--ycsb-mix", "--ops"}) {
        if (!case_form && cli.given(flag))
            cli.fail(std::string(flag) + " applies to case:<name> only");
    }
    if (case_form && cli.given("--fault"))
        cli.fail("--fault applies to <workload> recording only");

    const char *out_path = args.back().c_str();
    if (case_form) {
        const BugCase *bug_case = findBugCase(source.substr(5));
        if (!bug_case) {
            std::fprintf(stderr, "unknown bug-suite case '%s'\n",
                         source.substr(5).c_str());
            return exitUnknownName;
        }
        const LoadedTrace trace =
            recordCaseTrace(*bug_case, !opt.correct, &opt.params);
        std::string error;
        if (!writeTraceFile(out_path, trace.events, trace.names, &error)) {
            std::fprintf(stderr, "%s: %s\n", out_path, error.c_str());
            return exitBadTrace;
        }
        std::printf("recorded %zu events from case %s (%s, %s) -> %s\n",
                    trace.events.size(), bug_case->name.c_str(),
                    opt.correct ? "correct" : "buggy",
                    opt.params.label().c_str(), out_path);
        return 0;
    }

    auto workload = makeWorkload(source);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", source.c_str());
        return exitUnknownName;
    }
    WorkloadOptions options;
    std::uint64_t ops = 0;
    if (!cli::parseUnsigned(args[1].c_str(), 0, UINT64_MAX, &ops))
        cli.fail("bad <ops> '" + args[1] + "'");
    options.operations = ops;
    options.faults = opt.faults;

    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    workload->run(runtime, options);

    std::string error;
    if (!writeTraceFile(out_path, recorder.events(), runtime.names(),
                        &error)) {
        std::fprintf(stderr, "%s: %s\n", out_path, error.c_str());
        return exitBadTrace;
    }
    std::printf("recorded %zu events from %s -> %s\n",
                recorder.events().size(), source.c_str(), out_path);
    return 0;
}

int
cmdInfo(const char *path, bool sites)
{
    using namespace pmdb;
    LoadedTrace trace;
    bool truncated = false;
    if (!loadTrace(path, &trace, &truncated))
        return exitBadTrace;
    std::uint64_t counts[16] = {};
    for (const Event &event : trace.events)
        ++counts[static_cast<int>(event.kind)];
    std::printf("%s: %zu events, %zu interned names\n", path,
                trace.events.size(), trace.names.size());
    for (int k = 0; k < 16; ++k) {
        if (counts[k]) {
            std::printf("  %-14s %llu\n",
                        toString(static_cast<EventKind>(k)),
                        static_cast<unsigned long long>(counts[k]));
        }
    }
    if (sites) {
        // Program sites interned by SiteScope annotations, with the
        // number of events each one emitted — the advisory engine's
        // attribution domain for this trace.
        const auto site_counts = siteEventCounts(trace);
        std::printf("sites: %zu\n", site_counts.size());
        for (const auto &[site, count] : site_counts) {
            std::printf("  %-48s %llu\n", site.c_str(),
                        static_cast<unsigned long long>(count));
        }
        if (site_counts.empty()) {
            std::printf("  (trace recorded without site annotations)\n");
        }
    }
    // Structural crash-surface summary: where a crash-state
    // exploration could cut this trace (per-boundary histogram) and
    // how many candidate images a bounded enumeration would cover.
    const CrashScanSummary scan = scanCrashPoints(trace.events);
    std::printf("crash surface:\n");
    const std::string scan_text = scan.toString();
    std::size_t at = 0;
    while (at < scan_text.size()) {
        std::size_t end = scan_text.find('\n', at);
        if (end == std::string::npos)
            end = scan_text.size();
        std::printf("  %s\n",
                    scan_text.substr(at, end - at).c_str());
        at = end + 1;
    }
    std::printf("  truncated      %s\n", truncated ? "yes" : "no");
    if (truncated) {
        std::fprintf(stderr,
                     "%s: trace truncated mid-record; the "
                     "counts above cover the recovered prefix\n",
                     path);
        return exitTruncated;
    }
    return 0;
}

int
cmdCharz(const char *path)
{
    using namespace pmdb;
    LoadedTrace trace;
    if (!loadTrace(path, &trace))
        return exitBadTrace;
    const CharacterizationResult result = characterize(trace.events);
    std::printf("%s\n", result.toString().c_str());
    return 0;
}

int
cmdReplay(const pmdb::cli::Parser &cli, const ToolOptions &opt)
{
    using namespace pmdb;
    LoadedTrace trace;
    if (!loadTrace(cli.args()[0].c_str(), &trace))
        return exitBadTrace;

    // Replay under the detector configuration the suite would drive
    // --case with (model + order spec) — required for the ordering
    // rules to see anything.
    DebuggerConfig config;
    if (cli.given("--case")) {
        const BugCase *bug_case = findBugCase(opt.caseName);
        if (!bug_case) {
            std::fprintf(stderr, "unknown case '%s'\n",
                         opt.caseName.c_str());
            return exitUnknownName;
        }
        config = debuggerConfigFor(*bug_case);
    }

    const std::string &checker = cli.args()[1];
    auto detector = makeDetector(checker, config);
    if (!detector) {
        std::fprintf(stderr, "unknown checker '%s'\n", checker.c_str());
        return exitUnknownName;
    }
    detector->attached(trace.names);
    TraceReplayer replayer(trace.events);
    replayer.replay(*detector);
    detector->finalize();

    if (opt.fingerprints) {
        for (const BugFingerprint &fp : detector->bugs().fingerprints())
            std::printf("%s\n", fp.toString().c_str());
    } else if (opt.json) {
        std::printf("%s\n", reportToJson(detector->bugs()).c_str());
    } else {
        std::printf("%s", detector->bugs().summary().c_str());
    }
    return 0;
}

int
cmdCrashsim(const char *path, const pmdb::CrashsimOptions &options)
{
    using namespace pmdb;
    LoadedTrace trace;
    if (!loadTrace(path, &trace))
        return exitBadTrace;

    const CrashScanSummary summary =
        scanCrashPoints(trace.events, options);
    std::printf("%s: %s\n", path, summary.toString().c_str());
    std::printf("(structural scan: traces carry no store payloads; "
                "full exploration with recovery\n verifiers needs a "
                "live capture — see pmdb_crashsim)\n");
    return 0;
}

int
cmdMinimize(const pmdb::cli::Parser &cli, const ToolOptions &opt)
{
    using namespace pmdb;
    LoadedTrace trace;
    const BugCase *bug_case = nullptr;
    if (const int rc = resolveSource(cli, cli.args()[0], opt.caseName,
                                     &trace, &bug_case)) {
        return rc;
    }
    const char *out_path = cli.args()[1].c_str();

    BugFingerprint target;
    if (!caseTarget(*bug_case, trace, &target)) {
        std::fprintf(stderr,
                     "case %s: expected bug does not reproduce on this "
                     "trace (cross-failure bugs need live verifiers)\n",
                     bug_case->name.c_str());
        return exitNoRepair;
    }

    const MinimizeResult result = minimizeWitness(
        trace, target, debuggerConfigFor(*bug_case), opt.minimize);
    if (!result.reproduced) {
        std::fprintf(stderr, "target %s not reproduced on full trace\n",
                     target.toString().c_str());
        return exitNoRepair;
    }

    std::string error;
    if (!writeTraceFile(out_path, result.events, trace.names, &error)) {
        std::fprintf(stderr, "%s: %s\n", out_path, error.c_str());
        return exitBadTrace;
    }
    std::printf("target     %s\n", target.toString().c_str());
    std::printf("minimized  %zu -> %zu events (%.1fx), %llu replays "
                "(%llu cached) -> %s\n",
                result.stats.originalEvents,
                result.stats.minimizedEvents,
                result.stats.shrinkFactor(),
                static_cast<unsigned long long>(result.stats.replays),
                static_cast<unsigned long long>(result.stats.cacheHits),
                out_path);
    return 0;
}

int
cmdRepair(const pmdb::cli::Parser &cli, const ToolOptions &opt)
{
    using namespace pmdb;
    LoadedTrace trace;
    const BugCase *bug_case = nullptr;
    if (const int rc = resolveSource(cli, cli.args()[0], opt.caseName,
                                     &trace, &bug_case)) {
        return rc;
    }
    const char *out_path = cli.args()[1].c_str();

    BugFingerprint target;
    if (!caseTarget(*bug_case, trace, &target)) {
        std::fprintf(stderr,
                     "case %s: expected bug does not reproduce on this "
                     "trace (cross-failure bugs need live verifiers)\n",
                     bug_case->name.c_str());
        return exitNoRepair;
    }

    const RepairResult result =
        repairTrace(trace, target, debuggerConfigFor(*bug_case));
    // Machine-readable patch: one record per edit with the same
    // program-site attribution the advisory engine clusters on.
    JsonWriter json;
    json.beginObject()
        .field("case", bug_case->name)
        .field("target", target.toString())
        .field("verified", result.verified);
    if (result.verified)
        json.field("strategy", result.patch.strategy);
    json.field("candidates", result.candidatesTried)
        .field("replays", result.replays);
    if (!opt.json)
        std::printf("target     %s\n", target.toString().c_str());
    if (!result.verified) {
        if (opt.json)
            std::printf("%s\n", json.endObject().str().c_str());
        std::fprintf(stderr,
                     "no verified repair for %s (%zu candidates, %llu "
                     "replays)\n",
                     target.toString().c_str(), result.candidatesTried,
                     static_cast<unsigned long long>(result.replays));
        return exitNoRepair;
    }

    std::string error;
    if (!writeTraceFile(out_path, result.patchedEvents, trace.names,
                        &error)) {
        std::fprintf(stderr, "%s: %s\n", out_path, error.c_str());
        return exitBadTrace;
    }
    if (opt.json) {
        json.key("edits").beginArray();
        for (const TraceEdit &edit : result.patch.edits) {
            std::string site;
            if (edit.siteId != noName && edit.siteId < trace.names.size())
                site = trace.names.name(edit.siteId);
            json.beginObject()
                .field("op", edit.op == TraceEdit::Op::Insert ? "insert"
                                                              : "delete")
                .field("event", toString(edit.event.kind))
                .field("rule", toString(edit.rule))
                .field("site", site)
                .field("anchor_seq", edit.anchorSeq)
                .field("note", edit.note)
                .endObject();
        }
        std::printf("%s\n", json.endArray().endObject().str().c_str());
    } else {
        for (const std::string &line : result.advisory)
            std::printf("advisory   %s\n", line.c_str());
        std::printf("repaired   %zu edits verified in %zu candidates, "
                    "%llu replays -> %s\n",
                    result.patch.edits.size(), result.candidatesTried,
                    static_cast<unsigned long long>(result.replays),
                    out_path);
    }
    return 0;
}

int
cmdGenFingerprints(const std::vector<std::string> &args)
{
    using namespace pmdb;
    std::FILE *out = stdout;
    if (!args.empty()) {
        out = std::fopen(args[0].c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         args[0].c_str());
            return exitBadTrace;
        }
    }
    std::fprintf(out,
                 "// Expected PMDebugger bug fingerprints per suite "
                 "case.\n"
                 "// Generated by `pmdb_tracetool gen-fingerprints`; "
                 "do not edit by hand.\n");
    for (const BugCase &bug_case : bugSuite()) {
        for (const std::string &fp : caseFingerprints(bug_case)) {
            std::fprintf(out, "{\"%s\", \"%s\"},\n",
                         bug_case.name.c_str(), fp.c_str());
        }
    }
    if (out != stdout)
        std::fclose(out);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;
    ToolOptions opt;
    const auto case_name = cli::flag(
        "--case", "NAME", &opt.caseName,
        "bug-suite case: detector configuration and target");
    const auto json = cli::flag("--json", &opt.json, "print JSON");

    cli::Parser cli("pmdb_tracetool", "", {});
    cli.command(
        "record", "(<workload> <ops> | case:<name>) <out.trc> [options]",
        {
            cli::flag("--fault", "NAME",
                      [&](const std::string &name) {
                          opt.faults.enable(name);
                          return true;
                      },
                      "enable a fault injection (repeatable)"),
            cli::flag("--correct", &opt.correct,
                      "record the correct variant of the case"),
            cli::flag("--seed", "N", &opt.params.seed, "case seed"),
            cli::flag("--threads", "N", &opt.params.threads,
                      "case driver threads"),
            cli::flag("--ycsb-mix", "a..f",
                      [&](const std::string &mix) {
                          opt.params.ycsbMix = mix[0];
                          return mix.size() == 1 && mix[0] >= 'a' &&
                                 mix[0] <= 'f';
                      },
                      "case YCSB mix"),
            cli::flag("--ops", "N", &opt.params.operations,
                      "case operation count"),
        },
        2, 3);
    cli.command("info", "<file.trc> [--sites]",
                {cli::flag("--sites", &opt.sites,
                           "list program sites with event counts")},
                1, 1);
    cli.command("charz", "<file.trc>", {}, 1, 1);
    cli.command("replay", "<file.trc> <checker> [options]",
                {json,
                 cli::flag("--fingerprints", &opt.fingerprints,
                           "print one bug fingerprint per line"),
                 case_name},
                2, 2);
    cli.command(
        "crashsim", "<file.trc> [options]",
        {
            cli::flag("--flush-points", &opt.crash.captureAtFlush,
                      "also capture a crash point per line a CLF queues"),
            cli::flag("--max-pending", "K", &opt.crash.maxPendingLines,
                      "pending-line cap per crash point"),
            cli::flag("--max-images", "N", &opt.crash.maxImagesPerPoint,
                      "candidate-image cap per crash point"),
            cli::flag("--no-epoch-atomic", &opt.crash.epochAtomic,
                      "sweep inside transactions too", false),
        },
        1, 1);
    cli.command("minimize", "(case:<name> | <in.trc>) <out.trc> [options]",
                {case_name,
                 cli::flag("--max-replays", "N", &opt.minimize.maxReplays,
                           "oracle replay budget")},
                2, 2);
    cli.command("repair", "(case:<name> | <in.trc>) <out.trc> [options]",
                {case_name, json}, 2, 2);
    cli.command("gen-fingerprints", "[<out.inc>]", {}, 0, 1);
    cli.parseOrExit(argc, argv);

    const std::string &command = cli.subcommand();
    if (command == "record")
        return cmdRecord(cli, opt);
    if (command == "info")
        return cmdInfo(cli.args()[0].c_str(), opt.sites);
    if (command == "charz")
        return cmdCharz(cli.args()[0].c_str());
    if (command == "replay")
        return cmdReplay(cli, opt);
    if (command == "crashsim")
        return cmdCrashsim(cli.args()[0].c_str(), opt.crash);
    if (command == "minimize")
        return cmdMinimize(cli, opt);
    if (command == "repair")
        return cmdRepair(cli, opt);
    return cmdGenFingerprints(cli.args());
}
