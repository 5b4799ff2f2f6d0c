/**
 * @file
 * pmdb_crashsim — drive the crash-state exploration engine.
 *
 * Usage (`--help` lists the flags):
 *   pmdb_crashsim case <name|all> [options]
 *       Run one (or every) cross-failure bug-suite case plus the
 *       crashsim-only seeded cases, buggy and correct variants, and
 *       report what the single-image checker vs the exploration
 *       engine found.
 *   pmdb_crashsim run <workload> [--ops N] [--fault NAME] [options]
 *       Run an evaluation workload (b_tree, hashmap_atomic) with its
 *       recovery verifier adopted and explore every crash point.
 *
 * Exit codes (ToolExit): 0 success (run mode: also when findings exist
 * — the report is the product), 1 a case behaved unexpectedly (missed
 * bug or false positive), 3 unknown case/workload name, 5 (run mode)
 * the image budget truncated enumeration at one or more crash points —
 * the explored set is a sample, not the full reachable crash-state
 * space; rerun with a larger --max-images/--max-pending for exhaustive
 * coverage.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "workloads/crashsim_runner.hh"

namespace
{

/** Cases the engine covers: suite xf cases + crashsim-only cases. */
std::vector<const pmdb::BugCase *>
engineCases()
{
    std::vector<const pmdb::BugCase *> cases =
        pmdb::casesOfType(pmdb::BugType::CrossFailureSemantic);
    for (const pmdb::BugCase &bug_case : pmdb::crashsimOnlyCases())
        cases.push_back(&bug_case);
    return cases;
}

void
printFindings(const pmdb::CrashsimResult &result, const char *indent)
{
    using namespace pmdb;
    for (const CrashsimFinding &finding : result.findings) {
        std::string lines;
        for (std::uint64_t line : finding.witnessLines) {
            if (!lines.empty())
                lines += ",";
            lines += std::to_string(line);
        }
        const std::string witness = finding.witnessLines.empty()
                                        ? "durable base image"
                                        : "witness lines [" + lines + "]";
        std::printf("%s%s seq %llu, %s: %s\n", indent,
                    toString(finding.boundary),
                    static_cast<unsigned long long>(finding.seq),
                    witness.c_str(), finding.detail.c_str());
    }
}

void
printStats(const pmdb::CrashsimStats &stats, double seconds,
           const char *indent)
{
    std::printf("%s%llu crash points (%llu epoch-coalesced, "
                "%llu truncated by bounds), %llu pending lines\n"
                "%s%llu images enumerated, %llu deduped, "
                "%llu verified, %llu minimize verifies\n"
                "%s%.4fs explore (%.0f points/s)\n",
                indent,
                static_cast<unsigned long long>(stats.points),
                static_cast<unsigned long long>(
                    stats.epochCoalescedPoints),
                static_cast<unsigned long long>(stats.truncatedPoints),
                static_cast<unsigned long long>(stats.pendingLines),
                indent,
                static_cast<unsigned long long>(stats.imagesEnumerated),
                static_cast<unsigned long long>(stats.imagesDeduped),
                static_cast<unsigned long long>(stats.imagesVerified),
                static_cast<unsigned long long>(stats.minimizeVerifies),
                indent, seconds,
                seconds > 0 ? static_cast<double>(stats.points) / seconds
                            : 0.0);
}

int
runCase(const pmdb::BugCase &bug_case,
        const pmdb::CrashsimOptions &options)
{
    using namespace pmdb;
    const CrashsimCaseOutcome outcome =
        runCrashsimCase(bug_case, options);

    std::printf("%s:\n  single-image checker: %s\n"
                "  engine (buggy): %zu finding(s)\n"
                "  engine (correct): %zu finding(s)\n",
                bug_case.name.c_str(),
                outcome.singleImageFound ? "found" : "missed",
                outcome.buggy.findings.size(),
                outcome.clean.findings.size());
    printFindings(outcome.buggy, "    ");
    printStats(outcome.buggy.stats, outcome.buggy.exploreSeconds,
               "  ");

    // cs_log_truncation_window runs a correct program for both
    // variants; under the default epoch-atomic exploration, quiet on
    // both is the expected outcome.
    const bool expect_buggy_finding =
        bug_case.name != "cs_log_truncation_window" ||
        !options.epochAtomic;
    int failures = 0;
    if (expect_buggy_finding && !outcome.engineFound) {
        std::printf("  FAIL: engine missed the seeded bug\n");
        ++failures;
    }
    if (!outcome.clean.findings.empty()) {
        std::printf("  FAIL: false positive on the correct variant\n");
        ++failures;
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    CrashsimOptions options;
    WorkloadOptions wl_options;
    wl_options.operations = 20;
    bool json = false;
    cli::Parser cli(
        "pmdb_crashsim", "",
        {
            cli::flag("--workers", "N", &options.workers,
                      "verification worker threads (default 1)"),
            cli::flag("--max-pending", "K", &options.maxPendingLines,
                      "pending-line cap per crash point (default 12)"),
            cli::flag("--max-images", "N", &options.maxImagesPerPoint,
                      "candidate-image cap per crash point (default 256)"),
            cli::flag("--seed", "S", &options.seed,
                      "exploration schedule seed (default 1)"),
            cli::flag("--flush-points", &options.captureAtFlush,
                      "also capture a crash point per line a CLF queues"),
            cli::flag("--no-epoch-atomic", &options.epochAtomic,
                      "Jaaru-style sweep inside transactions too", false),
            cli::flag("--ops", "N", &wl_options.operations,
                      "workload operations (run mode, default 20)"),
            cli::flag("--fault", "NAME",
                      [&](const std::string &name) {
                          wl_options.faults.enable(name);
                          return true;
                      },
                      "enable a fault injection (run mode, repeatable)"),
            cli::flag("--json", &json,
                      "machine-readable result (run mode)"),
        });
    cli.command("case", "<name|all> [options]", {}, 1, 1);
    cli.command("run", "<workload> [options]", {}, 1, 1);
    cli.parseOrExit(argc, argv);
    const std::string &target = cli.args()[0];

    if (cli.subcommand() == "case") {
        int failures = 0;
        bool matched = false;
        for (const BugCase *bug_case : engineCases()) {
            if (target != "all" && bug_case->name != target)
                continue;
            matched = true;
            failures += runCase(*bug_case, options);
        }
        if (!matched) {
            std::fprintf(stderr, "unknown case '%s'; known:",
                         target.c_str());
            for (const BugCase *bug_case : engineCases())
                std::fprintf(stderr, " %s", bug_case->name.c_str());
            std::fprintf(stderr, "\n");
            return exitUnknownName;
        }
        return failures == 0 ? exitOk : exitFailure;
    }

    if (!makeWorkload(target)) {
        std::fprintf(stderr, "unknown workload '%s'\n", target.c_str());
        return exitUnknownName;
    }
    const CrashsimResult result =
        runCrashsimWorkload(target, wl_options, options);
    if (json) {
        JsonWriter out;
        out.beginObject()
            .field("workload", target)
            .field("ops", wl_options.operations)
            .field("seed", options.seed)
            .field("crash_points", result.stats.points)
            .field("epoch_coalesced_points", result.stats.epochCoalescedPoints)
            .field("truncated_points", result.stats.truncatedPoints)
            .field("pending_lines", result.stats.pendingLines)
            .field("images_enumerated", result.stats.imagesEnumerated)
            .field("images_deduped", result.stats.imagesDeduped)
            .field("images_verified", result.stats.imagesVerified)
            .field("findings", result.findings.size())
            .field("explore_seconds", result.exploreSeconds, 6);
        std::printf("%s\n", out.endObject().str().c_str());
    } else {
        // Echo the schedule seed so a truncated (sampled) run's
        // exact exploration can be reproduced from the report.
        std::printf("%s (%zu ops, seed %llu): %zu finding(s)\n",
                    target.c_str(), wl_options.operations,
                    static_cast<unsigned long long>(options.seed),
                    result.findings.size());
        printFindings(result, "  ");
        printStats(result.stats, result.exploreSeconds, "  ");
    }
    return result.stats.truncatedPoints > 0 ? exitTruncated : exitOk;
}
