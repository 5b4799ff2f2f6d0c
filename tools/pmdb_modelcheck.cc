/**
 * @file
 * pmdb_modelcheck — systematic crash-state model checking.
 *
 * Usage (`--help` lists the flags):
 *   pmdb_modelcheck case <name|all> [options]
 *       Run the modelcheck-only seeded recovery bugs (mc_*): the buggy
 *       variant must be caught at its case depth, must stay invisible
 *       at depth 1 (proving the bug needs more than one crash), and
 *       the correct variant must stay quiet.
 *   pmdb_modelcheck run <workload> [options]
 *       Frontier search over a model workload (b_tree,
 *       hashmap_atomic, hashmap_tx, mc_undo_flush, mc_dirty_flag):
 *       every candidate crash image is recovered by a fresh
 *       instrumented execution whose own crash points seed the next
 *       round, up to --depth crashes per trajectory.
 *
 * Exit codes (ToolExit): 1 a case behaved unexpectedly, 3 unknown
 * case/workload name, 5 (run mode) the
 * --max-states budget stopped the search before the frontier emptied
 * (coverage incomplete; rerun with a larger budget).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/json.hh"
#include "modelcheck/engine.hh"
#include "workloads/modelcheck_workloads.hh"

namespace
{

void
printFindings(const pmdb::ModelCheckResult &result, const char *indent)
{
    for (const pmdb::ModelCheckFinding &finding : result.findings) {
        std::string chain;
        for (pmdb::SeqNum seq : finding.crashSeqs) {
            if (!chain.empty())
                chain += " -> ";
            chain += "seq " + std::to_string(seq);
        }
        if (chain.empty())
            chain = "no crash";
        std::printf("%sdepth %zu [%s] state %016llx: %s\n", indent,
                    finding.depth, chain.c_str(),
                    static_cast<unsigned long long>(finding.stateHash),
                    finding.detail.c_str());
    }
}

void
printStats(const pmdb::ModelCheckResult &result, const char *indent)
{
    const pmdb::ModelCheckStats &stats = result.stats;
    std::printf(
        "%s%llu executions, %llu crash points, %llu rounds\n"
        "%s%llu candidates: %llu distinct states, %llu deduped, "
        "%llu pruned (%llu read-set refinements)\n"
        "%s%llu truncated points, budget %s\n"
        "%sfrontier hash %016llx, %.4fs (%.0f states/s)\n",
        indent, static_cast<unsigned long long>(stats.executions),
        static_cast<unsigned long long>(stats.crashPoints),
        static_cast<unsigned long long>(stats.rounds), indent,
        static_cast<unsigned long long>(stats.candidates),
        static_cast<unsigned long long>(stats.distinctStates),
        static_cast<unsigned long long>(stats.dedupedStates),
        static_cast<unsigned long long>(stats.prunedCandidates),
        static_cast<unsigned long long>(stats.refinements), indent,
        static_cast<unsigned long long>(stats.truncatedPoints),
        stats.budgetExhausted ? "EXHAUSTED" : "ok",
        indent,
        static_cast<unsigned long long>(result.frontierHash),
        result.seconds,
        result.seconds > 0
            ? static_cast<double>(stats.distinctStates) / result.seconds
            : 0.0);
}

pmdb::ModelCheckResult
runSearch(const std::string &name, bool buggy,
          pmdb::ModelCheckOptions options)
{
    auto workload = pmdb::makeModelWorkload(name, buggy);
    pmdb::ModelChecker checker(*workload, std::move(options));
    return checker.run();
}

/**
 * One modelcheck-only case: systematic depth-N search must catch the
 * buggy recovery, depth-1 must not (the bug *needs* a crashed
 * recovery), and the correct variant must stay quiet at depth N.
 */
int
runCase(const pmdb::ModelCheckCase &mc_case,
        const pmdb::ModelCheckOptions &base)
{
    using namespace pmdb;

    ModelCheckOptions deep = base;
    deep.maxDepth = mc_case.depth;
    ModelCheckOptions shallow = base;
    shallow.maxDepth = 1;

    const ModelCheckResult buggy =
        runSearch(mc_case.name, true, deep);
    const ModelCheckResult buggy_shallow =
        runSearch(mc_case.name, true, shallow);
    const ModelCheckResult clean =
        runSearch(mc_case.name, false, deep);

    std::printf("%s (depth %zu):\n"
                "  buggy at depth %zu: %zu finding(s)\n"
                "  buggy at depth 1: %zu finding(s)\n"
                "  correct at depth %zu: %zu finding(s)\n",
                mc_case.name.c_str(), mc_case.depth, mc_case.depth,
                buggy.findings.size(), buggy_shallow.findings.size(),
                mc_case.depth, clean.findings.size());
    printFindings(buggy, "    ");
    printStats(buggy, "  ");

    int failures = 0;
    if (buggy.findings.empty()) {
        std::printf("  FAIL: systematic search missed the seeded "
                    "recovery bug\n");
        ++failures;
    }
    if (!buggy_shallow.findings.empty()) {
        std::printf("  FAIL: single-crash search found a bug that "
                    "should need %zu crashes\n",
                    mc_case.depth);
        ++failures;
    }
    if (!clean.findings.empty()) {
        std::printf("  FAIL: false positive on the correct variant\n");
        ++failures;
    }
    return failures;
}

bool
knownWorkload(const std::string &name)
{
    for (const std::string &known : pmdb::modelWorkloadNames()) {
        if (known == name)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;

    ModelCheckOptions options;
    options.run.operations = 6;
    bool json = false;
    cli::Parser cli(
        "pmdb_modelcheck", "",
        {
            cli::flag("--ops", "N", &options.run.operations,
                      "initial-execution operations (default 6)"),
            cli::flag("--recovery-ops", "N",
                      &options.run.recoveryOperations,
                      "continuation operations per recovery (default 1)"),
            cli::flag("--depth", "D", &options.maxDepth,
                      "max crashes per trajectory (default 2)"),
            cli::flag("--max-states", "N", &options.maxStates,
                      "distinct-state budget (default 4096)"),
            cli::flag("--workers", "N", &options.workers,
                      "round workers; results identical for any value"),
            cli::flag("--seed", "S", &options.run.seed,
                      "workload key-stream seed (default 42)"),
            cli::flag("--fault", "NAME",
                      [&](const std::string &name) {
                          options.run.faults.enable(name);
                          return true;
                      },
                      "enable a fault injection (repeatable)"),
            cli::flag("--no-prune", &options.prune,
                      "disable read-set pruning (A/B measurement)", false),
            cli::flag("--max-pending", "K",
                      &options.run.sim.maxPendingLines,
                      "pending-line cap per crash point"),
            cli::flag("--max-images", "N",
                      &options.run.sim.maxImagesPerPoint,
                      "candidate-image cap per crash point"),
            cli::flag("--flush-points", &options.run.sim.captureAtFlush,
                      "also capture a crash point per line a CLF queues"),
            cli::flag("--no-epoch-atomic", &options.run.sim.epochAtomic,
                      "sweep inside transactions too", false),
            cli::flag("--max-findings", "N", &options.maxFindings,
                      "cap on reported findings (default 64)"),
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
        for (const ModelCheckCase &mc_case : modelcheckOnlyCases()) {
            if (target != "all" && mc_case.name != target)
                continue;
            matched = true;
            failures += runCase(mc_case, options);
        }
        if (!matched) {
            std::fprintf(stderr, "unknown case '%s'; known:",
                         target.c_str());
            for (const ModelCheckCase &mc_case : modelcheckOnlyCases())
                std::fprintf(stderr, " %s", mc_case.name.c_str());
            std::fprintf(stderr, "\n");
            return exitUnknownName;
        }
        return failures == 0 ? exitOk : exitFailure;
    }

    if (!knownWorkload(target)) {
        std::fprintf(stderr, "unknown workload '%s'; known:",
                     target.c_str());
        for (const std::string &known : modelWorkloadNames())
            std::fprintf(stderr, " %s", known.c_str());
        std::fprintf(stderr, "\n");
        return exitUnknownName;
    }
    // `run` drives the buggy variant only through --fault; mc_*
    // workloads run their correct recovery here (use `case` for
    // the seeded-bug protocol).
    const ModelCheckResult result = runSearch(target, false, options);
    if (json) {
        char hash[17];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(result.frontierHash));
        JsonWriter out;
        out.beginObject()
            .field("workload", target)
            .field("ops", options.run.operations)
            .field("recovery_ops", options.run.recoveryOperations)
            .field("depth", options.maxDepth)
            .field("workers", options.workers)
            .field("seed", options.run.seed)
            .field("prune", options.prune)
            .field("distinct_states", result.stats.distinctStates)
            .field("executions", result.stats.executions)
            .field("crash_points", result.stats.crashPoints)
            .field("candidates", result.stats.candidates)
            .field("pruned_candidates", result.stats.prunedCandidates)
            .field("deduped_states", result.stats.dedupedStates)
            .field("truncated_points", result.stats.truncatedPoints)
            .field("refinements", result.stats.refinements)
            .field("rounds", result.stats.rounds)
            .field("budget_exhausted", result.stats.budgetExhausted)
            .field("findings", result.findings.size())
            .field("frontier_hash", hash)
            .field("seconds", result.seconds, 6)
            .field("states_per_sec",
                   result.seconds > 0
                       ? static_cast<double>(result.stats.distinctStates) /
                             result.seconds
                       : 0.0,
                   1);
        std::printf("%s\n", out.endObject().str().c_str());
    } else {
        std::printf("%s (%zu ops, depth %zu, seed %llu): "
                    "%zu finding(s)\n",
                    target.c_str(), options.run.operations,
                    options.maxDepth,
                    static_cast<unsigned long long>(
                        options.run.seed),
                    result.findings.size());
        printFindings(result, "  ");
        printStats(result, "  ");
    }
    return result.stats.budgetExhausted ? exitTruncated : exitOk;
}
