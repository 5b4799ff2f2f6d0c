/**
 * @file
 * Crash-state model-checking benchmark.
 *
 * Part 1 — systematic coverage: model-check hashmap_atomic to crash
 * depth 3 and count distinct persistent states visited, the read-set
 * pruning ratio (recovery executions avoided), and states/sec.
 *
 * Part 2 — coverage vs single-crash exploration: run crashsim over
 * the same workload with its enumeration budget escalated until it
 * either saturates (complete single-crash space) or has consumed at
 * least the model checker's wall clock, and compare distinct states.
 * The acceptance bar is >= 10x: multi-crash recovery re-execution
 * reaches an order of magnitude more persistent states than any
 * single-crash budget can, because crashsim's space is bounded by one
 * execution's crash points no matter how much time it is given.
 *
 * Part 3 — determinism: the same search with 1 and 4 workers must be
 * bit-identical, and the seeded multi-crash recovery bug must be
 * found.
 *
 * Emits a JSON row to BENCH_modelcheck.json (and stdout).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "modelcheck/engine.hh"
#include "modelcheck/model.hh"
#include "workloads/crashsim_runner.hh"

namespace pmdb
{
namespace
{

ModelCheckResult
runModelCheck(const std::string &workload, bool buggy,
              const ModelCheckOptions &options)
{
    auto model = makeModelWorkload(workload, buggy);
    if (!model)
        fatal("modelcheck_bench: unknown workload " + workload);
    ModelChecker checker(*model, options);
    return checker.run();
}

int
benchMain()
{
    std::printf("=== Crash-state model checking: systematic coverage "
                "vs single-crash exploration ===\n\n");

    const std::size_t ops = std::max<std::size_t>(
        4, static_cast<std::size_t>(6 * benchScale()));

    ModelCheckOptions options;
    options.run.operations = ops;
    options.run.recoveryOperations = 1;
    options.run.seed = 42;
    options.maxDepth = 3;
    options.maxStates = 1 << 20;
    options.maxFindings = 1 << 10;
    options.workers = 1;

    // Part 1: the systematic search.
    const ModelCheckResult mc =
        runModelCheck("hashmap_atomic", false, options);
    const double pruning_ratio =
        mc.stats.prunedCandidates + mc.stats.executions > 0
            ? static_cast<double>(mc.stats.prunedCandidates) /
                  static_cast<double>(mc.stats.prunedCandidates +
                                      mc.stats.executions)
            : 0.0;
    const double states_per_sec =
        mc.seconds > 0.0
            ? static_cast<double>(mc.stats.distinctStates) / mc.seconds
            : 0.0;

    TextTable search;
    search.setHeader({"search", "distinct states", "executions",
                      "pruned", "seconds", "states/sec"});
    search.addRow({"modelcheck depth 3",
                   fmtCount(mc.stats.distinctStates),
                   fmtCount(mc.stats.executions),
                   fmtCount(mc.stats.prunedCandidates),
                   fmtDouble(mc.seconds, 4),
                   fmtCount(static_cast<std::size_t>(states_per_sec))});
    std::printf("--- modelcheck: hashmap_atomic x %zu ops ---\n%s\n",
                ops, search.render().c_str());

    // Part 2: crashsim over the same workload, budget escalated until
    // it saturates or has spent at least the model checker's wall
    // clock. Distinct states = enumerated - deduped.
    WorkloadOptions wl_options;
    wl_options.operations = ops;
    wl_options.poolBytes = std::size_t(1) << 17;

    CrashsimOptions cs_options;
    cs_options.maxFindings = 1 << 20;
    cs_options.workers = 1;

    CrashsimResult cs;
    double cs_seconds = 0.0;
    std::uint64_t cs_distinct = 0;
    std::size_t budget = 256;
    for (;;) {
        cs_options.maxImagesPerPoint = budget;
        Stopwatch watch;
        cs = runCrashsimWorkload("hashmap_atomic", wl_options,
                                 cs_options);
        cs_seconds = watch.elapsedSeconds();
        cs_distinct =
            cs.stats.imagesEnumerated - cs.stats.imagesDeduped;
        // Saturated: the bounds no longer cut anything short, so a
        // bigger budget cannot reach new states.
        if (cs.stats.truncatedPoints == 0)
            break;
        if (cs_seconds >= mc.seconds)
            break;
        budget *= 4;
    }
    const double coverage_ratio =
        cs_distinct > 0 ? static_cast<double>(mc.stats.distinctStates) /
                              static_cast<double>(cs_distinct)
                        : 0.0;

    TextTable coverage;
    coverage.setHeader({"explorer", "distinct states", "seconds",
                        "coverage"});
    coverage.addRow({"modelcheck depth 3",
                     fmtCount(mc.stats.distinctStates),
                     fmtDouble(mc.seconds, 4),
                     fmtFactor(coverage_ratio, 2)});
    coverage.addRow({"crashsim (single crash)", fmtCount(cs_distinct),
                     fmtDouble(cs_seconds, 4), fmtFactor(1.0, 2)});
    std::printf("--- coverage: crashsim budget escalated to %zu "
                "images/point ---\n%s\n",
                budget, coverage.render().c_str());

    // Part 3: worker-count determinism and the seeded recovery bug.
    ModelCheckOptions par = options;
    par.workers = 4;
    const ModelCheckResult four =
        runModelCheck("hashmap_atomic", false, par);
    const bool identical = mc.identicalTo(four);
    std::printf("4-worker results identical to single-threaded: %s\n",
                identical ? "yes" : "NO — BUG");

    ModelCheckOptions bug_options;
    bug_options.run.operations = 3;
    bug_options.maxDepth = 3;
    const ModelCheckResult seeded =
        runModelCheck("mc_undo_flush", true, bug_options);
    const bool bug_found = !seeded.findings.empty();
    std::printf("seeded depth-2 recovery bug (mc_undo_flush): %s\n",
                bug_found ? "found" : "MISSED");

    const bool coverage_ok = coverage_ratio >= 10.0;
    if (!coverage_ok) {
        std::printf("WARNING: coverage ratio %.2fx below the 10x "
                    "acceptance bar\n",
                    coverage_ratio);
    }

    writeBenchRow("modelcheck", 4, [&](JsonWriter &row) {
        row.field("workload", "hashmap_atomic")
            .field("ops", ops)
            .field("depth", 3)
            .field("distinct_states", mc.stats.distinctStates)
            .field("executions", mc.stats.executions)
            .field("pruned_candidates", mc.stats.prunedCandidates)
            .field("pruning_ratio", pruning_ratio, 3)
            .field("states_per_sec", states_per_sec, 0)
            .field("seconds", mc.seconds, 4)
            .field("crashsim_distinct_states", cs_distinct)
            .field("crashsim_seconds", cs_seconds, 4)
            .field("crashsim_budget", budget)
            .field("coverage_ratio", coverage_ratio, 2)
            .field("workers_identical", identical)
            .field("seeded_bug_found", bug_found);
    });

    return identical && bug_found && coverage_ok ? 0 : 1;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
