/**
 * @file
 * Trace minimization & repair benchmark.
 *
 * Runs the minimize/repair engine over every seeded suite case whose
 * target reproduces from a recorded trace and whose rule class has a
 * patch vocabulary: records the case detector-free, ddmin-minimizes the
 * witness against the target fingerprint, then synthesizes and
 * verifies a patch on the full trace. Reports per-case shrink factor,
 * replays-to-converge for both phases, and patch verification, plus
 * aggregate acceptance checks:
 *
 *  - at least 10 cases shrink >= 5x with the target preserved;
 *  - every attempted case gets a verified patch (the synthesizer
 *    covers its whole vocabulary).
 *
 * Emits a JSON summary to BENCH_repair.json (and stdout).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "repair/case_repair.hh"
#include "repair/minimize.hh"
#include "repair/patch.hh"
#include "workloads/bug_suite.hh"

namespace pmdb
{
namespace
{

struct CaseRow
{
    std::string name;
    std::string target;
    std::size_t originalEvents = 0;
    std::size_t minimizedEvents = 0;
    double shrink = 0.0;
    std::uint64_t minimizeReplays = 0;
    std::uint64_t repairReplays = 0;
    std::size_t edits = 0;
    bool verified = false;
};

int
benchMain()
{
    std::printf(
        "=== Trace minimization & automated flush/fence repair ===\n\n");

    std::vector<CaseRow> rows;
    std::size_t skipped_unreproduced = 0;
    std::size_t skipped_no_vocabulary = 0;

    for (const BugCase &bug_case : bugSuite()) {
        if (!ruleClassHasVocabulary(bug_case.expected)) {
            ++skipped_no_vocabulary;
            continue;
        }
        const LoadedTrace trace = recordCaseTrace(bug_case);
        const DebuggerConfig config = debuggerConfigFor(bug_case);
        BugFingerprint target;
        if (!caseTarget(bug_case, trace, &target)) {
            ++skipped_unreproduced;
            continue;
        }

        CaseRow row;
        row.name = bug_case.name;
        row.target = target.toString();
        row.originalEvents = trace.events.size();

        const MinimizeResult minimized =
            minimizeWitness(trace, target, config);
        row.minimizedEvents = minimized.events.size();
        row.shrink = minimized.stats.shrinkFactor();
        row.minimizeReplays = minimized.stats.replays;

        const RepairResult repaired =
            repairTrace(trace, target, config);
        row.repairReplays = repaired.replays;
        row.edits = repaired.patch.edits.size();
        row.verified = repaired.verified;
        rows.push_back(std::move(row));
    }

    TextTable table;
    table.setHeader({"case", "events", "min", "shrink", "replays(m)",
                     "replays(r)", "edits", "patch"});
    std::size_t shrink5x = 0;
    std::size_t verified_count = 0;
    std::uint64_t total_min_replays = 0;
    std::uint64_t total_rep_replays = 0;
    for (const CaseRow &row : rows) {
        if (row.shrink >= 5.0)
            ++shrink5x;
        if (row.verified)
            ++verified_count;
        total_min_replays += row.minimizeReplays;
        total_rep_replays += row.repairReplays;
        table.addRow({row.name, fmtCount(row.originalEvents),
                      fmtCount(row.minimizedEvents),
                      fmtFactor(row.shrink, 1),
                      fmtCount(row.minimizeReplays),
                      fmtCount(row.repairReplays), fmtCount(row.edits),
                      row.verified ? "verified" : "NONE"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("cases attempted %zu (skipped: %zu target not "
                "reproduced from trace, %zu no patch vocabulary)\n",
                rows.size(), skipped_unreproduced,
                skipped_no_vocabulary);
    std::printf("shrink >= 5x on %zu cases; verified patches %zu/%zu\n",
                shrink5x, verified_count, rows.size());

    const bool shrink_ok = shrink5x >= 10;
    const bool repair_ok = verified_count == rows.size();
    if (!shrink_ok) {
        std::printf("WARNING: only %zu cases shrank >= 5x (bar: 10)\n",
                    shrink5x);
    }
    if (!repair_ok) {
        for (const CaseRow &row : rows) {
            if (!row.verified)
                std::printf("WARNING: no verified patch for %s (%s)\n",
                            row.name.c_str(), row.target.c_str());
        }
    }

    writeBenchRow("repair", 4, [&](JsonWriter &json) {
        json.field("cases", rows.size())
            .field("shrink_5x_cases", shrink5x)
            .field("verified_patches", verified_count)
            .field("minimize_replays", total_min_replays)
            .field("repair_replays", total_rep_replays)
            .key("rows")
            .beginArray();
        for (const CaseRow &row : rows) {
            json.beginObject()
                .field("case", row.name)
                .field("target", row.target)
                .field("events", row.originalEvents)
                .field("minimized", row.minimizedEvents)
                .field("shrink", row.shrink, 1)
                .field("minimize_replays", row.minimizeReplays)
                .field("repair_replays", row.repairReplays)
                .field("edits", row.edits)
                .field("verified", row.verified)
                .endObject();
        }
        json.endArray();
    });

    return shrink_ok && repair_ok ? 0 : 1;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
