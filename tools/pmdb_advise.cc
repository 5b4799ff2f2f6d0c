/**
 * @file
 * pmdb_advise — whole-program fix advisories from a repair corpus.
 *
 * Records one bug-suite case many times over a (seeds × threads ×
 * YCSB-mixes) grid, repairs every trace with the src/repair/ engine,
 * maps each verified edit back to its program site, and prints the
 * ranked per-site advisories ("insert CLWB after store at
 * hashmap_atomic.cc:insert.fill_entry, confirmed in 6/6 traces").
 *
 * Usage: `pmdb_advise case:<name> [options]`; `--help` lists the flags.
 * --workers parallelizes the per-trace repairs; the report is
 * bit-identical for any worker count (single-threaded corpora).
 * --optimize renders the Bentō-style view: deletion (performance)
 * advisories only, ranked by estimated saved flushes/fences.
 *
 * Exit codes (ToolExit): 3 unknown case name, 6 target bug not
 * reproduced anywhere in the corpus, 7 corpus ran but no advisory at
 * or above --min-confidence survived the requested view.
 */

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "advise/corpus.hh"
#include "advise/report.hh"
#include "common/cli.hh"
#include "repair/case_repair.hh"

namespace
{

/** Parse "9,11,13" into integers; false on an empty or bad field. */
template <typename T>
bool
parseList(const std::string &text, std::vector<T> *out)
{
    out->clear();
    std::size_t at = 0;
    while (at <= text.size()) {
        std::size_t end = text.find(',', at);
        if (end == std::string::npos)
            end = text.size();
        std::uint64_t value = 0;
        if (!pmdb::cli::parseUnsigned(text.substr(at, end - at).c_str(), 0,
                                      std::numeric_limits<T>::max(),
                                      &value))
            return false;
        out->push_back(static_cast<T>(value));
        at = end + 1;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pmdb;
    CorpusSpec spec;
    bool optimize = false;
    bool json = false;
    double min_confidence = 0.0;
    std::string out_path;
    cli::Parser cli(
        "pmdb_advise", "case:<name> [options]",
        {
            cli::flag("--seeds", "A,B,..",
                      [&](const std::string &list) {
                          return parseList(list, &spec.seeds);
                      },
                      "corpus seeds"),
            cli::flag("--threads", "N,M",
                      [&](const std::string &list) {
                          return parseList(list, &spec.threads);
                      },
                      "corpus driver thread counts"),
            cli::flag("--mixes", "a,b,..",
                      [&](const std::string &list) {
                          spec.mixes.clear();
                          for (const char c : list) {
                              if (c == ',')
                                  continue;
                              if (c < 'a' || c > 'f')
                                  return false;
                              spec.mixes.push_back(c);
                          }
                          return !spec.mixes.empty();
                      },
                      "corpus YCSB mixes"),
            cli::flag("--ops", "N", &spec.operations,
                      "operations per corpus trace"),
            cli::flag("--workers", "N", &spec.workers,
                      "parallel per-trace repairs (report identical)"),
            cli::flag("--min-confidence", "F", &min_confidence,
                      "drop advisories below this confidence"),
            cli::flag("--optimize", &optimize,
                      "deletion (performance) advisories only"),
            cli::flag("--json", &json, "print the report as JSON"),
            cli::flag("--out", "FILE", &out_path,
                      "write the report to FILE"),
            cli::flag("--no-minimize", &spec.minimizeFirst,
                      "repair the full trace, not the witness", false),
            cli::flag("--max-replays", "N", &spec.minimize.maxReplays,
                      "minimizer replay budget"),
        },
        1, 1);
    cli.parseOrExit(argc, argv);
    const std::string &source = cli.args()[0];
    if (source.rfind("case:", 0) != 0)
        cli.fail("expected case:<name>, got '" + source + "'");

    const BugCase *bug_case = findBugCase(source.substr(5));
    if (!bug_case) {
        std::fprintf(stderr, "unknown bug-suite case '%s'\n",
                     source.substr(5).c_str());
        return exitUnknownName;
    }

    AdviseReport report = runAdviseCorpus(*bug_case, spec);
    report.optimize = optimize;
    report.minConfidence = min_confidence;
    if (optimize)
        report.advisories = optimizeView(report.advisories);
    if (min_confidence > 0.0) {
        std::vector<FixAdvisory> kept;
        for (const FixAdvisory &advisory : report.advisories) {
            if (advisory.confidence >= min_confidence)
                kept.push_back(advisory);
        }
        report.advisories = std::move(kept);
    }

    const std::string rendered = json ? adviseReportToJson(report)
                                      : adviseReportToText(report);
    if (out_path.empty()) {
        std::fputs(rendered.c_str(), stdout);
    } else {
        std::FILE *out = std::fopen(out_path.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         out_path.c_str());
            return exitUsage;
        }
        std::fputs(rendered.c_str(), out);
        std::fclose(out);
    }

    bool any_target = false;
    for (const TraceOutcome &trace : report.traces)
        any_target |= trace.targetPresent;
    if (!any_target) {
        std::fprintf(stderr,
                     "case %s: target bug not reproduced on any corpus "
                     "trace\n",
                     bug_case->name.c_str());
        return exitNoRepair;
    }
    if (report.advisories.empty()) {
        std::fprintf(stderr,
                     "case %s: no advisory at or above confidence "
                     "%.4f\n",
                     bug_case->name.c_str(), min_confidence);
        return exitNoAdvisory;
    }
    return 0;
}
