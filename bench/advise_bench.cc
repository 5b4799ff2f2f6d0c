/**
 * @file
 * Fix-advisory engine benchmark.
 *
 * Runs the advisory corpus (3 seeds per case) over a panel of
 * repairable seeded suite bugs whose injection point is a SiteScope-
 * annotated program site, and checks the tentpole property end to end:
 * the top-ranked advisory must name the injected program site, with
 * every corpus trace repaired and verified. Reports per-case corpus
 * size, advisory count, top confidence, and — for the deletion
 * (performance) advisories — the estimated flushes/fences saved across
 * the corpus. Emits a JSON summary with the confidence distribution to
 * BENCH_advise.json (and stdout).
 *
 * Acceptance: every panel case reproduces its target on all corpus
 * traces, verifies all repairs, and top-ranks the expected site.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "advise/corpus.hh"
#include "advise/report.hh"
#include "bench/bench_util.hh"
#include "repair/case_repair.hh"

namespace pmdb
{
namespace
{

struct PanelCase
{
    const char *name;
    /** The SiteScope label of the injected bug's code path. */
    const char *expectedSite;
    std::size_t operations;
};

/** Repairable seeded bugs with site-annotated injection points. */
const PanelCase panel[] = {
    {"hashmap_atomic_entry_not_flushed",
     "hashmap_atomic.cc:insert.fill_entry", 50},
    {"hashmap_atomic_bucket_first",
     "hashmap_atomic.cc:insert.fill_entry", 50},
    {"hashmap_atomic_double_flush",
     "hashmap_atomic.cc:insert.persist_entry", 50},
    {"hashmap_atomic_flush_empty",
     "hashmap_atomic.cc:insert.audit_scratch", 50},
    {"pmdk_create_hashmap_fence", "hashmap_atomic.cc:create", 50},
    {"memcached_bug_1", "memcached.cc:setNew.late_header_update", 120},
    {"memcached_bug_4", "memcached.cc:setNew.persist_item", 120},
};

struct CaseRow
{
    std::string name;
    std::string topSite;
    std::string expectedSite;
    std::size_t corpus = 0;
    std::size_t reproduced = 0;
    std::size_t verified = 0;
    std::size_t advisories = 0;
    double topConfidence = 0.0;
    std::uint64_t savedFlushes = 0;
    std::uint64_t savedFences = 0;
    std::uint64_t replays = 0;
    bool siteOk = false;
};

int
benchMain()
{
    std::printf("=== Whole-program fix advisories ===\n\n");

    std::vector<CaseRow> rows;
    // Confidence distribution across all advisories of all panels.
    std::size_t conf_full = 0;
    std::size_t conf_high = 0;
    std::size_t conf_low = 0;

    for (const PanelCase &panel_case : panel) {
        const BugCase *bug_case = findBugCase(panel_case.name);
        if (!bug_case) {
            std::printf("WARNING: unknown case %s\n", panel_case.name);
            continue;
        }
        CorpusSpec spec;
        spec.seeds = {1, 2, 3};
        spec.operations = scaled(panel_case.operations);
        spec.workers = 2;
        const AdviseReport report = runAdviseCorpus(*bug_case, spec);

        CaseRow row;
        row.name = panel_case.name;
        row.expectedSite = panel_case.expectedSite;
        row.corpus = report.traces.size();
        for (const TraceOutcome &trace : report.traces) {
            row.reproduced += trace.targetPresent;
            row.verified += trace.verified;
            row.replays += trace.replays;
        }
        row.advisories = report.advisories.size();
        for (const FixAdvisory &advisory : report.advisories) {
            if (advisory.confidence >= 1.0)
                ++conf_full;
            else if (advisory.confidence >= 0.5)
                ++conf_high;
            else
                ++conf_low;
            row.savedFlushes += advisory.savedFlushes;
            row.savedFences += advisory.savedFences;
        }
        if (!report.advisories.empty()) {
            row.topSite = report.advisories.front().site;
            row.topConfidence = report.advisories.front().confidence;
        }
        row.siteOk = row.topSite == row.expectedSite;
        rows.push_back(std::move(row));
    }

    TextTable table;
    table.setHeader({"case", "corpus", "verified", "advisories",
                     "top site", "conf", "saved f/f", "ok"});
    bool all_ok = true;
    for (const CaseRow &row : rows) {
        const bool ok = row.siteOk && row.reproduced == row.corpus &&
                        row.verified == row.corpus;
        all_ok = all_ok && ok;
        char conf[16];
        std::snprintf(conf, sizeof(conf), "%.2f", row.topConfidence);
        table.addRow({row.name, fmtCount(row.corpus),
                      fmtCount(row.verified), fmtCount(row.advisories),
                      row.topSite, conf,
                      fmtCount(row.savedFlushes) + "/" +
                          fmtCount(row.savedFences),
                      ok ? "yes" : "NO"});
        if (!row.siteOk) {
            std::printf("WARNING: %s top-ranked %s, expected %s\n",
                        row.name.c_str(), row.topSite.c_str(),
                        row.expectedSite.c_str());
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("confidence distribution over %zu advisories: "
                "%zu at 1.0, %zu in [0.5,1.0), %zu below 0.5\n",
                conf_full + conf_high + conf_low, conf_full, conf_high,
                conf_low);

    writeBenchRow("advise", 1, [&](JsonWriter &json) {
        json.field("cases", rows.size())
            .field("confidence_full", conf_full)
            .field("confidence_high", conf_high)
            .field("confidence_low", conf_low)
            .key("rows")
            .beginArray();
        for (const CaseRow &row : rows) {
            json.beginObject()
                .field("case", row.name)
                .field("corpus", row.corpus)
                .field("reproduced", row.reproduced)
                .field("verified", row.verified)
                .field("advisories", row.advisories)
                .field("top_site", row.topSite)
                .field("top_confidence", row.topConfidence, 4)
                .field("saved_flushes", row.savedFlushes)
                .field("saved_fences", row.savedFences)
                .field("replays", row.replays)
                .field("site_ok", row.siteOk)
                .endObject();
        }
        json.endArray();
    });

    if (!all_ok)
        std::printf("WARNING: advisory acceptance failed (see table)\n");
    return all_ok ? 0 : 1;
}

} // namespace
} // namespace pmdb

int
main()
{
    return pmdb::benchMain();
}
