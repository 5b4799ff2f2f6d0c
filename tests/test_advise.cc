/**
 * @file
 * Fix-advisory engine tests: program-site plumbing (SiteScope →
 * Event::nameId), edit→advice mapping, clustering/ranking math on
 * synthetic outcomes, and end-to-end corpora — the same seeded bug
 * recorded under varied seeds and thread counts must cluster to one
 * top-ranked advisory naming the injected program site, bit-identically
 * for any worker count — checked over a panel of seven seeded bugs.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "advise/advise.hh"
#include "advise/corpus.hh"
#include "advise/report.hh"
#include "repair/case_repair.hh"
#include "trace/recorder.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

TEST(SitePlumbing, EventsCarryInnermostOpenSite)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);

    runtime.registerPmem("pool", 0x1000, 0x1000);
    runtime.store(0x1000, 8);
    {
        SiteScope outer(runtime, "a.cc:outer");
        runtime.store(0x1008, 8);
        {
            SiteScope inner(runtime, "a.cc:inner");
            runtime.flush(0x1000, 64);
        }
        runtime.fence();
    }
    runtime.store(0x1010, 8);
    runtime.programEnd();
    runtime.detach(&recorder);

    const std::vector<Event> &events = recorder.events();
    ASSERT_EQ(events.size(), 7u);
    // RegisterPmem keeps its variable name, never the site.
    EXPECT_EQ(runtime.names().name(events[0].nameId), "pool");
    EXPECT_EQ(events[1].nameId, noName);
    EXPECT_EQ(runtime.names().name(events[2].nameId), "a.cc:outer");
    EXPECT_EQ(runtime.names().name(events[3].nameId), "a.cc:inner");
    EXPECT_EQ(runtime.names().name(events[4].nameId), "a.cc:outer");
    EXPECT_EQ(events[5].nameId, noName);
    EXPECT_EQ(events[6].nameId, noName);
}

TEST(SitePlumbing, SiteEventCountsGroupByName)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    {
        SiteScope site(runtime, "a.cc:s1");
        runtime.store(0x1000, 8);
        runtime.store(0x1008, 8);
    }
    {
        SiteScope site(runtime, "a.cc:s2");
        runtime.fence();
    }
    runtime.programEnd();
    runtime.detach(&recorder);

    LoadedTrace trace;
    trace.events = recorder.events();
    trace.names = runtime.names();
    const auto counts = siteEventCounts(trace);
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts.at("a.cc:s1"), 2u);
    EXPECT_EQ(counts.at("a.cc:s2"), 1u);
}

TEST(AdviceOps, EditMappingAndDeletionClassification)
{
    TraceEdit edit;
    edit.op = TraceEdit::Op::Insert;
    edit.event.kind = EventKind::Flush;
    EXPECT_EQ(adviceOpOf(edit), AdviceOp::InsertFlush);
    edit.event.kind = EventKind::Fence;
    EXPECT_EQ(adviceOpOf(edit), AdviceOp::InsertFence);
    edit.op = TraceEdit::Op::Delete;
    EXPECT_EQ(adviceOpOf(edit), AdviceOp::DeleteFence);
    edit.event.kind = EventKind::Flush;
    EXPECT_EQ(adviceOpOf(edit), AdviceOp::DeleteFlush);
    edit.event.kind = EventKind::TxLog;
    EXPECT_EQ(adviceOpOf(edit), AdviceOp::DeleteLog);

    EXPECT_FALSE(isDeletionAdvice(AdviceOp::InsertFlush));
    EXPECT_FALSE(isDeletionAdvice(AdviceOp::InsertFence));
    EXPECT_TRUE(isDeletionAdvice(AdviceOp::DeleteFlush));
    EXPECT_TRUE(isDeletionAdvice(AdviceOp::DeleteFence));
    EXPECT_TRUE(isDeletionAdvice(AdviceOp::DeleteLog));
    EXPECT_STREQ(toString(AdviceOp::InsertFlush), "insert-flush");
}

/** Build a synthetic verified outcome with one edit at @p site. */
TraceOutcome
outcomeWithEdit(const std::string &site, AdviceOp op,
                const std::vector<std::string> &executed_sites)
{
    TraceOutcome outcome;
    outcome.targetPresent = true;
    outcome.verified = true;
    SiteEdit edit;
    edit.site = site;
    edit.op = op;
    edit.rule = BugType::NoDurability;
    outcome.edits.push_back(edit);
    for (const std::string &executed : executed_sites)
        outcome.siteEvents[executed] = 1;
    return outcome;
}

TEST(Clustering, ConfidenceCountsCounterEvidence)
{
    std::vector<TraceOutcome> outcomes;
    // Three traces confirm a flush insert at site A; a fourth executed
    // A but verified with no edit there; a fifth executed A, target
    // reproduced, repair failed verification.
    for (int i = 0; i < 3; ++i) {
        outcomes.push_back(outcomeWithEdit(
            "a.cc:A", AdviceOp::InsertFlush, {"a.cc:A", "a.cc:B"}));
    }
    TraceOutcome clean;
    clean.targetPresent = true;
    clean.verified = true;
    clean.siteEvents["a.cc:A"] = 1;
    outcomes.push_back(clean);
    TraceOutcome failed;
    failed.targetPresent = true;
    failed.verified = false;
    failed.siteEvents["a.cc:A"] = 1;
    outcomes.push_back(failed);

    const std::vector<FixAdvisory> ranked = clusterAdvisories(outcomes);
    ASSERT_EQ(ranked.size(), 1u);
    const FixAdvisory &advisory = ranked[0];
    EXPECT_EQ(advisory.site, "a.cc:A");
    EXPECT_EQ(advisory.confirmations, 3u);
    EXPECT_EQ(advisory.opportunities, 5u);
    EXPECT_EQ(advisory.counterNoPatch, 1u);
    EXPECT_EQ(advisory.counterUnverified, 1u);
    EXPECT_DOUBLE_EQ(advisory.confidence, 3.0 / 5.0);
    EXPECT_NE(advisory.headline().find("confirmed in 3/5 traces"),
              std::string::npos);
}

TEST(Clustering, RankingIsConfidenceThenConfirmationsThenKey)
{
    std::vector<TraceOutcome> outcomes;
    // Site A: 2/2 confirmed. Site B: 2/3 (one clean trace executed B).
    outcomes.push_back(outcomeWithEdit("a.cc:A", AdviceOp::InsertFlush,
                                       {"a.cc:A"}));
    outcomes.push_back(outcomeWithEdit("a.cc:A", AdviceOp::InsertFlush,
                                       {"a.cc:A"}));
    outcomes.push_back(outcomeWithEdit("a.cc:B", AdviceOp::InsertFence,
                                       {"a.cc:B"}));
    outcomes.push_back(outcomeWithEdit("a.cc:B", AdviceOp::InsertFence,
                                       {"a.cc:B"}));
    TraceOutcome clean;
    clean.verified = true;
    clean.siteEvents["a.cc:B"] = 1;
    outcomes.push_back(clean);

    const std::vector<FixAdvisory> ranked = clusterAdvisories(outcomes);
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].site, "a.cc:A");
    EXPECT_DOUBLE_EQ(ranked[0].confidence, 1.0);
    EXPECT_EQ(ranked[1].site, "a.cc:B");
    EXPECT_DOUBLE_EQ(ranked[1].confidence, 2.0 / 3.0);
}

TEST(Clustering, OptimizeViewKeepsDeletionsRankedBySavings)
{
    std::vector<TraceOutcome> outcomes;
    outcomes.push_back(outcomeWithEdit("a.cc:A", AdviceOp::InsertFlush,
                                       {"a.cc:A"}));
    // Site B deletes two flushes in one trace, site C one fence.
    TraceOutcome two_deletes =
        outcomeWithEdit("a.cc:B", AdviceOp::DeleteFlush, {"a.cc:B"});
    two_deletes.edits.push_back(two_deletes.edits[0]);
    outcomes.push_back(two_deletes);
    outcomes.push_back(outcomeWithEdit("a.cc:C", AdviceOp::DeleteFence,
                                       {"a.cc:C"}));

    const std::vector<FixAdvisory> perf =
        optimizeView(clusterAdvisories(outcomes));
    ASSERT_EQ(perf.size(), 2u);
    EXPECT_EQ(perf[0].site, "a.cc:B");
    EXPECT_EQ(perf[0].savedFlushes, 2u);
    EXPECT_TRUE(perf[0].performance);
    EXPECT_EQ(perf[1].site, "a.cc:C");
    EXPECT_EQ(perf[1].savedFences, 1u);
}

TEST(Corpus, EnumerateIsTheDeterministicGrid)
{
    CorpusSpec spec;
    spec.seeds = {1, 2};
    spec.threads = {1, 2};
    spec.mixes = {'a'};
    const std::vector<CaseParams> grid = spec.enumerate();
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[0].label(), "seed=1,threads=1,mix=a");
    EXPECT_EQ(grid[1].label(), "seed=1,threads=2,mix=a");
    EXPECT_EQ(grid[2].label(), "seed=2,threads=1,mix=a");
    EXPECT_EQ(grid[3].label(), "seed=2,threads=2,mix=a");
}

TEST(Corpus, SeededHashmapBugClustersToItsProgramSite)
{
    const BugCase *bug_case =
        findBugCase("hashmap_atomic_entry_not_flushed");
    ASSERT_NE(bug_case, nullptr);

    CorpusSpec spec;
    spec.seeds = {1, 2, 3};
    spec.operations = 50;
    const AdviseReport report = runAdviseCorpus(*bug_case, spec);

    ASSERT_EQ(report.traces.size(), 3u);
    for (const TraceOutcome &trace : report.traces) {
        EXPECT_TRUE(trace.targetPresent) << trace.label;
        EXPECT_TRUE(trace.verified) << trace.label;
        for (const SiteEdit &edit : trace.edits)
            EXPECT_EQ(edit.site, "hashmap_atomic.cc:insert.fill_entry");
    }
    ASSERT_FALSE(report.advisories.empty());
    const FixAdvisory &top = report.advisories.front();
    EXPECT_EQ(top.site, "hashmap_atomic.cc:insert.fill_entry");
    EXPECT_EQ(top.confirmations, 3u);
    EXPECT_DOUBLE_EQ(top.confidence, 1.0);
    EXPECT_FALSE(top.performance);
}

/** A repairable seeded bug whose injection point is a named site. */
struct PanelCase
{
    const char *name;
    /** The SiteScope label of the injected bug's code path. */
    const char *expectedSite;
    std::size_t operations;
};

const PanelCase advisePanel[] = {
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

/** Keeps the listed test names free of pointer bytes. */
void
PrintTo(const PanelCase &panel_case, std::ostream *os)
{
    *os << panel_case.name;
}

class AdvisePanel : public ::testing::TestWithParam<PanelCase>
{
};

TEST_P(AdvisePanel, CorpusRepairsAndTopRanksTheInjectedSite)
{
    const PanelCase &panel_case = GetParam();
    const BugCase *bug_case = findBugCase(panel_case.name);
    ASSERT_NE(bug_case, nullptr);

    CorpusSpec spec;
    spec.seeds = {1, 2, 3};
    spec.operations = panel_case.operations;
    spec.workers = 2;
    const AdviseReport report = runAdviseCorpus(*bug_case, spec);

    ASSERT_EQ(report.traces.size(), 3u);
    for (const TraceOutcome &trace : report.traces) {
        EXPECT_TRUE(trace.targetPresent) << trace.label;
        EXPECT_TRUE(trace.verified) << trace.label;
    }
    ASSERT_FALSE(report.advisories.empty());
    EXPECT_EQ(report.advisories.front().site, panel_case.expectedSite);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, AdvisePanel, ::testing::ValuesIn(advisePanel),
    [](const ::testing::TestParamInfo<PanelCase> &info) {
        return std::string(info.param.name);
    });

TEST(Corpus, SeedsTimesThreadsClusterToOneTopAdvisory)
{
    // The ISSUE's satellite scenario: the same workload at 3 seeds × 2
    // thread counts. The threaded recordings interleave
    // nondeterministically, but the injected site's label is a code
    // path, not an interleaving, so the patches still cluster: the
    // top-ranked advisory names the seeded bug's program site.
    const BugCase *bug_case = findBugCase("memcached_bug_4");
    ASSERT_NE(bug_case, nullptr);

    CorpusSpec spec;
    spec.seeds = {5, 9, 13};
    spec.threads = {1, 2};
    spec.operations = 120;
    const AdviseReport report = runAdviseCorpus(*bug_case, spec);

    ASSERT_EQ(report.traces.size(), 6u);
    for (const TraceOutcome &trace : report.traces) {
        EXPECT_TRUE(trace.targetPresent) << trace.label;
        // Every edit attributes to a named memcached site — never the
        // anonymous region fallback.
        for (const SiteEdit &edit : trace.edits) {
            EXPECT_EQ(edit.site.rfind("memcached.cc:", 0), 0u)
                << trace.label << ": " << edit.site;
        }
    }
    ASSERT_FALSE(report.advisories.empty());
    const FixAdvisory &top = report.advisories.front();
    EXPECT_EQ(top.site, "memcached.cc:setNew.persist_item");
    // The single-threaded half of the grid is deterministic and always
    // confirms; the threaded half may scatter, so majority is the bound.
    EXPECT_GE(top.confirmations, 3u);
}

TEST(Corpus, ReportIsBitIdenticalAcrossWorkerCounts)
{
    const BugCase *bug_case =
        findBugCase("hashmap_atomic_entry_not_flushed");
    ASSERT_NE(bug_case, nullptr);

    CorpusSpec spec;
    spec.seeds = {1, 2, 3, 4};
    spec.operations = 40;
    std::string baseline;
    for (const std::size_t workers : {1u, 2u, 4u}) {
        spec.workers = workers;
        const AdviseReport report = runAdviseCorpus(*bug_case, spec);
        const std::string json = adviseReportToJson(report);
        if (baseline.empty())
            baseline = json;
        else
            EXPECT_EQ(json, baseline) << "workers=" << workers;
    }
    EXPECT_NE(baseline.find("\"version\": \"pmdb-advise-v1\""),
              std::string::npos);
}

TEST(Corpus, PerformanceCaseYieldsSavingsEstimates)
{
    const BugCase *bug_case = findBugCase("hashmap_atomic_double_flush");
    ASSERT_NE(bug_case, nullptr);

    CorpusSpec spec;
    spec.seeds = {1, 2};
    spec.operations = 30;
    const AdviseReport report = runAdviseCorpus(*bug_case, spec);
    const std::vector<FixAdvisory> perf =
        optimizeView(report.advisories);
    ASSERT_FALSE(perf.empty());
    EXPECT_EQ(perf[0].site, "hashmap_atomic.cc:insert.persist_entry");
    EXPECT_TRUE(perf[0].performance);
    EXPECT_GE(perf[0].savedFlushes, 2u);
}

} // namespace
} // namespace pmdb
