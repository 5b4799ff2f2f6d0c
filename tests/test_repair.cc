/**
 * @file
 * Minimize/repair engine tests: ddmin witness minimization
 * (idempotence, structure-preserving slicing, verdict-cache reuse) and
 * end-to-end repair synthesis for every suite case whose rule class
 * has a patch vocabulary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "repair/case_repair.hh"
#include "repair/minimize.hh"
#include "repair/patch.hh"
#include "workloads/bug_suite.hh"

namespace pmdb
{
namespace
{

/** Record a suite case and resolve its repair target. */
struct CaseFixture
{
    const BugCase *bug_case = nullptr;
    LoadedTrace trace;
    DebuggerConfig config;
    BugFingerprint target;

    explicit CaseFixture(const std::string &name)
    {
        bug_case = findBugCase(name);
        if (!bug_case)
            return;
        trace = recordCaseTrace(*bug_case);
        config = debuggerConfigFor(*bug_case);
        if (!caseTarget(*bug_case, trace, &target))
            bug_case = nullptr;
    }
};

/** Every suite case whose rule class has a patch vocabulary. */
std::vector<std::string>
repairableSuiteCases()
{
    std::vector<std::string> names;
    for (const BugCase &bug_case : bugSuite()) {
        if (ruleClassHasVocabulary(bug_case.expected))
            names.push_back(bug_case.name);
    }
    return names;
}

/** Per-thread balance check for section markers in a sliced trace. */
void
expectBalancedSections(const std::vector<Event> &events)
{
    std::map<int, int> epoch_depth;
    std::map<int, std::vector<EventKind>> stack;
    for (const Event &event : events) {
        switch (event.kind) {
          case EventKind::EpochBegin:
            ++epoch_depth[event.thread];
            break;
          case EventKind::EpochEnd:
            EXPECT_GT(epoch_depth[event.thread], 0)
                << "orphan EpochEnd at seq " << event.seq;
            --epoch_depth[event.thread];
            break;
          case EventKind::StrandBegin:
            stack[event.thread].push_back(EventKind::StrandBegin);
            break;
          case EventKind::StrandEnd:
            ASSERT_FALSE(stack[event.thread].empty())
                << "orphan StrandEnd at seq " << event.seq;
            stack[event.thread].pop_back();
            break;
          default:
            break;
        }
    }
    for (const auto &[thread, depth] : epoch_depth)
        EXPECT_EQ(depth, 0) << "unclosed epoch on thread " << thread;
    for (const auto &[thread, open] : stack)
        EXPECT_TRUE(open.empty()) << "unclosed strand on thread "
                                  << thread;
}

TEST(MinimizeTest, ShrinksAndPreservesTarget)
{
    CaseFixture fx("missing_flush_2x8");
    ASSERT_NE(fx.bug_case, nullptr);

    const MinimizeResult result =
        minimizeWitness(fx.trace, fx.target, fx.config);
    ASSERT_TRUE(result.reproduced);
    EXPECT_LT(result.events.size(), fx.trace.events.size());

    const ReplayOracle oracle(fx.config, fx.trace.names);
    EXPECT_TRUE(oracle.replay(result.events).has(fx.target));
}

TEST(MinimizeTest, TenSuiteCasesShrinkFivefold)
{
    std::size_t shrink5x = 0;
    for (const std::string &name : repairableSuiteCases()) {
        CaseFixture fx(name);
        ASSERT_NE(fx.bug_case, nullptr) << name;
        const MinimizeResult result =
            minimizeWitness(fx.trace, fx.target, fx.config);
        ASSERT_TRUE(result.reproduced) << name;
        const ReplayOracle oracle(fx.config, fx.trace.names);
        EXPECT_TRUE(oracle.replay(result.events).has(fx.target)) << name;
        if (result.stats.shrinkFactor() >= 5.0)
            ++shrink5x;
    }
    EXPECT_GE(shrink5x, 10u);
}

TEST(MinimizeTest, Idempotent)
{
    CaseFixture fx("epoch_unlogged_store");
    ASSERT_NE(fx.bug_case, nullptr);

    const MinimizeResult once =
        minimizeWitness(fx.trace, fx.target, fx.config);
    ASSERT_TRUE(once.reproduced);

    LoadedTrace minimized;
    minimized.events = once.events;
    minimized.names = fx.trace.names;
    const MinimizeResult twice =
        minimizeWitness(minimized, fx.target, fx.config);
    ASSERT_TRUE(twice.reproduced);
    // A 1-minimal witness has nothing left to delete.
    EXPECT_EQ(twice.events.size(), once.events.size());
}

TEST(MinimizeTest, SlicingKeepsSectionsBalanced)
{
    // Cases whose traces carry epoch and strand sections.
    for (const char *name :
         {"epoch_unlogged_store", "epoch_extra_fence",
          "strand_cross_persist_raw", "tx_double_log"}) {
        CaseFixture fx(name);
        ASSERT_NE(fx.bug_case, nullptr) << name;
        const MinimizeResult result =
            minimizeWitness(fx.trace, fx.target, fx.config);
        ASSERT_TRUE(result.reproduced) << name;
        expectBalancedSections(result.events);
        // Slicing never invents events: every survivor appears in the
        // original, in order.
        std::size_t cursor = 0;
        for (const Event &kept : result.events) {
            while (cursor < fx.trace.events.size() &&
                   fx.trace.events[cursor].seq != kept.seq) {
                ++cursor;
            }
            ASSERT_LT(cursor, fx.trace.events.size())
                << name << ": event seq " << kept.seq
                << " not in original order";
        }
    }
}

TEST(MinimizeTest, VerdictCacheAvoidsRepeatReplays)
{
    CaseFixture fx("tx_double_log");
    ASSERT_NE(fx.bug_case, nullptr);

    const MinimizeResult result =
        minimizeWitness(fx.trace, fx.target, fx.config);
    ASSERT_TRUE(result.reproduced);
    // ddmin revisits subsets as it re-chunks; the cache answers those
    // without burning replay budget.
    EXPECT_GT(result.stats.cacheHits, 0u);
    EXPECT_LE(result.stats.replays, MinimizeOptions().maxReplays);

    // Determinism: a second run from scratch lands on the same witness.
    const MinimizeResult again =
        minimizeWitness(fx.trace, fx.target, fx.config);
    ASSERT_TRUE(again.reproduced);
    ASSERT_EQ(again.events.size(), result.events.size());
    for (std::size_t i = 0; i < result.events.size(); ++i)
        EXPECT_EQ(again.events[i].seq, result.events[i].seq);
}

TEST(MinimizeTest, BudgetBoundsReplays)
{
    CaseFixture fx("memcached_publish_first");
    ASSERT_NE(fx.bug_case, nullptr);

    MinimizeOptions options;
    options.maxReplays = 16;
    const MinimizeResult result =
        minimizeWitness(fx.trace, fx.target, fx.config, options);
    ASSERT_TRUE(result.reproduced);
    EXPECT_LE(result.stats.replays, options.maxReplays);
    // Best-so-far is still a valid witness.
    const ReplayOracle oracle(fx.config, fx.trace.names);
    EXPECT_TRUE(oracle.replay(result.events).has(fx.target));
}

/** One representative seeded case per repairable rule class. */
const std::pair<const char *, BugType> repairCases[] = {
    {"missing_flush_2x8", BugType::NoDurability},
    {"missing_fence_1x8", BugType::NoDurability},
    {"overwrite_before_flush", BugType::MultipleOverwrite},
    {"order_b_before_a", BugType::NoOrderGuarantee},
    {"double_flush", BugType::RedundantFlush},
    {"flush_untouched_line", BugType::FlushNothing},
    {"tx_double_log", BugType::RedundantLogging},
    {"epoch_unlogged_store", BugType::LackDurabilityInEpoch},
    {"epoch_extra_fence", BugType::RedundantEpochFence},
    {"strand_cross_persist_raw", BugType::LackOrderingInStrands},
};

TEST(RepairTest, EveryRuleClassGetsVerifiedPatch)
{
    for (const auto &[name, type] : repairCases) {
        CaseFixture fx(name);
        ASSERT_NE(fx.bug_case, nullptr) << name;
        ASSERT_EQ(fx.target.type, type) << name;
    }

    for (const std::string &name : repairableSuiteCases()) {
        CaseFixture fx(name);
        ASSERT_NE(fx.bug_case, nullptr) << name;

        const RepairResult result =
            repairTrace(fx.trace, fx.target, fx.config);
        EXPECT_TRUE(result.targetPresent) << name;
        ASSERT_TRUE(result.verified) << name;
        EXPECT_FALSE(result.patch.edits.empty()) << name;
        EXPECT_FALSE(result.advisory.empty()) << name;

        // Verification contract: target gone, and every bug the
        // patched trace still reports existed in the original run.
        const ReplayOracle oracle(fx.config, fx.trace.names);
        const ReplayReport original = oracle.replay(fx.trace.events);
        const ReplayReport patched =
            oracle.replay(result.patchedEvents);
        EXPECT_FALSE(patched.has(fx.target)) << name;
        for (const BugFingerprint &fingerprint : patched.fingerprints)
            EXPECT_TRUE(original.has(fingerprint))
                << name << ": new bug " << fingerprint.toString();
        expectBalancedSections(result.patchedEvents);
    }
}

TEST(RepairTest, MultiOccurrenceFingerprintsRepairedInFull)
{
    // One fingerprint can stand for many violation sites (per-op
    // re-registered order variables dedup to one identity); the
    // synthesizer must fix all of them, not just the reported one.
    for (const char *name :
         {"memcached_publish_first", "synth_strand_cross_persist"}) {
        CaseFixture fx(name);
        ASSERT_NE(fx.bug_case, nullptr) << name;
        const RepairResult result =
            repairTrace(fx.trace, fx.target, fx.config);
        ASSERT_TRUE(result.verified) << name;
        const ReplayOracle oracle(fx.config, fx.trace.names);
        EXPECT_FALSE(oracle.replay(result.patchedEvents).has(fx.target))
            << name;
    }
}

TEST(RepairTest, CrossFailureHasNoVocabulary)
{
    EXPECT_FALSE(ruleClassHasVocabulary(BugType::CrossFailureSemantic));
    EXPECT_TRUE(ruleClassHasVocabulary(BugType::NoDurability));
    EXPECT_TRUE(ruleClassHasVocabulary(BugType::RedundantEpochFence));
}

TEST(RepairTest, ApplyPatchRenumbersSequentially)
{
    CaseFixture fx("missing_flush_2x8");
    ASSERT_NE(fx.bug_case, nullptr);
    const RepairResult result =
        repairTrace(fx.trace, fx.target, fx.config);
    ASSERT_TRUE(result.verified);
    SeqNum expected = 0;
    for (const Event &event : result.patchedEvents)
        EXPECT_EQ(event.seq, ++expected);
}

} // namespace
} // namespace pmdb
