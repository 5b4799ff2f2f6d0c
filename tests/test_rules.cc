/**
 * @file
 * Rule-level tests: each of the nine generalized detection rules is
 * exercised in isolation with a hand-built event stream, with both a
 * triggering and a non-triggering (clean) variant.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/debugger.hh"
#include "trace/runtime.hh"

namespace pmdb
{
namespace
{

/** Build a debugger + runtime for one rule scenario. */
struct Harness
{
    explicit Harness(DebuggerConfig config = {})
        : debugger(std::move(config))
    {
        runtime.attach(&debugger);
    }

    std::size_t
    countOf(BugType type)
    {
        return debugger.bugs().countOf(type);
    }

    PmRuntime runtime;
    PmDebugger debugger;
};

TEST(NoDurabilityRuleTest, MissingFlushReported)
{
    Harness h;
    h.runtime.store(0x100, 8);
    h.runtime.fence();
    h.runtime.programEnd();
    ASSERT_EQ(h.countOf(BugType::NoDurability), 1u);
    EXPECT_EQ(h.debugger.bugs().bugs()[0].cause,
              DurabilityCause::MissingFlush);
}

TEST(NoDurabilityRuleTest, MissingFenceReported)
{
    Harness h;
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.programEnd();
    ASSERT_EQ(h.countOf(BugType::NoDurability), 1u);
    EXPECT_EQ(h.debugger.bugs().bugs()[0].cause,
              DurabilityCause::MissingFence);
}

TEST(NoDurabilityRuleTest, CleanProgramReportsNothing)
{
    Harness h;
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.debugger.bugs().total(), 0u);
}

TEST(NoDurabilityRuleTest, SurvivorInTreeStillReported)
{
    Harness h;
    h.runtime.store(0x100, 8); // never flushed
    for (int i = 0; i < 5; ++i)
        h.runtime.fence(); // migrates to the AVL tree, survives
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::NoDurability), 1u);
}

TEST(MultipleOverwriteRuleTest, StrictModelFlagsOverwrite)
{
    DebuggerConfig config;
    config.model = PersistencyModel::Strict;
    Harness h(std::move(config));
    h.runtime.store(0x100, 8);
    h.runtime.store(0x100, 8); // overwrite before durability
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::MultipleOverwrite), 1u);
}

TEST(MultipleOverwriteRuleTest, PersistBetweenWritesIsClean)
{
    DebuggerConfig config;
    config.model = PersistencyModel::Strict;
    Harness h(std::move(config));
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.debugger.bugs().total(), 0u);
}

TEST(MultipleOverwriteRuleTest, DisabledUnderRelaxedModels)
{
    DebuggerConfig config;
    config.model = PersistencyModel::Epoch;
    Harness h(std::move(config));
    h.runtime.store(0x100, 8);
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::MultipleOverwrite), 0u);
}

TEST(NoOrderRuleTest, ViolationWhenSecondPersistsFirst)
{
    DebuggerConfig config;
    config.orderSpec = OrderSpec::fromText("persist_before A B\n");
    Harness h(std::move(config));
    h.runtime.registerPmem("A", 0x100, 8);
    h.runtime.registerPmem("B", 0x200, 8);
    h.runtime.store(0x100, 8);
    h.runtime.store(0x200, 8);
    h.runtime.flush(0x200, 64); // B first
    h.runtime.fence();
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::NoOrderGuarantee), 1u);
}

TEST(NoOrderRuleTest, SameFenceIsAmbiguousOrder)
{
    DebuggerConfig config;
    config.orderSpec = OrderSpec::fromText("persist_before A B\n");
    Harness h(std::move(config));
    h.runtime.registerPmem("A", 0x100, 8);
    h.runtime.registerPmem("B", 0x200, 8);
    h.runtime.store(0x100, 8);
    h.runtime.store(0x200, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.flush(0x200, 64);
    h.runtime.fence(); // both durable here
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::NoOrderGuarantee), 1u);
}

TEST(NoOrderRuleTest, CorrectOrderIsClean)
{
    DebuggerConfig config;
    config.orderSpec = OrderSpec::fromText("persist_before A B\n");
    Harness h(std::move(config));
    h.runtime.registerPmem("A", 0x100, 8);
    h.runtime.registerPmem("B", 0x200, 8);
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.store(0x200, 8);
    h.runtime.flush(0x200, 64);
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.debugger.bugs().total(), 0u);
}

TEST(RedundantFlushRuleTest, DoubleFlushBeforeFence)
{
    Harness h;
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.flush(0x100, 64); // redundant
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::RedundantFlush), 1u);
}

TEST(RedundantFlushRuleTest, FlushCoveringNewStoreIsNotRedundant)
{
    Harness h;
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.store(0x108, 8); // same line, new data
    h.runtime.flush(0x100, 64); // needed for the new store
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::RedundantFlush), 0u);
}

TEST(RedundantFlushRuleTest, ReflushAfterFenceIsFlushNothingInstead)
{
    Harness h;
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.flush(0x100, 64); // after the fence: persists no store
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::RedundantFlush), 0u);
    EXPECT_EQ(h.countOf(BugType::FlushNothing), 1u);
}

TEST(FlushNothingRuleTest, UntouchedLineFlagged)
{
    Harness h;
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x400, 64); // nothing there
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::FlushNothing), 1u);
}

TEST(RedundantLoggingRuleTest, DuplicateLogInOneEpoch)
{
    Harness h;
    h.runtime.epochBegin();
    h.runtime.txLog(0x100, 32);
    h.runtime.txLog(0x108, 8); // overlaps the first log
    h.runtime.fence();
    h.runtime.epochEnd();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::RedundantLogging), 1u);
}

TEST(RedundantLoggingRuleTest, LogsInDifferentEpochsAreClean)
{
    Harness h;
    for (int i = 0; i < 2; ++i) {
        h.runtime.epochBegin();
        h.runtime.txLog(0x100, 32);
        h.runtime.store(0x100, 8);
        h.runtime.flush(0x100, 64);
        h.runtime.fence();
        h.runtime.epochEnd();
    }
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::RedundantLogging), 0u);
}

TEST(LackDurabilityInEpochRuleTest, UnflushedEpochStoreFlagged)
{
    Harness h;
    h.runtime.epochBegin();
    h.runtime.store(0x100, 8); // never flushed in the epoch
    h.runtime.fence();         // the epoch's barrier
    h.runtime.epochEnd();
    h.runtime.programEnd();
    EXPECT_GE(h.countOf(BugType::LackDurabilityInEpoch), 1u);
}

TEST(LackDurabilityInEpochRuleTest, FlushedEpochIsClean)
{
    Harness h;
    h.runtime.epochBegin();
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.epochEnd();
    h.runtime.programEnd();
    EXPECT_EQ(h.debugger.bugs().total(), 0u);
}

TEST(LackDurabilityInEpochRuleTest, PostEpochStoreNotAttributed)
{
    Harness h;
    h.runtime.epochBegin();
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.epochEnd();
    h.runtime.store(0x200, 8); // outside any epoch
    h.runtime.epochBegin();
    h.runtime.store(0x300, 8);
    h.runtime.flush(0x300, 64);
    h.runtime.fence();
    h.runtime.epochEnd();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::LackDurabilityInEpoch), 0u);
    EXPECT_EQ(h.countOf(BugType::NoDurability), 1u); // 0x200
}

TEST(LackDurabilityInEpochRuleTest, ReportsInEpochTreeRecordsOnly)
{
    // A two-record array pushes epoch stores into the AVL tree by
    // overflow and by the split pieces of a partially covered flush;
    // unflushed records from before the epoch sit in the tree too.
    DebuggerConfig config;
    config.arrayCapacity = 2;
    Harness h(std::move(config));
    h.runtime.store(0x1000, 8);
    h.runtime.store(0x1100, 8);
    h.runtime.store(0x1200, 8); // overflows into the tree
    h.runtime.fence();          // 0x1000 and 0x1100 move to the tree

    h.runtime.epochBegin();
    h.runtime.store(0x500, 32);
    h.runtime.store(0x100, 8);
    h.runtime.store(0x300, 8);  // overflows into the tree
    h.runtime.flush(0x508, 8);  // head and tail of 0x500 go to the tree
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.store(0x700, 8);  // still in the array at epoch end
    h.runtime.epochEnd();

    // The flags are cleared at epoch end: a clean second epoch adds
    // nothing.
    h.runtime.epochBegin();
    h.runtime.store(0x800, 8);
    h.runtime.flush(0x800, 64);
    h.runtime.fence();
    h.runtime.epochEnd();
    h.runtime.programEnd();

    std::vector<AddrRange> reported;
    for (const BugReport &bug : h.debugger.bugs().bugs()) {
        if (bug.type == BugType::LackDurabilityInEpoch)
            reported.push_back(bug.range);
    }
    // Array records first, then tree records in key order.
    const std::vector<AddrRange> expected = {
        AddrRange(0x700, 0x708), AddrRange(0x300, 0x308),
        AddrRange(0x500, 0x508), AddrRange(0x510, 0x520)};
    EXPECT_EQ(reported, expected);
}

TEST(RedundantEpochFenceRuleTest, TwoFencesInEpochFlagged)
{
    Harness h;
    h.runtime.epochBegin();
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence(); // the Figure 7a extra fence
    h.runtime.store(0x140, 8);
    h.runtime.flush(0x140, 64);
    h.runtime.fence(); // the epoch's own barrier
    h.runtime.epochEnd();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::RedundantEpochFence), 1u);
}

TEST(RedundantEpochFenceRuleTest, OneFenceIsClean)
{
    Harness h;
    h.runtime.epochBegin();
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.epochEnd();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::RedundantEpochFence), 0u);
}

TEST(StrandOrderRuleTest, CrossStrandPersistViolation)
{
    DebuggerConfig config;
    config.model = PersistencyModel::Strand;
    config.orderSpec = OrderSpec::fromText("persist_before A B\n");
    Harness h(std::move(config));
    h.runtime.registerPmem("A", 0x100, 8);
    h.runtime.registerPmem("B", 0x200, 8);

    h.runtime.strandBegin(0);
    h.runtime.store(0x100, 8); // A stored, not yet durable
    h.runtime.store(0x200, 8);
    h.runtime.strandEnd(0);

    h.runtime.strandBegin(1);
    h.runtime.flush(0x200, 64); // B persisted while A in flight
    h.runtime.fence();
    h.runtime.strandEnd(1);

    h.runtime.strandBegin(0);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.strandEnd(0);
    h.runtime.joinStrand();
    h.runtime.programEnd();
    EXPECT_GE(h.countOf(BugType::LackOrderingInStrands), 1u);
}

TEST(StrandOrderRuleTest, OrderedStrandsAreClean)
{
    DebuggerConfig config;
    config.model = PersistencyModel::Strand;
    config.orderSpec = OrderSpec::fromText("persist_before A B\n");
    Harness h(std::move(config));
    h.runtime.registerPmem("A", 0x100, 8);
    h.runtime.registerPmem("B", 0x200, 8);

    h.runtime.strandBegin(0);
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.fence(); // A durable
    h.runtime.store(0x200, 8);
    h.runtime.flush(0x200, 64);
    h.runtime.fence();
    h.runtime.strandEnd(0);
    h.runtime.joinStrand();
    h.runtime.programEnd();
    EXPECT_EQ(h.debugger.bugs().total(), 0u);
}

TEST(RuleTogglesTest, DisabledRuleStaysQuiet)
{
    DebuggerConfig config;
    config.detectRedundantFlush = false;
    Harness h(std::move(config));
    h.runtime.store(0x100, 8);
    h.runtime.flush(0x100, 64);
    h.runtime.flush(0x100, 64);
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::RedundantFlush), 0u);
}

/** The flexibility API: a user-supplied rule plugs into the hooks. */
class EveryFenceRule : public Rule
{
  public:
    const char *name() const override { return "every-fence"; }
    unsigned hooks() const override { return hookFence; }

    void
    onFence(DebugContext &ctx, const Event &event) override
    {
        BugReport report;
        report.type = BugType::FlushNothing; // arbitrary channel
        report.range = AddrRange(event.seq, event.seq + 1);
        report.seq = event.seq;
        report.detail = "custom rule fired";
        ctx.bugs().report(report);
    }
};

TEST(CustomRuleTest, UserRuleReceivesHooks)
{
    Harness h;
    h.debugger.addRule(std::make_unique<EveryFenceRule>());
    h.runtime.fence();
    h.runtime.fence();
    h.runtime.programEnd();
    EXPECT_EQ(h.countOf(BugType::FlushNothing), 2u);
}

TEST(OrderSpecTest, ParsesDirectivesAndComments)
{
    OrderSpec spec;
    std::string error;
    EXPECT_TRUE(spec.parse("# comment\n"
                           "persist_before a b\n"
                           "\n"
                           "persist_before c d # trailing\n",
                           &error))
        << error;
    ASSERT_EQ(spec.constraints().size(), 2u);
    EXPECT_EQ(spec.constraints()[0].firstVar, "a");
    EXPECT_EQ(spec.constraints()[1].secondVar, "d");
}

TEST(OrderSpecTest, RejectsMalformedInput)
{
    OrderSpec spec;
    std::string error;
    EXPECT_FALSE(spec.parse("persist_before onlyone\n", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(spec.parse("frobnicate a b\n", &error));
}

} // namespace
} // namespace pmdb
