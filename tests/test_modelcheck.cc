/**
 * @file
 * Tests for the crash-state model checker (src/modelcheck/):
 * worker-count and rerun determinism of the frontier search, the
 * state budget, read-set pruning not masking findings, the
 * seeded multi-crash recovery bugs being reachable only at depth >= 2,
 * depth-3 coverage against single-crash exploration, pinned search
 * outcomes, the recovery-baseline contract state identity rests on,
 * and the frontier's root + delta baselines and reused image buffers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "crashsim/explore.hh"
#include "modelcheck/engine.hh"
#include "modelcheck/model.hh"
#include "workloads/crashsim_runner.hh"

namespace pmdb
{
namespace
{

ModelCheckOptions
smallSearch(std::size_t depth)
{
    ModelCheckOptions options;
    options.run.operations = 3;
    options.run.recoveryOperations = 1;
    options.run.seed = 42;
    options.maxDepth = depth;
    options.maxStates = 4096;
    return options;
}

ModelCheckResult
runSearch(const std::string &workload, bool buggy,
          ModelCheckOptions options)
{
    auto model = makeModelWorkload(workload, buggy);
    EXPECT_NE(model, nullptr) << workload;
    ModelChecker checker(*model, options);
    return checker.run();
}

TEST(ModelCheckerTest, ResultsBitIdenticalAcrossWorkerCounts)
{
    ModelCheckOptions options = smallSearch(2);
    options.workers = 1;
    const ModelCheckResult one = runSearch("hashmap_atomic", false,
                                           options);
    EXPECT_GT(one.stats.distinctStates, 0u);

    options.workers = 2;
    const ModelCheckResult two = runSearch("hashmap_atomic", false,
                                           options);
    options.workers = 4;
    const ModelCheckResult four = runSearch("hashmap_atomic", false,
                                            options);

    EXPECT_TRUE(one.identicalTo(two));
    EXPECT_TRUE(one.identicalTo(four));
    EXPECT_EQ(one.frontierHash, four.frontierHash);
}

TEST(ModelCheckerTest, RerunWithSameConfigIsDeterministic)
{
    const ModelCheckOptions options = smallSearch(2);
    const ModelCheckResult first = runSearch("b_tree", false, options);
    const ModelCheckResult second = runSearch("b_tree", false, options);
    EXPECT_TRUE(first.identicalTo(second));
}

TEST(ModelCheckerTest, StateBudgetStopsTheSearch)
{
    ModelCheckOptions options = smallSearch(2);
    options.maxStates = 4;
    const ModelCheckResult result = runSearch("hashmap_atomic", false,
                                              options);
    EXPECT_TRUE(result.stats.budgetExhausted);
    EXPECT_EQ(result.stats.distinctStates, 4u);
}

TEST(ModelCheckerTest, EnumerationBoundsSurfaceAsTruncatedPoints)
{
    ModelCheckOptions options = smallSearch(1);
    options.run.sim.maxImagesPerPoint = 2;
    const ModelCheckResult result = runSearch("hashmap_atomic", false,
                                              options);
    EXPECT_GT(result.stats.truncatedPoints, 0u);
}

TEST(ModelCheckerTest, SeededRecoveryBugsNeedDepthTwo)
{
    for (const ModelCheckCase &mc_case : modelcheckOnlyCases()) {
        SCOPED_TRACE(mc_case.name);
        ModelCheckOptions options = smallSearch(mc_case.depth);

        const ModelCheckResult buggy = runSearch(mc_case.name, true,
                                                 options);
        ASSERT_FALSE(buggy.findings.empty());
        for (const ModelCheckFinding &finding : buggy.findings) {
            EXPECT_GE(finding.depth, 2u);
            EXPECT_EQ(finding.crashSeqs.size(), finding.depth);
        }

        // One crash deep — what crashsim-with-recovery can reach —
        // the trigger state does not exist yet.
        const ModelCheckResult shallow =
            runSearch(mc_case.name, true, smallSearch(1));
        EXPECT_TRUE(shallow.findings.empty());

        // The corrected recovery path survives the same search.
        const ModelCheckResult fixed = runSearch(mc_case.name, false,
                                                 options);
        EXPECT_TRUE(fixed.findings.empty());
    }
}

TEST(ModelCheckerTest, PruningDoesNotMaskSeededBugs)
{
    for (const ModelCheckCase &mc_case : modelcheckOnlyCases()) {
        SCOPED_TRACE(mc_case.name);
        ModelCheckOptions options = smallSearch(mc_case.depth);
        options.prune = true;
        const ModelCheckResult pruned = runSearch(mc_case.name, true,
                                                  options);
        options.prune = false;
        const ModelCheckResult full = runSearch(mc_case.name, true,
                                                options);
        ASSERT_FALSE(pruned.findings.empty());
        ASSERT_FALSE(full.findings.empty());
        // Every pruned-run verdict is also found by the full run.
        for (const ModelCheckFinding &finding : pruned.findings) {
            bool matched = false;
            for (const ModelCheckFinding &other : full.findings)
                matched |= other.detail == finding.detail;
            EXPECT_TRUE(matched) << finding.detail;
        }
    }
}

TEST(ModelCheckerTest, PruningOnlySkipsWork)
{
    ModelCheckOptions options = smallSearch(2);
    options.run.operations = 4;
    options.prune = false;
    const ModelCheckResult full = runSearch("hashmap_atomic", false,
                                            options);
    options.prune = true;
    const ModelCheckResult pruned = runSearch("hashmap_atomic", false,
                                              options);
    EXPECT_EQ(full.stats.prunedCandidates, 0u);
    EXPECT_GT(pruned.stats.prunedCandidates, 0u)
        << "hashmap_atomic recovery never reads the audit line, so "
           "candidates differing only there must be pruned";
    EXPECT_LT(pruned.stats.executions, full.stats.executions);
    // Pruned states still count as visited.
    EXPECT_GT(pruned.stats.distinctStates, 0u);
}

/** A search configured as `pmdb_modelcheck run` configures it. */
ModelCheckOptions
cliSearch(std::size_t ops, std::size_t depth, std::size_t max_states)
{
    ModelCheckOptions options;
    options.run.operations = ops;
    options.run.seed = 1;
    options.maxDepth = depth;
    options.maxStates = max_states;
    return options;
}

TEST(ModelCheckerTest, SearchOutcomesArePinned)
{
    // Read with `pmdb_modelcheck run <workload> --ops O --depth D
    // [--max-states N] --seed 1 --json`. State identities feed every
    // figure here, so a change to how a state is hashed, or to which
    // recoveries run, moves at least one of them.
    struct Pin
    {
        const char *workload;
        ModelCheckOptions options;
        std::uint64_t distinctStates;
        std::uint64_t executions;
        std::uint64_t frontierHash;
    };
    const Pin pins[] = {
        // crash_atomic's search in the repository benchmark.
        {"hashmap_atomic", cliSearch(64, 4, std::size_t(1) << 20), 6923,
         6926, 0x6289d9f9db1aa2f3ULL},
        {"hashmap_tx", cliSearch(8, 3, 4096), 27, 28,
         0xc9c501654513364cULL},
        {"b_tree", cliSearch(8, 3, 4096), 27, 28, 0x2323bf3573fdf49cULL},
        {"mc_undo_flush", cliSearch(8, 3, 4096), 88, 257,
         0xc52e2db97a6a9d0bULL},
        {"mc_dirty_flag", cliSearch(8, 3, 4096), 37, 105,
         0x6cd9a1b1db9463fdULL},
    };
    for (const Pin &pin : pins) {
        for (const std::size_t workers : {1u, 2u}) {
            SCOPED_TRACE(std::string(pin.workload) + " at " +
                         std::to_string(workers) + " worker(s)");
            ModelCheckOptions options = pin.options;
            options.workers = workers;
            const ModelCheckResult result =
                runSearch(pin.workload, false, options);
            EXPECT_FALSE(result.stats.budgetExhausted);
            EXPECT_EQ(result.stats.distinctStates, pin.distinctStates);
            EXPECT_EQ(result.stats.executions, pin.executions);
            EXPECT_EQ(result.frontierHash, pin.frontierHash);
        }
    }
}

TEST(ModelCheckerTest, RecoveryBaselineIsTheInputImage)
{
    // The engine names a recovery's crash states relative to the
    // candidate image it ran on, not to a fresh hash of the
    // recovery's baseline; that is sound only while the two are the
    // same bytes (model.hh).
    ModelRunConfig config;
    for (const std::string &name : modelWorkloadNames()) {
        SCOPED_TRACE(name);
        auto model = makeModelWorkload(name);
        ASSERT_NE(model, nullptr);
        const ModelExecution initial = model->runInitial(config);
        const CrashPointLog &log = initial.log;

        // The first crash point with something in flight, so the
        // landed subset really changes the image.
        std::size_t p = 0;
        while (p < log.points.size() &&
               log.pendingCount(log.points[p]) == 0)
            ++p;
        ASSERT_LT(p, log.points.size());
        const std::vector<std::vector<std::size_t>> candidates =
            enumerateCrashCandidates(log, log.points[p], config.sim);
        ASSERT_FALSE(candidates.back().empty());

        ImageCursor cursor(log);
        cursor.advanceTo(p);
        cursor.apply(candidates.back());
        const std::vector<std::uint8_t> image = cursor.image();
        cursor.revert();
        EXPECT_NE(image, log.baseline);

        ImageBuffers buffers;
        const ModelExecution recovery =
            model->runRecovery(image, config, buffers);
        EXPECT_TRUE(recovery.log.baseline == image)
            << "recovery wrote to the pool before adopting it";
    }
}

/** Two executions captured the same crash points, reads and verdict. */
void
expectSameExecution(const ModelExecution &a, const ModelExecution &b)
{
    EXPECT_EQ(a.inconsistency, b.inconsistency);
    EXPECT_TRUE(a.reads.lines() == b.reads.lines());
    EXPECT_TRUE(a.log.baseline == b.log.baseline);
    ASSERT_EQ(a.log.lines.size(), b.log.lines.size());
    for (std::size_t i = 0; i < a.log.lines.size(); ++i) {
        EXPECT_EQ(a.log.lines[i].line, b.log.lines[i].line);
        EXPECT_EQ(a.log.lines[i].flushSeq, b.log.lines[i].flushSeq);
        EXPECT_TRUE(a.log.lines[i].data == b.log.lines[i].data);
    }
    ASSERT_EQ(a.log.points.size(), b.log.points.size());
    for (std::size_t i = 0; i < a.log.points.size(); ++i) {
        const CrashPoint &pa = a.log.points[i];
        const CrashPoint &pb = b.log.points[i];
        EXPECT_EQ(pa.seq, pb.seq);
        EXPECT_EQ(pa.boundary, pb.boundary);
        EXPECT_EQ(pa.epochOpen, pb.epochOpen);
        EXPECT_EQ(pa.drains, pb.drains);
        EXPECT_EQ(pa.pendingBegin, pb.pendingBegin);
        EXPECT_EQ(pa.pendingEnd, pb.pendingEnd);
    }
}

TEST(ModelCheckerTest, RootPlusDeltaRebuildsEveryCandidateImage)
{
    // The frontier keeps each execution's baseline as the lines it
    // changed from the search's root image (Group::baseDelta). Root +
    // delta must give the image byte for byte, and a cursor built on
    // it must name every state as one over the full baseline does:
    // the pinned searches rest on both. Recoveries here draw their
    // images from one ImageBuffers, so later ones reuse stale buffers;
    // each must capture what a recovery with fresh buffers captures.
    ModelRunConfig config;
    for (const std::string &name : modelWorkloadNames()) {
        SCOPED_TRACE(name);
        auto model = makeModelWorkload(name);
        ASSERT_NE(model, nullptr);
        const ModelExecution initial = model->runInitial(config);
        const CrashPointLog &log = initial.log;
        const std::vector<std::uint8_t> &root = log.baseline;

        // Up to four crash points with lines in flight, spread out.
        std::vector<std::size_t> pending_points;
        for (std::size_t p = 0; p < log.points.size(); ++p) {
            if (log.pendingCount(log.points[p]) != 0)
                pending_points.push_back(p);
        }
        ASSERT_FALSE(pending_points.empty());
        std::vector<std::size_t> points;
        for (std::size_t k = 0; k < 4; ++k) {
            const std::size_t p =
                pending_points[k * (pending_points.size() - 1) / 3];
            if (points.empty() || points.back() != p)
                points.push_back(p);
        }

        ImageBuffers buffers;
        ImageCursor cursor(log);
        std::size_t recovery_points = 0;
        for (const std::size_t p : points) {
            cursor.advanceTo(p);
            const std::vector<std::vector<std::size_t>> candidates =
                enumerateCrashCandidates(log, log.points[p], config.sim);
            for (const std::size_t c :
                 {std::size_t(0), candidates.size() / 2,
                  candidates.size() - 1}) {
                cursor.apply(candidates[c]);
                const std::vector<std::uint8_t> image = cursor.image();
                cursor.revert();

                const ImageDelta delta = imageDelta(root, image);
                for (std::size_t i = 0; i < delta.size(); ++i) {
                    if (i > 0) {
                        EXPECT_LT(delta[i - 1].line, delta[i].line);
                    }
                    EXPECT_NE(std::memcmp(root.data() +
                                              delta[i].line *
                                                  cacheLineSize,
                                          delta[i].data.data(),
                                          cacheLineSize),
                              0);
                }

                const ModelExecution recovery =
                    model->runRecovery(image, config, buffers);
                ImageBuffers fresh;
                expectSameExecution(
                    recovery, model->runRecovery(image, config, fresh));
                ASSERT_TRUE(recovery.log.baseline == image);

                // Built in a stale buffer, as the engine's are.
                ImageCursor full(recovery.log);
                ImageCursor rebuilt(
                    recovery.log, root, delta,
                    std::vector<std::uint8_t>(root.size() / 2, 0xa5));
                ASSERT_TRUE(rebuilt.image() == image);
                for (std::size_t q = 0; q < recovery.log.points.size();
                     ++q) {
                    full.advanceTo(q);
                    rebuilt.advanceTo(q);
                    ++recovery_points;
                    EXPECT_EQ(full.baseHash(), rebuilt.baseHash());
                    EXPECT_TRUE(full.image() == rebuilt.image());
                    for (const std::vector<std::size_t> &landed :
                         enumerateCrashCandidates(recovery.log,
                                                  recovery.log.points[q],
                                                  config.sim))
                        EXPECT_EQ(full.candidateHash(landed),
                                  rebuilt.candidateHash(landed));
                }
            }
        }
        EXPECT_GT(recovery_points, 0u);
    }
}

TEST(ModelCheckerTest, DepthThreeReachesTenfoldCrashsimStates)
{
    // Multi-crash recovery re-execution reaches an order of magnitude
    // more persistent states than single-crash exploration of the same
    // workload: crashsim's space is bounded by one execution's crash
    // points, however large its enumeration budget.
    ModelCheckOptions options = smallSearch(3);
    options.run.operations = 6;
    options.maxStates = 1 << 20;
    const ModelCheckResult mc = runSearch("hashmap_atomic", false,
                                          options);
    EXPECT_FALSE(mc.stats.budgetExhausted);

    WorkloadOptions wl_options;
    wl_options.operations = 6;
    wl_options.poolBytes = std::size_t(1) << 17;
    CrashsimOptions cs_options;
    cs_options.maxImagesPerPoint = 256;
    const CrashsimResult cs =
        runCrashsimWorkload("hashmap_atomic", wl_options, cs_options);
    // Saturated: no bound cut the enumeration short, so a larger
    // budget could not reach another state.
    ASSERT_EQ(cs.stats.truncatedPoints, 0u);
    const std::uint64_t cs_distinct =
        cs.stats.imagesEnumerated - cs.stats.imagesDeduped;
    ASSERT_GT(cs_distinct, 0u);
    EXPECT_GE(mc.stats.distinctStates, 10 * cs_distinct)
        << "modelcheck " << mc.stats.distinctStates << " vs crashsim "
        << cs_distinct;
}

} // namespace
} // namespace pmdb
