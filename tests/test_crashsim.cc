/**
 * @file
 * Tests for the crash-state exploration engine (src/crashsim/):
 * incremental capture, bounded enumeration, parallel verification,
 * witness minimization, and determinism across seeds, worker counts
 * and dispatch modes.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "crashsim/capture.hh"
#include "crashsim/crash_points.hh"
#include "crashsim/explore.hh"
#include "pmdk/pool.hh"
#include "pmdk/tx.hh"
#include "workloads/bug_suite.hh"
#include "workloads/crashsim_runner.hh"

namespace pmdb
{
namespace
{

const BugCase &
suiteCase(const std::string &name)
{
    for (const BugCase &bug_case : bugSuite()) {
        if (bug_case.name == name)
            return bug_case;
    }
    for (const BugCase &bug_case : crashsimOnlyCases()) {
        if (bug_case.name == name)
            return bug_case;
    }
    static const BugCase missing;
    ADD_FAILURE() << "unknown bug case " << name;
    return missing;
}

/** Exhaustive exploration bounds (K = all pending lines). */
CrashsimOptions
kAllOptions()
{
    CrashsimOptions options;
    options.maxPendingLines = 61;
    options.maxImagesPerPoint = 4096;
    return options;
}

TEST(CrashsimCaptureTest, PartialLandingFoundAtExactFenceSeq)
{
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 20, "cs.pool");
    const Addr a = pool.alloc(64);
    const Addr b = pool.alloc(64);

    CrashsimSession session(kAllOptions());
    session.adopt(pool.device(),
                  [a, b](const std::vector<std::uint8_t> &image)
                      -> std::string {
                      std::uint64_t va = 0, vb = 0;
                      std::memcpy(&va, image.data() + a, 8);
                      std::memcpy(&vb, image.data() + b, 8);
                      if (vb == 1 && va != 1)
                          return "b landed without a";
                      return "";
                  });

    pool.store<std::uint64_t>(a, 1);
    pool.store<std::uint64_t>(b, 1);
    pool.flush(a, 8);
    pool.flush(b, 8);
    pool.fence();
    const SeqNum fence_seq = runtime.eventCount();

    // Capture starts at adoption: the allocation fences before it must
    // not appear, so the one fence above is the only crash point.
    ASSERT_EQ(session.log().points.size(), 1u);
    EXPECT_EQ(session.log().points[0].seq, fence_seq);

    const CrashsimResult result = session.explore();
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].seq, fence_seq);
    EXPECT_EQ(result.findings[0].boundary, EventKind::Fence);
    // Greedy minimization must shrink the witness to exactly {b}.
    ASSERT_EQ(result.findings[0].witnessLines.size(), 1u);
    EXPECT_EQ(result.findings[0].witnessLines[0], cacheLineIndex(b));
}

TEST(CrashsimCaptureTest, ImageCursorApplyRevertRestoresBase)
{
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 20, "cs.pool");
    const Addr a = pool.alloc(64);
    const Addr b = pool.alloc(64);

    CrashsimSession session(kAllOptions());
    session.adopt(pool.device());
    pool.store<std::uint64_t>(a, 7);
    pool.store<std::uint64_t>(b, 9);
    pool.flush(a, 8);
    pool.flush(b, 8);
    pool.fence();

    ImageCursor cursor(session.log());
    cursor.advanceTo(0);
    const std::uint64_t base_hash = cursor.baseHash();
    const std::vector<std::uint8_t> base_image = cursor.image();

    const CrashPoint &point = session.log().points[0];
    std::vector<std::size_t> landed;
    for (std::size_t i = point.pendingBegin; i < point.pendingEnd; ++i)
        landed.push_back(i);
    ASSERT_EQ(landed.size(), 2u);

    const std::uint64_t predicted = cursor.candidateHash(landed);
    cursor.apply(landed);
    EXPECT_EQ(cursor.baseHash(), predicted);
    EXPECT_NE(cursor.baseHash(), base_hash);
    cursor.revert();
    EXPECT_EQ(cursor.baseHash(), base_hash);
    EXPECT_EQ(cursor.image(), base_image);
}

/** A log with one crash point, the fence that persists one line. */
CrashPointLog
oneFenceLog()
{
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 17, "cs.pool");
    const Addr a = pool.alloc(64);
    CrashsimSession session(kAllOptions());
    session.adopt(pool.device());
    pool.store<std::uint64_t>(a, 7);
    pool.persist(a, 8);
    return session.takeLog();
}

TEST(ImageCursorDeathTest, AdvancePastTheLastPointPanics)
{
    const CrashPointLog log = oneFenceLog();
    ASSERT_EQ(log.points.size(), 1u);
    ImageCursor cursor(log);
    cursor.advanceTo(0);
    EXPECT_DEATH(cursor.advanceTo(1), "past the log's last point");
    EXPECT_DEATH(cursor.advanceTo(1000), "past the log's last point");
}

TEST(ImageCursorDeathTest, BaseImageOfAnotherSizePanics)
{
    const CrashPointLog log = oneFenceLog();
    const std::vector<std::uint8_t> root(log.poolBytes - cacheLineSize);
    EXPECT_DEATH(ImageCursor(log, root, {}), "not the log's pool size");
}

TEST(ImageCursorDeathTest, DeltaLinePastTheEndPanics)
{
    const CrashPointLog log = oneFenceLog();
    ImageDelta delta(1);
    delta[0].line = log.poolBytes / cacheLineSize;
    EXPECT_DEATH(ImageCursor(log, log.baseline, delta),
                 "delta line past the end");
    delta[0].line = ~std::uint64_t{0};
    EXPECT_DEATH(ImageCursor(log, log.baseline, delta),
                 "delta line past the end");
}

TEST(CrashsimCaptureTest, AdoptingAnUntrackedPoolDies)
{
    // Such a device never sees a flush or fence, so a capture would
    // silently record nothing.
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 20, "cs.pool",
                  /*track_persistence=*/false);
    CrashsimSession session(kAllOptions());
    EXPECT_DEATH(session.adopt(pool.device()),
                 "does not track persistence");
}

TEST(CrashsimCaptureTest, AdoptionKeepsLinesAlreadyPending)
{
    PmRuntime runtime;
    PmemPool pool(runtime, 1 << 20, "cs.pool");
    const Addr a = pool.alloc(64);
    const Addr b = pool.alloc(64);
    ASSERT_LT(cacheLineIndex(a), cacheLineIndex(b));

    // b's writeback is in flight before the session exists.
    pool.store<std::uint64_t>(b, 9);
    pool.flush(b, 8);

    CrashsimOptions options = kAllOptions();
    options.captureAtFlush = true;
    CrashsimSession session(options);
    session.adopt(pool.device());
    pool.store<std::uint64_t>(a, 7);
    pool.flush(a, 8);
    pool.fence();

    // One point at a's CLF, one at the fence; both hold a and b, in
    // line order, with the bytes each CLF snapshotted.
    const CrashPointLog &log = session.log();
    ASSERT_EQ(log.points.size(), 2u);
    EXPECT_EQ(log.points[0].boundary, EventKind::Flush);
    EXPECT_FALSE(log.points[0].drains);
    EXPECT_EQ(log.points[1].boundary, EventKind::Fence);
    EXPECT_TRUE(log.points[1].drains);
    for (const CrashPoint &point : log.points) {
        ASSERT_EQ(point.pendingEnd - point.pendingBegin, 2u);
        const CapturedLine &first = log.lines[point.pendingBegin];
        const CapturedLine &second = log.lines[point.pendingBegin + 1];
        EXPECT_EQ(first.line, cacheLineIndex(a));
        EXPECT_EQ(second.line, cacheLineIndex(b));
        EXPECT_GT(first.flushSeq, second.flushSeq);
        std::uint64_t va = 0, vb = 0;
        std::memcpy(&va, first.data.data() + a % cacheLineSize, 8);
        std::memcpy(&vb, second.data.data() + b % cacheLineSize, 8);
        EXPECT_EQ(va, 7u);
        EXPECT_EQ(vb, 9u);
    }
    // b's writeback was still pending at adoption: not in the baseline.
    std::uint64_t durable_b = 0;
    std::memcpy(&durable_b, log.baseline.data() + b, 8);
    EXPECT_EQ(durable_b, 0u);
}

TEST(CrashsimSuiteTest, XfCasesFoundByEngineWithCrashPointProvenance)
{
    for (const char *name :
         {"xf_kv_publish", "xf_tx_unlogged_field", "xf_counter_pair",
          "xf_list_append"}) {
        SCOPED_TRACE(name);
        const CrashsimCaseOutcome outcome =
            runCrashsimCase(suiteCase(name), kAllOptions());
        // The engine finds everything the single-image checker finds...
        EXPECT_TRUE(outcome.singleImageFound);
        EXPECT_TRUE(outcome.engineFound);
        // ...with crash-point provenance on every finding...
        for (const CrashsimFinding &finding : outcome.buggy.findings) {
            EXPECT_GT(finding.seq, 0u);
            EXPECT_TRUE(finding.boundary == EventKind::Fence ||
                        finding.boundary == EventKind::EpochEnd ||
                        finding.boundary == EventKind::JoinStrand);
        }
        // ...and zero findings on the correct variant.
        EXPECT_TRUE(outcome.clean.findings.empty())
            << outcome.clean.findings.front().detail;
    }
}

TEST(CrashsimSuiteTest, EngineOnlyBugsFoundWhereSingleImageMisses)
{
    {
        SCOPED_TRACE("cs_partial_pair");
        const CrashsimCaseOutcome outcome = runCrashsimCase(
            suiteCase("cs_partial_pair"), kAllOptions());
        EXPECT_FALSE(outcome.singleImageFound);
        ASSERT_TRUE(outcome.engineFound);
        // Only the partial landing {b} breaks the invariant.
        ASSERT_EQ(outcome.buggy.findings.size(), 1u);
        EXPECT_EQ(outcome.buggy.findings[0].witnessLines.size(), 1u);
        EXPECT_TRUE(outcome.clean.findings.empty());
    }
    {
        SCOPED_TRACE("cs_intermediate_window");
        const CrashsimCaseOutcome outcome = runCrashsimCase(
            suiteCase("cs_intermediate_window"), kAllOptions());
        EXPECT_FALSE(outcome.singleImageFound);
        EXPECT_TRUE(outcome.engineFound);
        EXPECT_TRUE(outcome.clean.findings.empty());
    }
}

TEST(CrashsimSuiteTest, EpochAtomicCoalescingKeepsCleanTxQuiet)
{
    const BugCase &bug_case = suiteCase("cs_log_truncation_window");

    // Default (epoch-atomic): the correct transactional program is
    // clean at every crash point.
    CrashsimOptions atomic = kAllOptions();
    const CrashsimCaseOutcome quiet = runCrashsimCase(bug_case, atomic);
    EXPECT_TRUE(quiet.buggy.findings.empty());
    EXPECT_TRUE(quiet.clean.findings.empty());
    EXPECT_GT(quiet.buggy.stats.epochCoalescedPoints, 0u);

    // Jaaru-style full sweep: the substrate's single-drain commit
    // window (data landing while the log truncation drops) surfaces.
    CrashsimOptions sweep = kAllOptions();
    sweep.epochAtomic = false;
    const CrashsimCaseOutcome torn = runCrashsimCase(bug_case, sweep);
    EXPECT_FALSE(torn.buggy.findings.empty());
}

TEST(CrashsimWorkloadTest, CleanWorkloadsHaveZeroFindingsAtKAll)
{
    for (const char *name : {"b_tree", "hashmap_atomic"}) {
        SCOPED_TRACE(name);
        WorkloadOptions wl;
        wl.operations = 40;
        wl.poolBytes = 1 << 20;
        const CrashsimResult result =
            runCrashsimWorkload(name, wl, kAllOptions());
        EXPECT_GT(result.stats.points, 0u);
        EXPECT_TRUE(result.findings.empty())
            << result.findings.front().detail;
    }
}

TEST(CrashsimWorkloadTest, SeededFaultsCaughtByRecoveryVerifier)
{
    for (const char *fault :
         {"hmatomic_bucket_before_entry", "hmatomic_skip_entry_flush"}) {
        SCOPED_TRACE(fault);
        WorkloadOptions wl;
        wl.operations = 20;
        wl.poolBytes = 1 << 20;
        wl.faults.enable(fault);
        const CrashsimResult result =
            runCrashsimWorkload("hashmap_atomic", wl, kAllOptions());
        EXPECT_FALSE(result.findings.empty());
    }
    {
        SCOPED_TRACE("btree_skip_log_meta");
        WorkloadOptions wl;
        wl.operations = 20;
        wl.poolBytes = 1 << 20;
        wl.faults.enable("btree_skip_log_meta");
        const CrashsimResult result =
            runCrashsimWorkload("b_tree", wl, kAllOptions());
        EXPECT_FALSE(result.findings.empty());
    }
}

TEST(CrashsimWorkloadTest, FlushPointCaptureIsPinned)
{
    // hashmap_atomic's seeded bucket-before-entry bug, captured at
    // every CLF as well as every fence (pmdb_crashsim run
    // hashmap_atomic --ops 64 --seed 1 --flush-points --fault
    // hmatomic_bucket_before_entry).
    WorkloadOptions wl;
    wl.operations = 64;
    wl.faults.enable("hmatomic_bucket_before_entry");
    CrashsimOptions options;
    options.seed = 1;
    options.captureAtFlush = true;
    const CrashsimResult result =
        runCrashsimWorkload("hashmap_atomic", wl, options);
    EXPECT_EQ(result.stats.points, 576u);
    EXPECT_EQ(result.stats.pendingLines, 704u);
    EXPECT_EQ(result.stats.imagesEnumerated, 1408u);
    EXPECT_EQ(result.stats.imagesDeduped, 1151u);
    EXPECT_EQ(result.stats.imagesVerified, 257u);
    ASSERT_EQ(result.findings.size(), 64u);
    // The first finding is a crash at a CLF whose one landed line
    // publishes a bucket pointer to an entry that never persisted.
    const CrashsimFinding &first = result.findings.front();
    EXPECT_EQ(first.pointIndex, 3u);
    EXPECT_EQ(first.seq, 2614u);
    EXPECT_EQ(first.boundary, EventKind::Flush);
    EXPECT_EQ(first.candidateIndex, 1u);
    EXPECT_EQ(first.witnessLines, std::vector<std::uint64_t>{168});
    EXPECT_EQ(first.detail, "hashmap_atomic recovery: reachable entry "
                            "for key 0 is torn or never persisted");
}

TEST(CrashsimWorkloadTest, UntrackedOptionsStillCapture)
{
    // pmdb_crashsim run hashmap_atomic --ops 64 --seed 1 --fault
    // hmatomic_bucket_before_entry, with options a detection run would
    // pass: capture must track persistence regardless.
    WorkloadOptions wl;
    wl.operations = 64;
    wl.faults.enable("hmatomic_bucket_before_entry");
    wl.trackPersistence = false;
    CrashsimOptions options;
    options.seed = 1;
    const CrashsimResult result =
        runCrashsimWorkload("hashmap_atomic", wl, options);
    EXPECT_EQ(result.stats.points, 256u);
    EXPECT_EQ(result.findings.size(), 64u);
}

TEST(CrashsimDeterminismTest, IdenticalRunsAreBitIdentical)
{
    WorkloadOptions wl;
    wl.operations = 20;
    wl.poolBytes = 1 << 20;
    wl.faults.enable("hmatomic_bucket_before_entry");
    CrashsimOptions options = kAllOptions();
    options.seed = 7;
    const CrashsimResult first =
        runCrashsimWorkload("hashmap_atomic", wl, options);
    const CrashsimResult second =
        runCrashsimWorkload("hashmap_atomic", wl, options);
    EXPECT_TRUE(first.identicalTo(second));
    EXPECT_FALSE(first.findings.empty());
}

TEST(CrashsimDeterminismTest, WorkerCountDoesNotChangeResults)
{
    WorkloadOptions wl;
    wl.operations = 20;
    wl.poolBytes = 1 << 20;
    wl.faults.enable("hmatomic_bucket_before_entry");

    CrashsimOptions serial = kAllOptions();
    serial.workers = 1;
    CrashsimOptions parallel = kAllOptions();
    parallel.workers = 4;

    const CrashsimResult one =
        runCrashsimWorkload("hashmap_atomic", wl, serial);
    const CrashsimResult four =
        runCrashsimWorkload("hashmap_atomic", wl, parallel);
    EXPECT_TRUE(one.identicalTo(four));
    EXPECT_FALSE(one.findings.empty());
}

TEST(CrashsimDeterminismTest, SeededRandomEnumerationIsDeterministic)
{
    // Force the capped enumeration path (2^K over budget): many lines
    // pending under one fence with a small image budget.
    auto run = [](std::size_t workers) {
        PmRuntime runtime;
        PmemPool pool(runtime, 1 << 20, "cs.pool");
        const Addr base = pool.alloc(64 * 24);

        CrashsimOptions options;
        options.maxPendingLines = 16;
        options.maxImagesPerPoint = 64;
        options.seed = 11;
        options.workers = workers;
        CrashsimSession session(options);
        session.adopt(
            pool.device(),
            [base](const std::vector<std::uint8_t> &image) -> std::string {
                // Invariant: line i persisted implies line i-1 persisted.
                std::uint64_t prev = 1;
                for (std::size_t i = 0; i < 24; ++i) {
                    std::uint64_t v = 0;
                    std::memcpy(&v, image.data() + base + i * 64, 8);
                    if (v != 0 && prev == 0)
                        return "line landed before its predecessor";
                    prev = v;
                }
                return "";
            });

        for (std::size_t i = 0; i < 24; ++i) {
            pool.store<std::uint64_t>(base + i * 64, 1);
            pool.flush(base + i * 64, 8);
        }
        pool.fence();
        // A second, empty crash point: its base image equals the first
        // point's land-everything candidate, so dedup kicks in.
        pool.fence();
        return session.explore();
    };

    const CrashsimResult a = run(1);
    const CrashsimResult b = run(1);
    const CrashsimResult c = run(4);
    EXPECT_TRUE(a.identicalTo(b));
    EXPECT_TRUE(a.identicalTo(c));
    EXPECT_FALSE(a.findings.empty());
    EXPECT_GT(a.stats.imagesDeduped, 0u);
    // The budget caps the first point at 64 images (far below 2^16);
    // the empty second point adds its lone base candidate.
    EXPECT_LE(a.stats.imagesEnumerated, 65u);
}

TEST(CrashsimDispatchTest, ResultsIdenticalAcrossBatchCapacities)
{
    const BugCase &bug_case = suiteCase("xf_counter_pair");
    const CrashsimOptions options = kAllOptions();
    const CrashsimCaseOutcome per_event =
        runCrashsimCase(bug_case, options, 1);
    const CrashsimCaseOutcome batched =
        runCrashsimCase(bug_case, options, defaultBatchCapacity);

    EXPECT_TRUE(per_event.buggy.identicalTo(batched.buggy));
    EXPECT_TRUE(per_event.clean.identicalTo(batched.clean));
    EXPECT_EQ(per_event.singleImageFound, batched.singleImageFound);
    EXPECT_TRUE(per_event.engineFound);
}

TEST(CrashsimReportTest, FindingsReportedWithCrashPointSeq)
{
    PmRuntime runtime;
    PmDebugger debugger;
    runtime.attach(&debugger);
    PmemPool pool(runtime, 1 << 20, "cs.pool");
    const Addr a = pool.alloc(64);
    const Addr b = pool.alloc(64);

    CrashsimSession session(kAllOptions());
    session.adopt(pool.device(),
                  [a, b](const std::vector<std::uint8_t> &image)
                      -> std::string {
                      std::uint64_t va = 0, vb = 0;
                      std::memcpy(&va, image.data() + a, 8);
                      std::memcpy(&vb, image.data() + b, 8);
                      if (vb == 1 && va != 1)
                          return "b landed without a";
                      return "";
                  });

    pool.store<std::uint64_t>(a, 1);
    pool.store<std::uint64_t>(b, 1);
    pool.flush(a, 8);
    pool.flush(b, 8);
    pool.fence();
    const SeqNum fence_seq = runtime.eventCount();

    const CrashsimResult result = session.explore(&debugger);
    ASSERT_EQ(result.findings.size(), 1u);
    ASSERT_EQ(debugger.bugs().countOf(BugType::CrossFailureSemantic), 1u);
    const BugReport &report = debugger.bugs().bugs().front();
    EXPECT_EQ(report.seq, fence_seq);
    EXPECT_NE(report.detail.find("crash point"), std::string::npos);
}

TEST(CrashsimScanTest, StructuralScanCountsCrashPoints)
{
    std::vector<Event> events;
    auto emit = [&](EventKind kind, Addr addr, std::uint32_t size) {
        Event event;
        event.kind = kind;
        event.addr = addr;
        event.size = size;
        event.seq = events.size() + 1;
        events.push_back(event);
    };
    emit(EventKind::Store, 0, 8);
    emit(EventKind::Flush, 0, 64);
    emit(EventKind::Fence, 0, 0);
    emit(EventKind::Store, 64, 8);
    emit(EventKind::Store, 128, 8);
    emit(EventKind::Flush, 64, 64);
    emit(EventKind::Flush, 128, 64);
    emit(EventKind::Fence, 0, 0);

    const CrashScanSummary summary = scanCrashPoints(events, {});
    EXPECT_EQ(summary.events, 8u);
    EXPECT_EQ(summary.crashPoints, 2u);
    EXPECT_EQ(summary.pendingLinesTotal, 3u);
    EXPECT_EQ(summary.maxPendingAtPoint, 2u);
    // 2^1 + 2^2 candidate images.
    EXPECT_EQ(summary.imagesEnumerable, 6u);
    EXPECT_EQ(summary.epochCoalescedPoints, 0u);

    CrashsimOptions with_flush;
    with_flush.captureAtFlush = true;
    const CrashScanSummary flush_summary =
        scanCrashPoints(events, with_flush);
    EXPECT_EQ(flush_summary.crashPoints, 5u);
}

} // namespace
} // namespace pmdb
