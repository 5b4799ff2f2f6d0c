/**
 * @file
 * Cross-module integration tests: several detectors sharing one event
 * stream, verdict agreement between detectors on their common bug
 * types, bookkeeping-mode equivalence on full workloads, and
 * end-to-end determinism.
 */

#include <gtest/gtest.h>

#include <memory>

#include "detectors/pmdebugger_detector.hh"
#include "detectors/pmemcheck.hh"
#include "detectors/registry.hh"
#include "workloads/workload.hh"

namespace pmdb
{
namespace
{

TEST(IntegrationTest, AllDetectorsShareOneStream)
{
    PmRuntime runtime;
    std::vector<std::unique_ptr<Detector>> detectors;
    for (const std::string &name : detectorNames()) {
        detectors.push_back(makeDetector(name));
        runtime.attach(detectors.back().get());
    }

    auto workload = makeWorkload("hashmap_atomic");
    WorkloadOptions options;
    options.operations = 200;
    options.faults.enable("hmatomic_skip_entry_flush");
    workload->run(runtime, options);
    for (auto &detector : detectors)
        detector->finalize();

    // Every tool that can detect durability bugs agrees on this one.
    for (auto &detector : detectors) {
        const std::string name = detector->detectorName();
        if (name == "pmdebugger" || name == "pmemcheck" ||
            name == "xfdetector") {
            EXPECT_TRUE(detector->bugs().hasAny(BugType::NoDurability))
                << name;
        }
        if (name == "nulgrind") {
            EXPECT_EQ(detector->bugs().total(), 0u);
        }
    }
}

TEST(IntegrationTest, PmDebuggerAndPmemcheckAgreeOnDurabilitySites)
{
    // On a strict-model workload with a durability bug, PMDebugger and
    // Pmemcheck must report the same set of never-persisted ranges.
    PmRuntime runtime;
    DebuggerConfig config;
    config.model = PersistencyModel::Strict;
    PmDebuggerDetector pmdebugger(std::move(config));
    PmemcheckDetector pmemcheck;
    runtime.attach(&pmdebugger);
    runtime.attach(&pmemcheck);

    auto workload = makeWorkload("memcached");
    WorkloadOptions options;
    options.operations = 500;
    options.setRatio = 0.5;
    options.faults.enable("mc_bug_2"); // shard casId never flushed
    workload->run(runtime, options);
    pmdebugger.finalize();
    pmemcheck.finalize();

    auto sites = [](const BugCollector &bugs) {
        std::set<std::pair<Addr, Addr>> out;
        for (const BugReport &bug : bugs.bugs()) {
            if (bug.type == BugType::NoDurability)
                out.emplace(bug.range.start, bug.range.end);
        }
        return out;
    };
    // Pmemcheck merges adjacent records, so compare byte coverage.
    auto bytes = [](const std::set<std::pair<Addr, Addr>> &ranges) {
        std::set<Addr> out;
        for (const auto &[start, end] : ranges) {
            for (Addr a = start; a < end; ++a)
                out.insert(a);
        }
        return out;
    };
    EXPECT_EQ(bytes(sites(pmdebugger.bugs())),
              bytes(sites(pmemcheck.bugs())));
}

TEST(IntegrationTest, VerdictsStableAcrossBookkeepingModes)
{
    // The ablation modes must agree with the hybrid on whole-workload
    // verdicts, not just synthetic streams.
    for (const char *fault :
         {"hmtx_skip_stats_flush", "hmtx_double_log"}) {
        std::map<BookkeepingMode, std::size_t> counts;
        for (BookkeepingMode mode :
             {BookkeepingMode::Hybrid, BookkeepingMode::TreeOnly,
              BookkeepingMode::ArrayOnly}) {
            PmRuntime runtime;
            DebuggerConfig config;
            config.model = PersistencyModel::Epoch;
            config.bookkeeping = mode;
            PmDebuggerDetector detector(std::move(config));
            runtime.attach(&detector);
            auto workload = makeWorkload("hashmap_tx");
            WorkloadOptions options;
            options.operations = 300;
            options.faults.enable(fault);
            workload->run(runtime, options);
            detector.finalize();
            counts[mode] = detector.bugs().total();
        }
        EXPECT_EQ(counts[BookkeepingMode::Hybrid],
                  counts[BookkeepingMode::TreeOnly])
            << fault;
        EXPECT_EQ(counts[BookkeepingMode::Hybrid],
                  counts[BookkeepingMode::ArrayOnly])
            << fault;
    }
}

TEST(IntegrationTest, BugCountsAreDeterministic)
{
    auto run_once = [] {
        PmRuntime runtime;
        PmDebuggerDetector detector;
        runtime.attach(&detector);
        auto workload = makeWorkload("redis");
        WorkloadOptions options;
        options.operations = 400;
        options.seed = 77;
        options.faults.enable("redis_skip_log_dict");
        workload->run(runtime, options);
        detector.finalize();
        return std::make_pair(detector.bugs().total(),
                              detector.stats().stores);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(IntegrationTest, DetectorsSurviveBackToBackWorkloads)
{
    // One detector instance observing two programs in sequence (pool
    // address spaces overlap): the first program's state must be fully
    // retired by its fences before the second starts.
    PmRuntime runtime;
    PmDebuggerDetector detector;
    runtime.attach(&detector);
    for (int round = 0; round < 2; ++round) {
        auto workload = makeWorkload("c_tree");
        WorkloadOptions options;
        options.operations = 100;
        options.seed = 5 + round;
        workload->run(runtime, options);
    }
    detector.finalize();
    EXPECT_EQ(detector.bugs().total(), 0u)
        << detector.bugs().summary();
}

TEST(IntegrationTest, MultithreadedMemcachedCleanUnderDebugger)
{
    PmRuntime runtime;
    DebuggerConfig config;
    config.model = PersistencyModel::Strict;
    PmDebuggerDetector detector(std::move(config));
    runtime.attach(&detector);

    auto workload = makeWorkload("memcached");
    WorkloadOptions options;
    options.operations = 4000;
    options.threads = 4;
    options.setRatio = 0.3;
    workload->run(runtime, options);
    detector.finalize();
    // Durability/flush rules hold even under interleaved threads.
    EXPECT_EQ(detector.bugs().countOf(BugType::NoDurability), 0u)
        << detector.bugs().summary();
}

} // namespace
} // namespace pmdb
