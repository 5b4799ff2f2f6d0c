/**
 * @file
 * Tests for the on-disk trace format and the record/replay workflow,
 * plus the JSON report rendering and the Persistence Inspector model
 * (the post-mortem consumers of saved traces).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "core/report.hh"
#include "detectors/persistence_inspector.hh"
#include "detectors/registry.hh"
#include "trace/recorder.hh"
#include "trace/trace_file.hh"
#include "workloads/workload.hh"

namespace pmdb
{
namespace
{

/** Temp-file helper that cleans up after itself. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }

    ~TempPath() { std::remove(path_.c_str()); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

TEST(TraceFileTest, RoundTripPreservesEverything)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.registerPmem("var.a", 0x40, 8);
    runtime.store(0x40, 8);
    runtime.flush(0x40, 64, FlushKind::Clflushopt);
    runtime.strandBegin(2);
    runtime.store(0x80, 16, /*thread=*/3);
    runtime.strandEnd(2);
    runtime.fence();
    runtime.programEnd();

    TempPath path("roundtrip.trc");
    std::string error;
    ASSERT_TRUE(writeTraceFile(path.str(), recorder.events(),
                               runtime.names(), &error))
        << error;

    LoadedTrace loaded;
    ASSERT_TRUE(readTraceFile(path.str(), &loaded, &error)) << error;
    ASSERT_EQ(loaded.events.size(), recorder.events().size());
    for (std::size_t i = 0; i < loaded.events.size(); ++i) {
        const Event &a = recorder.events()[i];
        const Event &b = loaded.events[i];
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.flushKind, b.flushKind) << i;
        EXPECT_EQ(a.thread, b.thread) << i;
        EXPECT_EQ(a.strand, b.strand) << i;
        EXPECT_EQ(a.nameId, b.nameId) << i;
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.size, b.size) << i;
        EXPECT_EQ(a.seq, b.seq) << i;
    }
    EXPECT_EQ(loaded.names.size(), 1u);
    EXPECT_EQ(loaded.names.name(0), "var.a");
}

TEST(TraceFileTest, RejectsBadMagic)
{
    TempPath path("bad.trc");
    std::FILE *file = std::fopen(path.str().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite("NOTATRACE", 1, 9, file);
    std::fclose(file);

    LoadedTrace loaded;
    std::string error;
    EXPECT_FALSE(readTraceFile(path.str(), &loaded, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(TraceFileTest, MissingFileFailsGracefully)
{
    LoadedTrace loaded;
    std::string error;
    EXPECT_FALSE(readTraceFile("/nonexistent/dir/x.trc", &loaded,
                               &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceFileTest, RejectsEventCountBeyondFileSize)
{
    // A valid header whose event count (2^60) no file could hold: the
    // reader must fail cleanly instead of reserving for it.
    TempPath path("huge_count.trc");
    std::FILE *file = std::fopen(path.str().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::uint32_t name_count = 0;
    const std::uint64_t event_count = std::uint64_t{1} << 60;
    std::fwrite("PMDBTRC2", 1, 8, file);
    std::fwrite(&name_count, sizeof(name_count), 1, file);
    std::fwrite(&event_count, sizeof(event_count), 1, file);
    std::fwrite("partial", 1, 7, file);
    std::fclose(file);

    LoadedTrace loaded;
    std::string error;
    bool ok = true;
    EXPECT_NO_THROW(ok = readTraceFile(path.str(), &loaded, &error));
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("claims"), std::string::npos) << error;
    EXPECT_TRUE(loaded.events.empty());
}

TEST(TraceFileTest, ReplayFindsSameBugsAsLiveRun)
{
    // Record a buggy workload, then replay the saved trace through a
    // fresh detector: identical verdicts.
    PmRuntime runtime;
    TraceRecorder recorder;
    auto live = makeDetector("pmemcheck");
    runtime.attach(&recorder);
    runtime.attach(live.get());

    auto workload = makeWorkload("hashmap_atomic");
    WorkloadOptions options;
    options.operations = 200;
    options.faults.enable("hmatomic_skip_entry_flush");
    workload->run(runtime, options);
    live->finalize();

    TempPath path("replay.trc");
    std::string error;
    ASSERT_TRUE(writeTraceFile(path.str(), recorder.events(),
                               runtime.names(), &error))
        << error;
    LoadedTrace loaded;
    ASSERT_TRUE(readTraceFile(path.str(), &loaded, &error)) << error;

    auto replayed = makeDetector("pmemcheck");
    replayed->attached(loaded.names);
    TraceReplayer replayer(loaded.events);
    replayer.replay(*replayed);
    replayed->finalize();

    EXPECT_EQ(replayed->bugs().total(), live->bugs().total());
    EXPECT_EQ(replayed->bugs().countOf(BugType::NoDurability),
              live->bugs().countOf(BugType::NoDurability));
}

TEST(TraceStreamTest, RoundTripWithInterleavedNames)
{
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.registerPmem("stream.a", 0x40, 8);
    runtime.store(0x40, 8);
    runtime.flush(0x40, 64);
    runtime.fence();
    runtime.registerPmem("stream.b", 0x80, 16);
    runtime.store(0x80, 16, /*thread=*/2);
    runtime.programEnd();

    TempPath path("stream.trs");
    TraceStreamWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path.str(), &error)) << error;
    // Names are appended as soon as they appear, interleaved with the
    // events that reference them — the live-spill write pattern.
    for (const Event &event : recorder.events()) {
        ASSERT_TRUE(writer.syncNames(runtime.names()));
        ASSERT_TRUE(writer.append(event));
        ASSERT_TRUE(writer.flush());
    }
    EXPECT_EQ(writer.eventsWritten(), recorder.events().size());
    ASSERT_TRUE(writer.close());

    LoadedTrace loaded;
    bool truncated = true;
    ASSERT_TRUE(readTraceStream(path.str(), &loaded, &truncated, &error))
        << error;
    EXPECT_FALSE(truncated);
    ASSERT_EQ(loaded.events.size(), recorder.events().size());
    for (std::size_t i = 0; i < loaded.events.size(); ++i) {
        EXPECT_EQ(loaded.events[i].kind, recorder.events()[i].kind) << i;
        EXPECT_EQ(loaded.events[i].addr, recorder.events()[i].addr) << i;
        EXPECT_EQ(loaded.events[i].seq, recorder.events()[i].seq) << i;
    }
    ASSERT_EQ(loaded.names.size(), 2u);
    EXPECT_EQ(loaded.names.name(0), "stream.a");
    EXPECT_EQ(loaded.names.name(1), "stream.b");
}

TEST(TraceStreamTest, RecoversTruncatedTail)
{
    TempPath path("truncated.trs");
    TraceStreamWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path.str(), &error)) << error;
    ASSERT_TRUE(writer.appendName(0, "var"));
    for (int i = 0; i < 10; ++i) {
        Event event;
        event.kind = EventKind::Store;
        event.addr = 0x100 + 8u * static_cast<unsigned>(i);
        event.size = 8;
        event.seq = static_cast<SeqNum>(i + 1);
        ASSERT_TRUE(writer.append(event));
    }
    ASSERT_TRUE(writer.close());

    // Chop the file mid-record, as a crash would.
    std::FILE *file = std::fopen(path.str().c_str(), "rb");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    std::error_code ec;
    std::filesystem::resize_file(path.str(),
                                 static_cast<std::uintmax_t>(size - 7),
                                 ec);
    ASSERT_FALSE(ec) << ec.message();

    LoadedTrace loaded;
    bool truncated = false;
    ASSERT_TRUE(readTraceStream(path.str(), &loaded, &truncated, &error))
        << error;
    EXPECT_TRUE(truncated);
    // The partial final record is dropped; everything before survives.
    EXPECT_EQ(loaded.events.size(), 9u);
    EXPECT_EQ(loaded.events.back().seq, 9u);
    EXPECT_EQ(loaded.names.size(), 1u);
}

TEST(TraceStreamTest, RejectsBatchFormatMagic)
{
    // A batch-format trace is not a stream trace; the reader must say
    // so instead of misparsing it.
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.store(0x100, 8);
    TempPath path("batch.trc");
    std::string error;
    ASSERT_TRUE(writeTraceFile(path.str(), recorder.events(),
                               runtime.names(), &error));
    LoadedTrace loaded;
    EXPECT_FALSE(readTraceStream(path.str(), &loaded, nullptr, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(TraceAnyTest, DispatchesOnMagicAndReportsTruncation)
{
    // Batch trace through the magic-dispatching entry point.
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    runtime.store(0x100, 8);
    runtime.programEnd();
    TempPath batch("any_batch.trc");
    std::string error;
    ASSERT_TRUE(writeTraceFile(batch.str(), recorder.events(),
                               runtime.names(), &error));
    LoadedTrace loaded;
    bool truncated = true;
    ASSERT_TRUE(readAnyTrace(batch.str(), &loaded, &truncated, &error))
        << error;
    EXPECT_FALSE(truncated);
    EXPECT_EQ(loaded.events.size(), 2u);

    // Stream trace chopped mid-record: same entry point, truncation
    // surfaced through the flag.
    TempPath stream("any_truncated.trs");
    TraceStreamWriter writer;
    ASSERT_TRUE(writer.open(stream.str(), &error)) << error;
    for (int i = 0; i < 5; ++i) {
        Event event;
        event.kind = EventKind::Store;
        event.addr = 0x200 + 8u * static_cast<unsigned>(i);
        event.size = 8;
        event.seq = static_cast<SeqNum>(i + 1);
        ASSERT_TRUE(writer.append(event));
    }
    ASSERT_TRUE(writer.close());
    const auto full = std::filesystem::file_size(stream.str());
    std::error_code ec;
    std::filesystem::resize_file(stream.str(), full - 3, ec);
    ASSERT_FALSE(ec) << ec.message();

    LoadedTrace recovered;
    truncated = false;
    ASSERT_TRUE(
        readAnyTrace(stream.str(), &recovered, &truncated, &error))
        << error;
    EXPECT_TRUE(truncated);
    EXPECT_EQ(recovered.events.size(), 4u);

    // Garbage is rejected, not misparsed.
    TempPath junk("any_junk.bin");
    std::FILE *file = std::fopen(junk.str().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("notatrace!", file);
    std::fclose(file);
    EXPECT_FALSE(readAnyTrace(junk.str(), &loaded, nullptr, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(PersistenceInspectorTest, PostMortemFindsDurabilityBugs)
{
    PmRuntime runtime;
    PersistenceInspector inspector;
    runtime.attach(&inspector);
    runtime.store(0x100, 8); // missing CLF
    runtime.fence();
    runtime.store(0x200, 8);
    runtime.flush(0x200, 64);
    runtime.flush(0x200, 64); // excessive flush
    runtime.fence();
    runtime.epochBegin();
    runtime.txLog(0x300, 16);
    runtime.txLog(0x308, 8); // excessive logging
    runtime.fence();
    runtime.epochEnd();
    // Nothing is reported during collection...
    EXPECT_EQ(inspector.bugs().total(), 0u);
    EXPECT_GT(inspector.collectedEvents(), 0u);
    runtime.programEnd();
    // ...everything at analysis time.
    EXPECT_EQ(inspector.bugs().countOf(BugType::NoDurability), 1u);
    EXPECT_EQ(inspector.bugs().countOf(BugType::RedundantFlush), 1u);
    EXPECT_EQ(inspector.bugs().countOf(BugType::RedundantLogging), 1u);
}

TEST(PersistenceInspectorTest, RegistryBuildsIt)
{
    auto detector = makeDetector("persistence_inspector");
    ASSERT_NE(detector, nullptr);
    EXPECT_TRUE(detector->isDbiBased());
}

TEST(JsonReportTest, EscapesAndStructures)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

    BugCollector bugs;
    BugReport report;
    report.type = BugType::NoDurability;
    report.range = AddrRange(16, 24);
    report.seq = 7;
    report.cause = DurabilityCause::MissingFlush;
    report.detail = "say \"hi\"";
    bugs.report(report);

    const std::string json = reportToJson(bugs);
    EXPECT_NE(json.find("\"total_sites\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"no-durability\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"start\": 16"), std::string::npos);
    EXPECT_NE(json.find("missing-flush"), std::string::npos);
    EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
}

TEST(JsonReportTest, IncludesStats)
{
    BugCollector bugs;
    DebuggerStats stats;
    stats.stores = 10;
    stats.fences = 2;
    const std::string json = reportToJson(bugs, stats);
    EXPECT_NE(json.find("\"stores\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"fences\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"bugs\": []"), std::string::npos);
}

} // namespace
} // namespace pmdb
