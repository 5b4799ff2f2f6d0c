/**
 * @file
 * Tests for the on-disk trace format and the record/replay workflow,
 * plus the JSON report rendering.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "common/json.hh"
#include "common/rng.hh"
#include "core/report.hh"
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

    // Leftovers of an earlier load must not survive the next one.
    LoadedTrace loaded;
    loaded.names.intern("stale");
    loaded.events.resize(3);
    ASSERT_TRUE(readTraceFile(path.str(), &loaded, nullptr, &error))
        << error;
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
    EXPECT_FALSE(readTraceFile(path.str(), &loaded, nullptr, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);
}

TEST(TraceFileTest, MissingFileFailsGracefully)
{
    LoadedTrace loaded;
    std::string error;
    EXPECT_FALSE(readTraceFile("/nonexistent/dir/x.trc", &loaded,
                               nullptr, &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceFileTest, FailedFinalFlushFailsTheWrite)
{
    // Three events fit in the stdio buffer, so every append succeeds
    // and only the flush at close can hit the full device.
    std::vector<Event> events(3);
    std::string error;
    EXPECT_FALSE(writeTraceFile("/dev/full", events, NameTable(), &error));
    EXPECT_FALSE(error.empty());

    TraceStreamWriter writer;
    ASSERT_TRUE(writer.open("/dev/full", &error)) << error;
    for (const Event &event : events)
        ASSERT_TRUE(writer.append(event));
    EXPECT_FALSE(writer.close());
}

/**
 * Write a trace holding the name "var" (when @p named), a valid store,
 * @p bad and another valid store, then load it strictly.
 */
::testing::AssertionResult
loadsWith(const Event &bad, bool named, std::string *error)
{
    TempPath path("fields.trc");
    TraceStreamWriter writer;
    if (!writer.open(path.str(), error))
        return ::testing::AssertionFailure() << *error;
    if (named)
        writer.appendName(0, "var");
    Event store;
    store.size = 8;
    writer.append(store);
    writer.append(bad);
    writer.append(store);
    if (!writer.close())
        return ::testing::AssertionFailure() << "write failed";
    LoadedTrace loaded;
    if (!readTraceFile(path.str(), &loaded, nullptr, error))
        return ::testing::AssertionFailure() << *error;
    return ::testing::AssertionSuccess();
}

TEST(TraceFileTest, RejectsInvalidEventFields)
{
    std::string error;
    Event event;
    event.nameId = 0;
    EXPECT_TRUE(loadsWith(event, /*named=*/true, &error)) << error;

    const auto rejects = [&](const Event &bad, bool named,
                             const std::string &field) {
        error.clear();
        EXPECT_FALSE(loadsWith(bad, named, &error)) << field;
        EXPECT_NE(error.find("corrupt trace: event 1 has an invalid " +
                             field),
                  std::string::npos)
            << error;
    };
    Event bad_kind;
    bad_kind.kind = static_cast<EventKind>(200);
    rejects(bad_kind, true, "kind");
    bad_kind.kind = static_cast<EventKind>(
        static_cast<int>(EventKind::ProgramEnd) + 1);
    rejects(bad_kind, true, "kind");

    Event bad_flush;
    bad_flush.kind = EventKind::Flush;
    bad_flush.flushKind = static_cast<FlushKind>(77);
    rejects(bad_flush, true, "flush kind");

    Event bad_name;
    bad_name.nameId = 999;
    rejects(bad_name, true, "name id");
    // A name must be written before the first event that uses it.
    bad_name.nameId = 0;
    rejects(bad_name, /*named=*/false, "name id");
}

TEST(TraceFileTest, RejectsRepeatedOrSkippedNameIds)
{
    TempPath path("names.trc");
    std::string error;
    for (const auto &[id, name] :
         {std::pair<std::uint32_t, const char *>{2, "b"}, {1, "a"}}) {
        std::FILE *file = std::fopen(path.str().c_str(), "wb");
        ASSERT_NE(file, nullptr);
        // Name 0 "a", then name `id` — skipping ahead, or repeating
        // "a" under a new id.
        const std::uint32_t len = 1;
        std::fwrite("PMDBTRS2", 1, 8, file);
        for (const auto &[i, n] :
             {std::pair<std::uint32_t, const char *>{0, "a"}, {id, name}}) {
            std::fputc('N', file);
            std::fwrite(&i, sizeof(i), 1, file);
            std::fwrite(&len, sizeof(len), 1, file);
            std::fwrite(n, 1, len, file);
        }
        std::fclose(file);
        LoadedTrace loaded;
        error.clear();
        EXPECT_FALSE(readTraceFile(path.str(), &loaded, nullptr, &error))
            << name;
        EXPECT_NE(error.find("corrupt trace: name record"),
                  std::string::npos)
            << error;
    }
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
    ASSERT_TRUE(readTraceFile(path.str(), &loaded, nullptr, &error))
        << error;

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
    // events that reference them — the record-as-you-go pattern.
    for (const Event &event : recorder.events()) {
        ASSERT_TRUE(writer.syncNames(runtime.names()));
        ASSERT_TRUE(writer.append(event));
        ASSERT_TRUE(writer.flush());
    }
    EXPECT_EQ(writer.eventsWritten(), recorder.events().size());
    ASSERT_TRUE(writer.close());

    LoadedTrace loaded;
    bool truncated = true;
    ASSERT_TRUE(readTraceFile(path.str(), &loaded, &truncated, &error))
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
    ASSERT_TRUE(readTraceFile(path.str(), &loaded, &truncated, &error))
        << error;
    EXPECT_TRUE(truncated);
    // The partial final record is dropped; everything before survives.
    EXPECT_EQ(loaded.events.size(), 9u);
    EXPECT_EQ(loaded.events.back().seq, 9u);
    EXPECT_EQ(loaded.names.size(), 1u);

    // A caller that cannot take a prefix gets an error instead.
    LoadedTrace strict;
    error.clear();
    EXPECT_FALSE(readTraceFile(path.str(), &strict, nullptr, &error));
    EXPECT_NE(error.find("truncated trace"), std::string::npos) << error;
}

TEST(TraceStreamTest, RejectsBatchFormatMagic)
{
    // The retired batch format (a count-headed PMDBTRC2 file) must be
    // refused by its magic, not misparsed.
    TempPath path("batch.trc");
    std::FILE *file = std::fopen(path.str().c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::uint32_t name_count = 0;
    const std::uint64_t event_count = 0;
    std::fwrite("PMDBTRC2", 1, 8, file);
    std::fwrite(&name_count, sizeof(name_count), 1, file);
    std::fwrite(&event_count, sizeof(event_count), 1, file);
    std::fclose(file);

    LoadedTrace loaded;
    bool truncated = false;
    std::string error;
    EXPECT_FALSE(readTraceFile(path.str(), &loaded, &truncated, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

/** Whether @p trace holds only events a writer could have produced. */
::testing::AssertionResult
allEventsValid(const LoadedTrace &trace)
{
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        const Event &event = trace.events[i];
        if (event.kind > EventKind::ProgramEnd ||
            event.flushKind > FlushKind::Clflushopt ||
            (event.nameId != noName &&
             event.nameId >= trace.names.size())) {
            return ::testing::AssertionFailure()
                   << "event " << i << " loaded with an invalid field";
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(TraceFuzzTest, SeededMutantsLoadValidOrFailCleanly)
{
    // A small recorded trace with site names, mutated many ways under a
    // fixed seed: every mutant must load only valid events, or fail
    // with an error.
    PmRuntime runtime;
    TraceRecorder recorder;
    runtime.attach(&recorder);
    WorkloadOptions options;
    options.operations = 10;
    makeWorkload("hashmap_atomic")->run(runtime, options);
    ASSERT_GT(runtime.names().size(), 0u);

    TempPath seed_path("fuzz_seed.trc");
    std::string error;
    ASSERT_TRUE(writeTraceFile(seed_path.str(), recorder.events(),
                               runtime.names(), &error))
        << error;
    std::string seed;
    {
        std::FILE *file = std::fopen(seed_path.str().c_str(), "rb");
        ASSERT_NE(file, nullptr);
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
            seed.append(buf, n);
        std::fclose(file);
    }
    // Offsets of every record tag, walked from the known layout.
    std::vector<std::size_t> tags;
    for (std::size_t at = 8; at < seed.size();) {
        tags.push_back(at);
        if (seed[at] == 'N') {
            std::uint32_t len = 0;
            std::memcpy(&len, seed.data() + at + 5, sizeof(len));
            at += 9 + len;
        } else {
            ASSERT_EQ(seed[at], 'E');
            at += 49;
        }
    }
    ASSERT_EQ(tags.size(),
              runtime.names().size() + recorder.events().size());

    Rng rng(0x7e57f11e);
    TempPath mutant_path("fuzz_mutant.trc");
    int loaded_count = 0;
    int rejected = 0;
    for (int round = 0; round < 1500; ++round) {
        std::string mutant = seed;
        switch (rng.nextBounded(3)) {
          case 0: // overwrite a few bytes anywhere, the magic included
            for (int k = 1 + static_cast<int>(rng.nextBounded(4)); k > 0;
                 --k) {
                mutant[rng.nextBounded(mutant.size())] =
                    static_cast<char>(rng.nextBounded(256));
            }
            break;
          case 1: // cut the file short
            mutant.resize(rng.nextBounded(mutant.size()));
            break;
          default: // retag a record
            mutant[tags[rng.nextBounded(tags.size())]] =
                "NE\0x"[rng.nextBounded(4)];
            break;
        }
        std::FILE *file = std::fopen(mutant_path.str().c_str(), "wb");
        ASSERT_NE(file, nullptr);
        std::fwrite(mutant.data(), 1, mutant.size(), file);
        std::fclose(file);

        LoadedTrace loaded;
        bool truncated = false;
        error.clear();
        const bool accept_tail = round % 2 == 0;
        if (readTraceFile(mutant_path.str(), &loaded,
                          accept_tail ? &truncated : nullptr, &error)) {
            EXPECT_TRUE(allEventsValid(loaded)) << "round " << round;
            ++loaded_count;
        } else {
            EXPECT_FALSE(error.empty()) << "round " << round;
            ++rejected;
        }
    }
    // Both outcomes occur, so the mutations reach past the magic.
    EXPECT_GT(loaded_count, 0);
    EXPECT_GT(rejected, 0);
}

TEST(JsonReportTest, EscapesAndStructures)
{
    EXPECT_EQ(JsonWriter().value("a\"b\\c\nd").str(),
              "\"a\\\"b\\\\c\\nd\"");

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
