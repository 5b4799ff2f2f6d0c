/**
 * @file
 * Unit tests for the common utilities: address-range arithmetic,
 * deterministic RNG, zipfian generators, table rendering, the shared
 * command-line parser and the JSON writer.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace pmdb
{
namespace
{

TEST(AddrRangeTest, BasicProperties)
{
    const AddrRange r(100, 200);
    EXPECT_EQ(r.size(), 100u);
    EXPECT_FALSE(r.empty());
    EXPECT_TRUE(r.contains(100));
    EXPECT_TRUE(r.contains(199));
    EXPECT_FALSE(r.contains(200));
    EXPECT_TRUE(AddrRange().empty());
    EXPECT_EQ(AddrRange::fromSize(64, 64), AddrRange(64, 128));
}

TEST(AddrRangeTest, OverlapIsSymmetricAndCorrect)
{
    const AddrRange a(0, 10);
    const AddrRange b(5, 15);
    const AddrRange c(10, 20);
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_TRUE(b.overlaps(a));
    EXPECT_FALSE(a.overlaps(c)); // half-open: [0,10) and [10,20) touch
    EXPECT_TRUE(a.adjacentOrOverlapping(c));
    EXPECT_FALSE(a.overlaps(AddrRange()));
    EXPECT_FALSE(AddrRange().overlaps(a));
}

TEST(AddrRangeTest, ContainsAndIntersect)
{
    const AddrRange big(0, 100);
    const AddrRange small(10, 20);
    EXPECT_TRUE(big.contains(small));
    EXPECT_FALSE(small.contains(big));
    EXPECT_EQ(big.intersect(small), small);
    EXPECT_EQ(AddrRange(0, 10).intersect(AddrRange(5, 15)),
              AddrRange(5, 10));
    EXPECT_TRUE(AddrRange(0, 5).intersect(AddrRange(10, 15)).empty());
}

TEST(AddrRangeTest, UnionWith)
{
    EXPECT_EQ(AddrRange(0, 10).unionWith(AddrRange(5, 20)),
              AddrRange(0, 20));
    EXPECT_EQ(AddrRange().unionWith(AddrRange(3, 7)), AddrRange(3, 7));
    EXPECT_EQ(AddrRange(3, 7).unionWith(AddrRange()), AddrRange(3, 7));
}

TEST(CacheLineTest, BaseAndIndex)
{
    EXPECT_EQ(cacheLineBase(0), 0u);
    EXPECT_EQ(cacheLineBase(63), 0u);
    EXPECT_EQ(cacheLineBase(64), 64u);
    EXPECT_EQ(cacheLineIndex(127), 1u);
    EXPECT_EQ(cacheLineIndex(128), 2u);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, BernoulliRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.nextBool(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.02);
}

TEST(ZipfianTest, StaysInRangeAndIsSkewed)
{
    ZipfianGenerator zipf(1000, 0.99, 5);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t v = zipf.next();
        ASSERT_LT(v, 1000u);
        ++counts[v];
    }
    // Rank-0 should be far more popular than the median rank.
    EXPECT_GT(counts[0], 50 * std::max(1, counts[500]));
}

TEST(ZipfianTest, ScrambledCoversSpace)
{
    ScrambledZipfianGenerator zipf(1000, 5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = zipf.next();
        ASSERT_LT(v, 1000u);
        seen.insert(v);
    }
    // Scrambling should spread the hot set across the key space.
    EXPECT_GT(seen.size(), 200u);
}

TEST(ZipfianTest, LargeKeySpaceConstructsQuickly)
{
    ZipfianGenerator zipf(100'000'000ULL, 0.99, 1);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(zipf.next(), 100'000'000ULL);
}

TEST(TextTableTest, RendersAlignedColumns)
{
    TextTable table;
    table.setHeader({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer-name", "22"});
    const std::string out = table.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTableTest, PadsShortRows)
{
    TextTable table;
    table.setHeader({"a", "b", "c"});
    table.addRow({"only-one"});
    EXPECT_NE(table.render().find("only-one"), std::string::npos);
}

TEST(FormatTest, Helpers)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtFactor(2.5), "2.5x");
    EXPECT_EQ(fmtPercent(12.34), "12.3%");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(12), "12");
}

TEST(LogLevelTest, ParsesKnownNames)
{
    LogLevel level = LogLevel::Warn;
    EXPECT_TRUE(parseLogLevel("debug", &level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(parseLogLevel("INFO", &level));
    EXPECT_EQ(level, LogLevel::Info);
    EXPECT_TRUE(parseLogLevel("Warning", &level));
    EXPECT_EQ(level, LogLevel::Warn);
    EXPECT_TRUE(parseLogLevel("error", &level));
    EXPECT_EQ(level, LogLevel::Error);
    EXPECT_TRUE(parseLogLevel("off", &level));
    EXPECT_EQ(level, LogLevel::None);
    EXPECT_TRUE(parseLogLevel("none", &level));
    EXPECT_EQ(level, LogLevel::None);
}

TEST(LogLevelTest, RejectsUnknownNames)
{
    LogLevel level = LogLevel::Info;
    EXPECT_FALSE(parseLogLevel("loud", &level));
    EXPECT_FALSE(parseLogLevel("", &level));
    // The out-param is untouched on failure.
    EXPECT_EQ(level, LogLevel::Info);
}

TEST(Mix64Test, IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(1), mix64(1));
    std::set<std::uint64_t> outputs;
    for (std::uint64_t i = 0; i < 1000; ++i)
        outputs.insert(mix64(i));
    EXPECT_EQ(outputs.size(), 1000u);
}

/** Parse @p args (without argv[0]) against @p parser. */
bool
parseArgs(cli::Parser &parser, std::vector<const char *> args,
          std::string *error)
{
    args.insert(args.begin(), "tool");
    return parser.parse(static_cast<int>(args.size()), args.data(), error);
}

TEST(CliParserTest, AppliesFlagsAndCollectsPositionals)
{
    bool json = false;
    std::uint32_t slots = 7;
    double ratio = 0.0;
    std::string path;
    std::vector<std::string> faults;
    cli::Parser parser(
        "tool", "<a> <b>",
        {cli::flag("--json", &json, "json"),
         cli::flag("--slots", "N", &slots, "slots", 1, 64),
         cli::flag("--ratio", "R", &ratio, "ratio"),
         cli::flag("--out", "FILE", &path, "out"),
         cli::flag("--fault", "NAME",
                   [&](const std::string &name) {
                       faults.push_back(name);
                       return true;
                   },
                   "fault")},
        2, 2);
    std::string error;
    ASSERT_TRUE(parseArgs(parser,
                          {"x", "--slots", "64", "--fault", "f1", "y",
                           "--ratio", "0.25", "--json", "--fault", "f2",
                           "--out", "o.json"},
                          &error))
        << error;
    EXPECT_TRUE(json);
    EXPECT_EQ(slots, 64u);
    EXPECT_DOUBLE_EQ(ratio, 0.25);
    EXPECT_EQ(path, "o.json");
    EXPECT_EQ(faults, (std::vector<std::string>{"f1", "f2"}));
    EXPECT_EQ(parser.args(), (std::vector<std::string>{"x", "y"}));
    EXPECT_TRUE(parser.given("--ratio"));
    EXPECT_FALSE(parser.given("--help"));
    EXPECT_FALSE(parser.help());
}

TEST(CliParserTest, RejectsMalformedInput)
{
    std::size_t ops = 0;
    int threads = 0;
    std::uint32_t slots = 0;
    double ratio = 0.0;
    const auto reject = [&](std::vector<const char *> args) {
        cli::Parser parser("tool", "<a>",
                           {cli::flag("--ops", "N", &ops, "ops"),
                            cli::flag("--threads", "N", &threads, "t"),
                            cli::flag("--slots", "N", &slots, "s", 1, 64),
                            cli::flag("--ratio", "R", &ratio, "r")},
                           1, 1);
        std::string error;
        const bool ok = parseArgs(parser, std::move(args), &error);
        EXPECT_FALSE(error.empty());
        return !ok;
    };
    for (const char *bad : {"abc", "-3", "12x", "99999999999999999999",
                            "", " 5", "+5", "0x10"}) {
        SCOPED_TRACE(bad);
        EXPECT_TRUE(reject({"a", "--ops", bad}));
    }
    EXPECT_TRUE(reject({"a", "--threads", "2147483648"})) << "int overflow";
    EXPECT_TRUE(reject({"a", "--slots", "0"})) << "below the table bound";
    EXPECT_TRUE(reject({"a", "--slots", "65"})) << "above the table bound";
    EXPECT_TRUE(reject({"a", "--ratio", "1.5x"}));
    EXPECT_TRUE(reject({"a", "--ratio", "nan"}));
    EXPECT_TRUE(reject({"a", "--bogus"})) << "unknown flag";
    EXPECT_TRUE(reject({"a", "--ops"})) << "missing value";
    EXPECT_TRUE(reject({})) << "too few positionals";
    EXPECT_TRUE(reject({"a", "b"})) << "too many positionals";
    EXPECT_TRUE(reject({"-x"})) << "single-dash token is a flag";
}

TEST(CliParserTest, HelpStopsParsingAndListsEveryFlag)
{
    std::size_t ops = 0;
    bool json = false;
    cli::Parser parser("tool", "<a>",
                       {cli::flag("--ops", "N", &ops, "operation count"),
                        cli::flag("--json", &json, "print JSON")},
                       1, 1);
    std::string error;
    ASSERT_TRUE(parseArgs(parser, {"--help", "--bogus"}, &error));
    EXPECT_TRUE(parser.help());
    const std::string usage = parser.usage();
    EXPECT_EQ(usage.rfind("usage: tool <a>\n", 0), 0u) << usage;
    EXPECT_NE(usage.find("--ops N"), std::string::npos);
    EXPECT_NE(usage.find("operation count"), std::string::npos);
    EXPECT_NE(usage.find("--json"), std::string::npos);
    EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(CliParserTest, SubcommandsScopeTheirFlags)
{
    bool shared = false;
    bool sites = false;
    std::string out;
    cli::Parser parser("tool", "", {cli::flag("--shared", &shared, "s")});
    parser.command("info", "<file>",
                   {cli::flag("--sites", &sites, "sites")}, 1, 1);
    parser.command("dump", "[<out>]",
                   {cli::flag("--out", "FILE", &out, "out")}, 0, 1);

    std::string error;
    ASSERT_TRUE(parseArgs(parser, {"--shared", "info", "f.trc", "--sites"},
                          &error))
        << error;
    EXPECT_EQ(parser.subcommand(), "info");
    EXPECT_EQ(parser.args(), std::vector<std::string>{"f.trc"});
    EXPECT_TRUE(shared && sites);

    cli::Parser other = parser;
    EXPECT_FALSE(parseArgs(other, {"dump", "--sites"}, &error))
        << "--sites belongs to info only";
    cli::Parser missing = parser;
    EXPECT_FALSE(parseArgs(missing, {}, &error));
    cli::Parser unknown = parser;
    EXPECT_FALSE(parseArgs(unknown, {"bogus"}, &error));

    const std::string usage = parser.usage();
    EXPECT_NE(usage.find("usage: tool info <file>\n"), std::string::npos);
    EXPECT_NE(usage.find("       tool dump [<out>]\n"), std::string::npos);
    EXPECT_NE(usage.find("info options:"), std::string::npos);
    EXPECT_NE(usage.find("--out FILE"), std::string::npos);
}

/** The writer's rendering of one string, without its quotes. */
std::string
escaped(std::string_view text)
{
    const std::string json = JsonWriter().value(text).str();
    return json.substr(1, json.size() - 2);
}

/** The single escaper leaves no raw control byte, quote or backslash. */
TEST(JsonWriterTest, EscapesEveryControlByte)
{
    for (int byte = 0; byte < 0x20; ++byte) {
        SCOPED_TRACE(byte);
        const std::string out =
            escaped(std::string(1, static_cast<char>(byte)));
        char expected[8];
        std::snprintf(expected, sizeof(expected), "\\u%04x", byte);
        if (byte == '\n')
            EXPECT_EQ(out, "\\n");
        else if (byte == '\t')
            EXPECT_EQ(out, "\\t");
        else
            EXPECT_EQ(out, expected);
    }
    EXPECT_EQ(escaped("\""), "\\\"");
    EXPECT_EQ(escaped("\\"), "\\\\");
    EXPECT_EQ(escaped("a\x01" "b\"c"), "a\\u0001b\\\"c");
    EXPECT_EQ(escaped("plain \x7f\xc3\xa9"), "plain \x7f\xc3\xa9");
}

TEST(JsonWriterTest, RendersTheHouseLayout)
{
    JsonWriter json;
    json.beginObject()
        .field("name", "a\"b")
        .field("count", std::uint64_t{18446744073709551615ull})
        .field("delta", -3)
        .field("ok", true)
        .field("ratio", 0.5)
        .field("fixed", 2.0 / 3.0, 4)
        .field("inf", std::numeric_limits<double>::infinity())
        .key("list")
        .beginArray()
        .value(1)
        .beginObject()
        .endObject()
        .raw("[]")
        .endArray()
        .key("empty")
        .beginArray()
        .endArray()
        .endObject();
    EXPECT_EQ(json.str(),
              "{\"name\": \"a\\\"b\", \"count\": 18446744073709551615, "
              "\"delta\": -3, \"ok\": true, \"ratio\": 0.5, "
              "\"fixed\": 0.6667, \"inf\": null, \"list\": [1, {}, []], "
              "\"empty\": []}");
}

} // namespace
} // namespace pmdb
