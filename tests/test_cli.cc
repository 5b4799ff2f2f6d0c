/**
 * @file
 * Command-line contract of every tool, driven through the built
 * binaries: `--help` exits 0 and lists the tool's whole flag table, and
 * every malformed command line (unknown flag, missing value, a numeric
 * value that is not a whole in-range unsigned number) exits 2 before any
 * work starts — nothing reaches stdout. A corrupt trace file is refused
 * with exit 4.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace
{

/** Exit code and stdout of one tool run (stderr discarded). */
struct RunResult
{
    int exit = -1;
    std::string out;
};

RunResult
runTool(const std::string &tool, const std::string &args)
{
    const std::string command = std::string(PMDB_TOOLS_DIR) + "/" + tool +
                                " " + args + " 2>/dev/null";
    RunResult result;
    std::FILE *pipe = ::popen(command.c_str(), "r");
    if (!pipe)
        return result;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        result.out.append(buf, n);
    const int status = ::pclose(pipe);
    if (WIFEXITED(status))
        result.exit = WEXITSTATUS(status);
    return result;
}

struct ToolContract
{
    const char *tool;
    /** Every flag the tool accepts (its whole table). */
    std::vector<const char *> flags;
    /** A valid command line, to which a numeric flag is appended. */
    const char *base;
    /** A flag taking an unsigned number. */
    const char *numericFlag;
};

const std::vector<ToolContract> &
contracts()
{
    static const std::vector<ToolContract> all = {
        {"pmdb_run",
         {"--threads", "--fault", "--set-ratio", "--seed", "--trace-out",
          "--json", "--connect", "--policy", "--ring-slots",
          "--shared-pool", "--writer", "--list"},
         "pmdebugger 10 b_tree", "--threads"},
        {"pmdbd",
         {"--socket", "--workers", "--array-capacity", "--pollers",
          "--once", "--json", "--metrics-sock", "--trace-out"},
         "--socket /nonexistent/pmdbd.sock", "--workers"},
        {"pmdb_stat",
         {"--socket", "--once", "--interval", "--json", "--prom"},
         "--socket /nonexistent/pmdb.metrics --once", "--interval"},
        {"pmdb_crashsim",
         {"--workers", "--max-pending", "--max-images", "--seed",
          "--flush-points", "--no-epoch-atomic", "--ops", "--fault",
          "--json"},
         "run b_tree", "--workers"},
        {"pmdb_modelcheck",
         {"--ops", "--recovery-ops", "--depth", "--max-states", "--workers",
          "--seed", "--fault", "--no-prune", "--cache", "--max-pending",
          "--max-images", "--flush-points", "--no-epoch-atomic",
          "--max-findings", "--json"},
         "run b_tree", "--max-states"},
        {"pmdb_tracetool",
         {"--fault", "--correct", "--seed", "--threads", "--ycsb-mix",
          "--ops", "--sites", "--json", "--fingerprints", "--case",
          "--flush-points", "--max-pending", "--max-images",
          "--no-epoch-atomic", "--max-replays"},
         "crashsim /nonexistent.trc", "--max-pending"},
        {"pmdb_advise",
         {"--seeds", "--threads", "--mixes", "--ops", "--workers",
          "--min-confidence", "--optimize", "--json", "--out",
          "--no-minimize", "--max-replays"},
         "case:hashmap_atomic_entry_not_flushed", "--ops"},
        {"pmdb_crossproc",
         {"--ops", "--fault", "--case", "--workers", "--seed", "--dir",
          "--json", "--list-cases", "--create-pool"},
         "--dir /nonexistent", "--ops"},
    };
    return all;
}

TEST(CliContract, HelpExitsZeroAndListsEveryFlag)
{
    for (const ToolContract &c : contracts()) {
        SCOPED_TRACE(c.tool);
        const RunResult help = runTool(c.tool, "--help");
        EXPECT_EQ(help.exit, 0);
        EXPECT_EQ(help.out.rfind("usage: ", 0), 0u) << help.out;
        for (const char *flag : c.flags) {
            EXPECT_NE(help.out.find(std::string(flag) + " "),
                      std::string::npos)
                << flag << " missing from:\n"
                << help.out;
        }
    }
}

TEST(CliContract, MalformedCommandLinesExitTwoBeforeAnyWork)
{
    for (const ToolContract &c : contracts()) {
        const std::string base = c.base;
        const std::string numeric = base + " " + c.numericFlag + " ";
        for (const std::string &args :
             {base + " --no-such-flag", base + " " + c.numericFlag,
              numeric + "abc", numeric + "-3", numeric + "12x",
              numeric + "99999999999999999999"}) {
            SCOPED_TRACE(std::string(c.tool) + " " + args);
            const RunResult run = runTool(c.tool, args);
            EXPECT_EQ(run.exit, 2);
            EXPECT_EQ(run.out, "");
        }
    }
}

TEST(CliContract, NonNumericInputSizeIsAUsageError)
{
    const RunResult run = runTool("pmdb_run", "pmdebugger xyz b_tree");
    EXPECT_EQ(run.exit, 2);
    EXPECT_EQ(run.out, "");
}

std::string
readFile(const std::string &path)
{
    std::string bytes;
    if (std::FILE *file = std::fopen(path.c_str(), "rb")) {
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
            bytes.append(buf, n);
        std::fclose(file);
    }
    return bytes;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
}

TEST(CliContract, CorruptTraceFilesExitFour)
{
    const std::string dir = ::testing::TempDir();
    const std::string good = dir + "cli_good.trc";
    ASSERT_EQ(runTool("pmdb_tracetool", "record b_tree 50 " + good).exit,
              0);
    const std::string bytes = readFile(good);
    ASSERT_EQ(runTool("pmdb_tracetool", "info " + good).exit, 0);

    // Skip the magic and the name records ('N', u32 id, u32 length,
    // name) to the first event record ('E', packed event).
    std::size_t at = 8;
    while (at < bytes.size() && bytes[at] == 'N') {
        std::uint32_t len = 0;
        std::memcpy(&len, bytes.data() + at + 5, sizeof(len));
        at += 9 + len;
    }
    ASSERT_LT(at + 17, bytes.size());
    ASSERT_EQ(bytes[at], 'E');
    const std::size_t event = at + 1;

    std::string bad_kind = bytes;
    bad_kind[event] = static_cast<char>(200);
    std::string bad_flush = bytes;
    bad_flush[event + 1] = 77;
    std::string bad_name = bytes;
    const std::uint32_t name_id = 999;
    std::memcpy(&bad_name[event + 12], &name_id, sizeof(name_id));
    // The retired count-headed batch format.
    const std::string batch("PMDBTRC2\0\0\0\0\0\0\0\0\0\0\0\0", 20);

    for (const auto &[name, content] :
         {std::pair<const char *, const std::string &>{"kind", bad_kind},
          {"flush", bad_flush},
          {"name", bad_name},
          {"batch", batch}}) {
        const std::string path = dir + "cli_bad_" + name + ".trc";
        writeFile(path, content);
        SCOPED_TRACE(path);
        EXPECT_EQ(runTool("pmdb_tracetool", "info " + path).exit, 4);
        EXPECT_EQ(
            runTool("pmdb_tracetool", "replay " + path + " pmdebugger")
                .exit,
            4);
        std::remove(path.c_str());
    }
    std::remove(good.c_str());
}

} // namespace
