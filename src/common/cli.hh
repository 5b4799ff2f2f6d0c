/**
 * @file
 * The command-line parser every pmdb tool uses, and the tool family's
 * exit codes. A tool declares one table of flags (name, value kind,
 * help line), optionally per subcommand, and gets the same rules
 * everywhere: numbers must be a whole in-range unsigned token, `--help`
 * prints the usage generated from the tables and exits 0, and every
 * usage error prints one line to stderr and exits exitUsage.
 */

#ifndef PMDB_COMMON_CLI_HH
#define PMDB_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace pmdb
{

/** Exit codes shared by every tool (README "Tool exit codes"). */
enum ToolExit : int
{
    exitOk = 0,
    exitFailure = 1,     ///< Infrastructure failure, or a case misbehaved.
    exitUsage = 2,       ///< Bad flag, value or argument.
    exitUnknownName = 3, ///< Unknown case/workload/checker/fault name.
    exitBadTrace = 4,    ///< Trace file unreadable or malformed.
    exitTruncated = 5,   ///< A sample: torn trace tail or budget hit.
    exitNoRepair = 6,    ///< No verified repair / target not reproduced.
    exitNoAdvisory = 7,  ///< No advisory cleared --min-confidence.
    exitCrossBugs = 8,   ///< Cross-session bugs in a shared pool.
};

namespace cli
{

/** Parse a whole-token decimal in [min, max]; false otherwise. */
bool parseUnsigned(const char *text, std::uint64_t min, std::uint64_t max,
                   std::uint64_t *out);

/** Parse a whole-token finite double; false otherwise. */
bool parseDouble(const char *text, double *out);

/** One row of a flag table. */
struct Flag
{
    const char *name;
    /** Value placeholder in the usage text; nullptr for a switch. */
    const char *metavar;
    const char *help;
    /** Apply one occurrence (nullptr value for a switch); false rejects. */
    std::function<bool(const char *value)> apply;
};

/** A switch: sets @p target to @p value when given. */
Flag flag(const char *name, bool *target, const char *help,
          bool value = true);

/**
 * A value stored into @p target: a string, a finite double, or an
 * unsigned number in [@p min, @p max] (by default anything that fits
 * the integer type; negatives are always rejected).
 */
template <typename T>
Flag
flag(const char *name, const char *metavar, T *target, const char *help,
     std::uint64_t min = 0,
     std::uint64_t max = std::numeric_limits<
         std::conditional_t<std::is_integral_v<T>, T, std::uint64_t>>::max())
{
    return {name, metavar, help, [=](const char *text) {
                if constexpr (std::is_same_v<T, std::string>) {
                    *target = text;
                    return true;
                } else if constexpr (std::is_floating_point_v<T>) {
                    return parseDouble(text, target);
                } else {
                    std::uint64_t value = 0;
                    if (!parseUnsigned(text, min, max, &value))
                        return false;
                    *target = static_cast<T>(value);
                    return true;
                }
            }};
}

/**
 * A value handed to @p apply on every occurrence: repeatable flags
 * (`--fault`) and list values (`--seeds 1,2`); false rejects it.
 */
Flag flag(const char *name, const char *metavar,
          std::function<bool(const std::string &)> apply,
          const char *help);

/**
 * A tool's command line: the tool-wide flag table and positional
 * arity, plus optional subcommands (the first positional names one;
 * its table and arity then apply).
 */
class Parser
{
  public:
    Parser(std::string tool, std::string synopsis, std::vector<Flag> flags,
           std::size_t minArgs = 0, std::size_t maxArgs = 0);

    void command(std::string name, std::string synopsis,
                 std::vector<Flag> flags = {}, std::size_t minArgs = 0,
                 std::size_t maxArgs = 0);

    /**
     * Parse argv[1..argc). False with @p error set on a usage error;
     * stops at `--help` and returns true with help() set.
     */
    bool parse(int argc, const char *const *argv, std::string *error);

    /** parse(); print usage() and exit 0 on --help, fail() on error. */
    void parseOrExit(int argc, const char *const *argv);

    /** Print "<tool>: <message>" to stderr and exit exitUsage. */
    [[noreturn]] void fail(const std::string &message) const;

    std::string usage() const;

    bool help() const { return help_; }
    const std::string &subcommand() const { return chosen_; }
    /** Positionals, without the subcommand name. */
    const std::vector<std::string> &args() const { return args_; }
    /** True when the flag @p name appeared on the command line. */
    bool given(const std::string &name) const;

  private:
    struct Command
    {
        std::string name;
        std::string synopsis;
        std::vector<Flag> flags;
        std::size_t minArgs;
        std::size_t maxArgs;
    };

    std::string tool_;
    Command top_;
    std::vector<Command> commands_;

    bool help_ = false;
    std::string chosen_;
    std::vector<std::string> args_;
    std::vector<std::string> given_;
};

} // namespace cli
} // namespace pmdb

#endif // PMDB_COMMON_CLI_HH
