#include "common/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pmdb
{
namespace cli
{

bool
parseUnsigned(const char *text, std::uint64_t min, std::uint64_t max,
              std::uint64_t *out)
{
    // strtoull alone accepts leading space, a sign (wrapping "-3" to a
    // huge value) and trailing junk; demand digits only.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || value < min || value > max)
        return false;
    *out = value;
    return true;
}

bool
parseDouble(const char *text, double *out)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (!*text || std::isspace(static_cast<unsigned char>(text[0])) ||
        errno != 0 || *end != '\0' || !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

Flag
flag(const char *name, bool *target, const char *help, bool value)
{
    return {name, nullptr, help, [=](const char *) {
                *target = value;
                return true;
            }};
}

Flag
flag(const char *name, const char *metavar,
     std::function<bool(const std::string &)> apply, const char *help)
{
    return {name, metavar, help,
            [apply = std::move(apply)](const char *text) {
                return apply(text);
            }};
}

Parser::Parser(std::string tool, std::string synopsis,
               std::vector<Flag> flags, std::size_t minArgs,
               std::size_t maxArgs)
    : tool_(std::move(tool)),
      top_{"", std::move(synopsis), std::move(flags), minArgs, maxArgs}
{
}

void
Parser::command(std::string name, std::string synopsis,
                std::vector<Flag> flags, std::size_t minArgs,
                std::size_t maxArgs)
{
    commands_.push_back({std::move(name), std::move(synopsis),
                         std::move(flags), minArgs, maxArgs});
}

bool
Parser::given(const std::string &name) const
{
    return std::find(given_.begin(), given_.end(), name) != given_.end();
}

bool
Parser::parse(int argc, const char *const *argv, std::string *error)
{
    const auto reject = [error](std::string message) {
        *error = std::move(message);
        return false;
    };
    // Until a subcommand is named, only the tool-wide table applies.
    const Command *command = commands_.empty() ? &top_ : nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token == "--help") {
            help_ = true;
            return true;
        }
        if (token.size() < 2 || token[0] != '-') {
            if (command) {
                args_.push_back(token);
                continue;
            }
            for (const Command &candidate : commands_) {
                if (candidate.name == token)
                    command = &candidate;
            }
            if (!command)
                return reject("unknown command '" + token + "'");
            chosen_ = token;
            continue;
        }
        const Flag *flag = nullptr;
        const Command *tables[] = {&top_, command};
        for (const Command *table : tables) {
            for (std::size_t f = 0; table && f < table->flags.size(); ++f) {
                if (token == table->flags[f].name)
                    flag = &table->flags[f];
            }
        }
        if (!flag)
            return reject("unknown flag '" + token + "'");
        if (flag->metavar && i + 1 >= argc)
            return reject(token + " needs a value (" + flag->metavar + ")");
        const char *value = flag->metavar ? argv[++i] : nullptr;
        if (!flag->apply(value)) {
            return reject("invalid value '" + std::string(value) +
                          "' for " + token + " " + flag->metavar);
        }
        given_.push_back(token);
    }
    if (!command)
        return reject("missing command");
    if (args_.size() < command->minArgs || args_.size() > command->maxArgs)
        return reject("wrong number of arguments");
    return true;
}

void
Parser::parseOrExit(int argc, const char *const *argv)
{
    std::string error;
    if (!parse(argc, argv, &error))
        fail(error);
    if (help_) {
        std::fputs(usage().c_str(), stdout);
        std::exit(exitOk);
    }
}

void
Parser::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s (see %s --help)\n", tool_.c_str(),
                 message.c_str(), tool_.c_str());
    std::exit(exitUsage);
}

std::string
Parser::usage() const
{
    std::string out;
    for (const Command &command : commands_) {
        out += (out.empty() ? "usage: " : "       ") + tool_ + " " +
               command.name + " " + command.synopsis + "\n";
    }
    if (commands_.empty())
        out = "usage: " + tool_ + " " + top_.synopsis + "\n";
    const auto table = [&](const std::string &title,
                           const std::vector<Flag> &flags, bool help) {
        if (flags.empty() && !help)
            return;
        out += title + ":\n";
        for (const Flag &flag : flags) {
            std::string left = std::string("  ") + flag.name;
            if (flag.metavar)
                left.append(" ").append(flag.metavar);
            left.resize(std::max<std::size_t>(left.size() + 2, 24), ' ');
            out += left + flag.help + "\n";
        }
        if (help)
            out += "  --help                print this help and exit\n";
    };
    table("options", top_.flags, true);
    for (const Command &command : commands_)
        table(command.name + " options", command.flags, false);
    return out;
}

} // namespace cli
} // namespace pmdb
