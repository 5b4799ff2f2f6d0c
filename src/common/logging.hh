/**
 * @file
 * Minimal leveled logging plus panic/fatal helpers, in the spirit of
 * gem5's base/logging.hh: panic() for internal invariant violations,
 * fatal() for unrecoverable user/configuration errors.
 */

#ifndef PMDB_COMMON_LOGGING_HH
#define PMDB_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace pmdb
{

/** Severity of a log message. */
enum class LogLevel
{
    Debug,
    Info,
    Warn,
    Error,
    /** Threshold-only value: suppresses every message. */
    None,
};

/**
 * Parse a log-level name ("debug", "info", "warn", "error", "none",
 * case-insensitive). Returns false (leaving @p out untouched) for
 * unknown names.
 */
bool parseLogLevel(const std::string &name, LogLevel *out);

/**
 * Global log configuration. Quiet by default so benchmarks and tests
 * are not flooded; examples turn Info on. The initial threshold comes
 * from the PMDB_LOG environment variable when set (one of the
 * parseLogLevel names), else Warn.
 */
class Logger
{
  public:
    static LogLevel &threshold();

    /**
     * Emit one line as
     * `[<seconds-since-start>s <level> <component>] <msg>` — e.g.
     * `[12.345s warn pmdbd] ring full`. The timestamp is
     * monotonic seconds since the first log call of the process, so
     * interleaved daemon/client stderr can be ordered by eye.
     * @p component may be empty (plain `[12.345s warn] msg`).
     */
    static void log(LogLevel level, const std::string &msg,
                    const std::string &component = std::string());
};

/** Log at Info level. */
void inform(const std::string &msg);
/** Log at Info level with a component tag ("pmdbd"). */
void inform(const std::string &component, const std::string &msg);
/** Log at Warn level. */
void warn(const std::string &msg);
/** Log at Warn level with a component tag. */
void warn(const std::string &component, const std::string &msg);
/** Log at Error level. */
void logError(const std::string &msg);
/** Log at Error level with a component tag. */
void logError(const std::string &component, const std::string &msg);

/**
 * Abort due to an internal bug: an invariant that should hold regardless
 * of input has been violated.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Exit due to an unrecoverable condition caused by the caller
 * (bad configuration, invalid arguments).
 */
[[noreturn]] void fatal(const std::string &msg);

} // namespace pmdb

#endif // PMDB_COMMON_LOGGING_HH
